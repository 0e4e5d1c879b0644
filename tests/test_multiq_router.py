"""Alphabet router (repro.multiq.router): static interest analysis.

The router may only skip a machine on events it provably cannot react
to; every test here pins filtered dispatch against unfiltered evaluation
— wildcards, ``//`` closures under recursion, tags absent from every
query, character data, and queries added/removed mid-stream.
"""

from __future__ import annotations

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine, machine_alphabet
from repro.multiq.registry import EvalUnit
from repro.multiq.router import AlphabetRouter
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query

from tests.conftest import chain_xml


def unit_for(query: str, limits: ResourceLimits | None = None) -> EvalUnit:
    return EvalUnit(compile_query(query), limits)


class TestMachineAlphabet:
    def test_plain_path_interest_is_its_tags(self):
        labels, wants_all, wants_text = machine_alphabet(
            unit_for("//a[b]//c").engine.machine
        )
        assert labels == {"a", "b", "c"}
        assert not wants_all and not wants_text

    def test_materialized_wildcard_wants_all(self):
        _labels, wants_all, _ = machine_alphabet(unit_for("//a//*").engine.machine)
        assert wants_all

    def test_interior_wildcard_folds_away(self):
        """``/a/*/b`` routes on {a, b}: the ``*`` step folds into the
        parent-edge distance during machine construction."""
        labels, wants_all, _ = machine_alphabet(unit_for("/a/*/b").engine.machine)
        assert labels == {"a", "b"}
        assert not wants_all

    def test_value_test_wants_text(self):
        _labels, _, wants_text = machine_alphabet(
            unit_for("//book[price < 30]").engine.machine
        )
        assert wants_text
        _labels, _, wants_text = machine_alphabet(unit_for("//book").engine.machine)
        assert not wants_text


class TestRouterIndex:
    def test_units_for_tag_partitions_by_interest(self):
        router = AlphabetRouter()
        ab, cd, star = unit_for("//a/b"), unit_for("//c/d"), unit_for("//e//*")
        for unit in (ab, cd, star):
            router.add(unit)
        assert router.units_for_tag("a") == [ab, star]
        assert router.units_for_tag("d") == [cd, star]
        assert router.units_for_tag("zzz") == [star]  # absent tag: wildcards only

    def test_remove_invalidates_index(self):
        router = AlphabetRouter()
        ab, ac = unit_for("//a/b"), unit_for("//a/c")
        router.add(ab)
        router.add(ac)
        assert router.units_for_tag("a") == [ab, ac]
        router.remove(ab)
        assert router.units_for_tag("a") == [ac]
        assert router.units_for_tag("b") == []

    def test_limited_units_stay_off_the_routed_path(self):
        router = AlphabetRouter()
        limited = unit_for("//a", ResourceLimits(max_depth=100))
        router.add(limited)
        assert router.units_for_tag("a") == []
        assert router.limited_units() == [limited]

    def test_text_units(self):
        router = AlphabetRouter()
        valued, plain = unit_for("//a[b = 'x']"), unit_for("//a")
        router.add(valued)
        router.add(plain)
        assert router.text_units() == [valued]

    def test_open_label_index_is_built_on_add(self):
        """Gate labels get bits (``*`` none); each record's ``relevant``
        ORs its routes' gate bits; nothing is memoised before dispatch."""
        router = AlphabetRouter()
        ab, star, valued = unit_for("//a//b"), unit_for("//*[c]"), unit_for("//d[e = 'x']")
        for unit in (ab, star, valued):
            router.add(unit)
        records = router.records
        bits = [records[tag].bit for tag in "ade"]
        assert all(bits) and len(set(bits)) == 3
        assert records["b"].bit == records["c"].bit == 0
        assert records["b"].relevant == records["a"].bit  # gated on a; star ungated
        assert records["c"].relevant == 0
        assert router.text.relevant == records["e"].bit
        assert router.memoised_views == 0
        router.remove(ab)
        assert records["b"].relevant == 0 and records["a"].bit == bits[0]


class EquivalenceMixin:
    """Routed multi-query results must equal independent evaluation."""

    def check(self, queries: dict[str, str], xml: str) -> None:
        events = list(parse_string(xml))
        routed = MultiQueryEngine(queries)
        routed.feed_events(events)
        for name, query in queries.items():
            alone = XPathStream(query).evaluate(iter(events))
            assert routed.results()[name] == alone, (name, query)


class TestRoutedEquivalence(EquivalenceMixin):
    def test_absent_tags_are_skipped_harmlessly(self):
        self.check(
            {"hit": "//a//b", "miss": "//x//y", "deep": "//nowhere[at = 'all']"},
            chain_xml(3),
        )

    def test_recursive_tags_end_tag_consistency(self):
        """Every aᵢ start/end reaches the //a//b machine under recursion;
        levels keep the stacks consistent even though unrelated tags in
        between were never delivered."""
        xml = "<a><z><a><z/><b/></a></z><b/></a>"
        self.check({"ab": "//a//b", "za": "//z//a", "only_z": "/a/z"}, xml)

    def test_wildcard_machines_see_everything(self):
        self.check(
            {"star": "//a//*", "narrow": "//a/b", "top": "/a/*"},
            "<a><b><c/></b><d/></a>",
        )

    def test_characters_only_reach_value_machines(self):
        xml = (
            "<lib><book><price>25</price><title>A</title></book>"
            "<book><price>60</price><title>B</title></book></lib>"
        )
        self.check(
            {"cheap": "//book[price < 30]/title", "titles": "//title"}, xml
        )


class TestMidStreamLifecycle:
    XML = "<r><a><b/></a><a><b/><b/></a><a/></r>"

    def test_mid_stream_add_matches_fresh_evaluation(self):
        """A query added at an event boundary sees exactly what a fresh
        dedicated stream started at that boundary would see."""
        events = list(parse_string(self.XML))
        for cut in range(len(events) + 1):
            engine = MultiQueryEngine({"early": "//a/b"})
            engine.feed_events(events[:cut])
            engine.add_query("late", "//a/b")
            engine.feed_events(events[cut:])

            fresh = XPathStream("//a/b").evaluate(iter(events[cut:]))
            assert engine.results()["late"] == fresh, cut
            # ...and the standing query is unaffected by the add
            assert engine.results()["early"] == XPathStream("//a/b").evaluate(
                iter(events)
            ), cut

    def test_mid_stream_add_never_joins_a_warm_machine(self):
        events = list(parse_string(self.XML))
        engine = MultiQueryEngine({"early": "//a/b"})
        engine.feed_events(events[:4])
        engine.add_query("late", "//a/b")  # same query, warm machine
        assert engine.unit_count() == 2

    def test_add_before_any_event_still_shares(self):
        engine = MultiQueryEngine({"one": "//a/b"})
        engine.add_query("two", "//a/b")
        assert engine.unit_count() == 1

    def test_mid_stream_remove_leaves_others_exact(self):
        events = list(parse_string(self.XML))
        engine = MultiQueryEngine({"keep": "//a/b", "drop": "//a"})
        engine.feed_events(events[:5])
        engine.remove_query("drop")
        engine.feed_events(events[5:])
        assert "drop" not in engine.names
        assert engine.results() == {
            "keep": XPathStream("//a/b").evaluate(iter(events))
        }

    def test_remove_one_sharer_keeps_the_machine_for_the_rest(self):
        events = list(parse_string(self.XML))
        engine = MultiQueryEngine({"one": "//a/b", "two": "//a/b"})
        engine.feed_events(events[:5])
        engine.remove_query("one")
        engine.feed_events(events[5:])
        assert engine.unit_count() == 1
        assert engine.results()["two"] == XPathStream("//a/b").evaluate(iter(events))
