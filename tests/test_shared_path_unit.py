"""The multi-query engine's shared path unit.

Every predicate-free query without limits, tracker or lag probe becomes
a member of one :class:`~repro.multiq.registry.SharedPathUnit`: a single
lazy DFA over all their trunks (YFilter's shared automaton), routed on
the union of their alphabets, with predicate queries on their own
machines beside it.
"""

import json
import random

import pytest

from repro.baselines.navigational import NavigationalDomEngine
from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM
from repro.core.pathm import evaluate_pathm
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.errors import UnsupportedQueryError
from repro.multiq import MultiQueryEngine
from repro.multiq.registry import SharedPathUnit
from repro.stream.events import StartElement
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query

XML = (
    "<site>"
    "<people><person><name>Ana</name></person>"
    "<person><name>Bo</name></person></people>"
    "<items><item id='1'><name>vase</name><price>30</price></item>"
    "<item><name>map</name></item></items>"
    "</site>"
)

PATH_QUERIES = {
    "names": "//name",
    "people-names": "//person/name",
    "items": "//items//item",
    "rooted": "/site/people/person",
    "wild": "//items/*/name",
}

MIXED = {
    "names": "//name",
    "cheap": "//item[price = 30]/name",
    "with-id": "//item[@id]/name",
}


def dedicated(queries: dict) -> MultiQueryEngine:
    """The same queries, each on its own interpreted machine: a query
    under limits never joins the shared unit."""
    engine = MultiQueryEngine()
    for name, query in queries.items():
        engine.add_query(name, query, limits=ResourceLimits())
    return engine


def shared_unit(engine: MultiQueryEngine) -> SharedPathUnit:
    units = [u for u in engine._registry.units() if isinstance(u, SharedPathUnit)]
    assert len(units) == 1
    return units[0]


class TestSharedPathUnit:
    def test_agrees_with_individual_pathm_runs(self):
        events = list(parse_string(XML))
        shared = MultiQueryEngine(PATH_QUERIES).evaluate(iter(events))
        for name, query in PATH_QUERIES.items():
            assert shared[name] == evaluate_pathm(query, iter(events)), name

    def test_all_path_queries_share_one_unit(self):
        engine = MultiQueryEngine(PATH_QUERIES)
        assert engine.unit_count() == 1
        assert set(engine.engine_names().values()) == {"dfa"}
        engine.evaluate(XML)
        assert shared_unit(engine).engine.dfa_state_count >= 1

    def test_hybrid_routing(self):
        engine = MultiQueryEngine(MIXED)
        assert engine.engine_names() == {
            "names": "dfa", "cheap": "twigm", "with-id": "twigm",
        }

    def test_results_match_individual_runs(self):
        events = list(parse_string(XML))
        combined = MultiQueryEngine(MIXED).evaluate(iter(events))
        for name, query in MIXED.items():
            alone = XPathStream(query).evaluate(iter(events))
            assert sorted(combined[name]) == sorted(alone), name

    def test_callback_mode(self):
        seen = []
        engine = MultiQueryEngine(
            MIXED, on_match=lambda name, nid: seen.append(name)
        )
        engine.evaluate(XML)
        assert "names" in seen and "cheap" in seen

    def test_on_match_streams(self):
        seen = []
        engine = MultiQueryEngine(
            {"names": "//name"},
            on_match=lambda name, nid: seen.append((name, nid)),
        )
        engine.evaluate(parse_string(XML))
        assert engine.unit_count() == 1
        assert seen and all(name == "names" for name, _ in seen)
        assert [nid for _, nid in seen] == evaluate_pathm("//name", parse_string(XML))

    def test_incremental_text_feed(self):
        engine = MultiQueryEngine(MIXED)
        for index in range(0, len(XML), 13):
            engine.feed_text(XML[index:index + 13])
        assert engine.close() == dedicated(MIXED).evaluate(XML)

    def test_no_path_queries_still_works(self):
        engine = MultiQueryEngine({"cheap": "//item[price = 30]/name"})
        assert not any(isinstance(u, SharedPathUnit) for u in engine._registry.units())
        assert len(engine.evaluate(XML)["cheap"]) == 1

    def test_matches_on_recursive_data(self):
        xml = "<a><a><b/></a><b/></a>"
        engine = MultiQueryEngine({"ab": "//a//b", "aa": "//a/a"})
        assert engine.evaluate(xml) == {"ab": [3, 4], "aa": [2]}

    def test_prefix_sharing_bounds_states(self):
        """100 queries sharing structure need far fewer than 100x the
        states of one query — the YFilter effect."""
        single = MultiQueryEngine({"q": "//person/name"})
        single.evaluate(XML)
        lone_states = shared_unit(single).engine.dfa_state_count

        many_queries = {f"q{i}": "//person/name" for i in range(50)}
        many_queries.update({f"p{i}": "//items//item" for i in range(50)})
        shared = MultiQueryEngine(many_queries)
        shared.evaluate(XML)
        assert shared.unit_count() == 1
        assert shared_unit(shared).engine.dfa_state_count < 10 * lone_states

    def test_predicate_members_rejected(self):
        dfa = DfaPathM("//a")
        with pytest.raises(UnsupportedQueryError):
            dfa.add_member("//a[b]", CollectingSink())

    def test_limited_queries_keep_their_own_units(self):
        engine = MultiQueryEngine({"a": "//name", "b": "//item"})
        engine.add_query("limited", "//name", limits=ResourceLimits(max_depth=50))
        assert engine.unit_count() == 2
        assert engine.evaluate(XML)["limited"] == engine.results()["a"]

    def test_late_path_query_opens_a_cold_unit(self):
        cut = XML.index("<items>")
        engine = MultiQueryEngine(PATH_QUERIES)
        engine.feed_text(XML[:cut])
        engine.add_query("late", "//name")
        engine.add_query("late-too", "//item")
        assert engine.unit_count() == 2
        engine.remove_query("names")
        engine.feed_text(XML[cut:])
        got = engine.close()

        reference = dedicated(PATH_QUERIES)
        reference.feed_text(XML[:cut])
        reference.add_query("late", "//name", limits=ResourceLimits())
        reference.add_query("late-too", "//item", limits=ResourceLimits())
        reference.remove_query("names")
        reference.feed_text(XML[cut:])
        assert got == reference.close()
        assert len(got["late"]) == 2  # the two item names

    def test_removing_members_keeps_the_rest_exact(self):
        first, second = XML.index("<name>"), XML.index("<items>")
        reference = dedicated(PATH_QUERIES).evaluate(XML)
        engine = MultiQueryEngine(PATH_QUERIES)
        engine.feed_text(XML[:first])
        engine.remove_query("rooted")
        engine.feed_text(XML[first:second])
        engine.remove_query("wild")
        engine.feed_text(XML[second:])
        got = engine.close()
        for name in ("names", "people-names", "items"):
            assert got[name] == reference[name], name
        for name in list(got):
            engine.remove_query(name)
        assert engine.unit_count() == 0

    def test_path_fleet_shares_one_unit_while_a_callback_comes_and_goes(self):
        engine = MultiQueryEngine(PATH_QUERIES)
        assert engine.unit_count() == 1
        engine.add_query("called", "//price", on_match=lambda node_id: None)
        assert engine.unit_count() == 1
        engine.remove_query("called")
        assert engine.unit_count() == 1
        assert engine.evaluate(XML) == dedicated(PATH_QUERIES).evaluate(XML)

    def test_snapshot_holds_members_not_cache(self):
        cut = XML.index("<items>") + 10
        engine = MultiQueryEngine(PATH_QUERIES)
        engine.feed_text(XML[:cut])
        snap = json.loads(json.dumps(engine.snapshot()))
        (unit,) = snap["units"]
        assert unit["queries"] == list(PATH_QUERIES)
        assert unit["machine"]["members"] == list(PATH_QUERIES.values())
        assert "trans" not in json.dumps(unit["machine"])
        resumed = MultiQueryEngine.restore(snap)
        resumed.feed_text(XML[cut:])
        assert resumed.close() == dedicated(PATH_QUERIES).evaluate(XML)


def _wildcard_document(seed: int, depth: int = 10) -> str:
    rng = random.Random(seed)

    def element(level: int) -> str:
        tag = rng.choice("abcdefgh")
        fanout = rng.randint(1, 2) if level < depth else 0
        return f"<{tag}>{''.join(element(level + 1) for _ in range(fanout))}</{tag}>"

    return f"<r>{''.join(element(1) for _ in range(6))}</r>"


@pytest.mark.parametrize("seed", range(3))
def test_wildcard_fleet_clears_at_the_cap_and_stays_exact(seed):
    """Hostile fleet: '*'-chains over a deep document blow up the subset
    construction; the shared unit clears its cache at the cap, never
    holds more than the cap plus the deepest level so far plus one
    states, and still matches the oracle."""
    rng = random.Random(seed)
    fleet = {
        f"w{i}": f"//{rng.choice('abcdefgh')}/*/*/*/{rng.choice('abcdefgh')}"
        for i in range(24)
    }
    doc = _wildcard_document(seed)
    engine = MultiQueryEngine(fleet)
    dfa = shared_unit(engine).engine
    events = list(parse_string(doc))
    deepest = 0
    for event in events:
        engine.feed_events([event])
        if isinstance(event, StartElement):
            deepest = max(deepest, event.level)
        assert dfa.dfa_state_count <= DEFAULT_STATE_CAP + deepest + 1
    got = engine.close()
    assert dfa._clears >= 1
    oracle = NavigationalDomEngine()
    for name, query in fleet.items():
        expected = sorted(oracle.run(compile_query(query), iter(events)))
        assert sorted(got[name]) == expected, query
