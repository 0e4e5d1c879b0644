"""Unit tests for the :mod:`repro.compile` subsystem internals.

Complements the differential corpus (``test_compile_equivalence.py``)
with white-box checks: NFA/subset-construction algebra, lazy-DFA cache
behaviour and counters, cache clears at the state cap, engine
selection, lazy-DFA path queries over tricky markup, and the
``repro_compile_*`` metrics families.
"""

import pytest

from repro.compile import (
    DEFAULT_STATE_CAP,
    DfaPathM,
    LazyDfa,
    PathTrie,
    trunk_steps,
)
from repro.core.branchm import BranchM
from repro.core.pathm import PathM
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.twigm import TwigM
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.multiq import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.compile.nfa import GAP
from repro.xpath.querytree import compile_query


# -- NFA / subset construction ----------------------------------------------


class TestNfa:
    def test_trunk_steps_shape(self):
        steps = trunk_steps(compile_query("//a/b//c"))
        assert [(s.name, s.descendant) for s in steps] == [
            ("a", True), ("b", False), ("c", True),
        ]

    def test_trie_step_advance_and_stay(self):
        trie = PathTrie()
        accept = 1 << trie.add(trunk_steps(compile_query("//a//b")))
        s0 = trie.initial
        s_a = trie.step(s0, "a")
        # Advanced past a, and the descendant root's loop stayed.
        assert s_a & s0 & trie.loops and s_a != s0
        s_ab = trie.step(s_a, "b")
        assert s_ab & accept
        # Unrelated tag from the initial state: '//' keeps the loop.
        assert trie.step(s0, "x") == s0 & trie.loops
        assert trie.step(trie.step(s0, "x"), "a") == s_a

    def test_absorbing_accept_under_descendant_scope(self):
        trie = PathTrie()
        accept = 1 << trie.add(trunk_steps(compile_query("//a")))
        s = trie.step(trie.initial, "a")
        assert s & accept
        # Every descendant of a solution under '//a' is reached via the
        # loop of the empty prefix, so 'a' below 'a' accepts again.
        assert trie.step(s, "a") & accept

    def test_trie_shares_prefixes_and_admits_gaps_at_stars(self):
        trie = PathTrie()
        first = trie.add(trunk_steps(compile_query("//a/b")))
        second = trie.add(trunk_steps(compile_query("//a/*")))
        assert trie.add(trunk_steps(compile_query("//a/b"))) == first
        assert len(trie) == 5  # empty prefix, its loop, a, a/b, a/*
        s_a = trie.step(trie.initial, "a")
        assert trie.step(s_a, GAP) & (1 << second)
        assert not trie.step(s_a, GAP) & (1 << first)

    def test_lazy_dfa_counts_states_lazily(self):
        dfa = LazyDfa(compile_query("//a/b"))
        assert dfa.state_count == 1  # only the initial state exists
        state = dfa.step(dfa.initial, "a")
        dfa.step(state, "b")
        assert dfa.state_count >= 2
        assert dfa.transition_count >= 2

    def test_predicates_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            LazyDfa(compile_query("//a[b]/c"))


# -- DfaPathM ----------------------------------------------------------------

DOC_EVENTS = [
    # (tag, level) starts interleaved with ends, driving the machine raw.
    ("s", "r", 1), ("s", "a", 2), ("s", "b", 3), ("e", "b", 3),
    ("s", "c", 3), ("s", "b", 4), ("e", "b", 4), ("e", "c", 3),
    ("e", "a", 2), ("e", "r", 1),
]


def _drive(machine, events=DOC_EVENTS, next_id=0):
    for kind, tag, level in events:
        if kind == "s":
            machine.start_element(tag, level, next_id)
            next_id += 1
        else:
            machine.end_element(tag, level)
    return machine


class TestDfaPathM:
    def test_matches_interpreted_pathm(self):
        for query in ("//a/b", "//b", "/r//b", "//a//b", "//*/b"):
            assert _drive(DfaPathM(query)).results == \
                _drive(PathM(query)).results

    def test_transition_cache_hit_ratio(self):
        dfa = _drive(DfaPathM("//a/b"))
        # Second identical document: all transitions cached.
        misses_after_first = dfa._misses
        dfa.reset()
        _drive(dfa)
        assert dfa._misses == misses_after_first
        assert dfa._starts > dfa._misses

    @pytest.mark.parametrize("query", ["//a/b", "//*/b", "//a//*", "/r/*/b"])
    @pytest.mark.parametrize("cap", [1, 2])
    def test_state_cap_clears_the_cache(self, query, cap):
        # Driven one event at a time: the live states never pass the cap
        # plus the deepest level opened so far (R) plus one.
        dfa = DfaPathM(query, state_cap=cap)
        deepest = 0
        for index, (_kind, _tag, level) in enumerate(DOC_EVENTS):
            starts = sum(event[0] == "s" for event in DOC_EVENTS[:index])
            _drive(dfa, DOC_EVENTS[index:index + 1], starts)
            deepest = max(deepest, level)
            assert dfa.dfa_state_count <= cap + deepest + 1
        assert dfa._clears >= 1
        assert dfa.results == _drive(PathM(query)).results

    def test_member_added_after_a_clear_evaluates_from_the_start(self):
        # After <r><a><b/><c>, with the cache cleared on the way.
        cut = 5
        dfa = DfaPathM("//a/b", state_cap=1)
        _drive(dfa, DOC_EVENTS[:cut])
        assert dfa._clears >= 1
        sinks = {query: CollectingSink() for query in ("//c/b", "//a//b", "/r/*/*/b")}
        for query, sink in sinks.items():
            dfa.add_member(query, sink)
        first = sum(event[0] == "s" for event in DOC_EVENTS[:cut])
        _drive(dfa, DOC_EVENTS[cut:], first)
        for query, sink in sinks.items():
            expected = [node for node in _drive(PathM(query)).results if node >= first]
            assert expected, query
            assert sink.results == expected, query

    def test_default_cap_is_generous(self):
        assert DfaPathM("//a/b")._state_cap == DEFAULT_STATE_CAP

    @pytest.mark.parametrize("query", [
        "//b", "/r//b", "//a/b", "//*/b", "//a/*", "//*", "/*/*/b", "//a//*/b",
    ])
    def test_gapped_first_event_evaluates_like_pathm(self, query):
        # The first event arrives at depth 3 (a machine started
        # mid-document): the unseen ancestors are gaps, as they are to
        # a cold PathM's level arithmetic.
        events = [
            ("s", "b", 3), ("s", "a", 4), ("s", "b", 5), ("e", "b", 5),
            ("e", "a", 4), ("e", "b", 3), ("s", "a", 3), ("s", "x", 4),
            ("s", "b", 5), ("e", "b", 5), ("e", "x", 4), ("e", "a", 3),
            ("e", "c", 2), ("s", "b", 2), ("e", "b", 2), ("e", "r", 1),
        ]
        dfa = _drive(DfaPathM(query), events)
        assert not dfa._clears
        assert dfa.results == _drive(PathM(query), events).results

    def test_gapped_delivery_steps_only_named_tags(self):
        # Elements outside the alphabet are never delivered: '*' steps
        # admit the gaps they leave, named steps do not.
        events = [("s", "a", 2), ("s", "b", 4), ("e", "b", 4), ("e", "a", 2),
                  ("s", "b", 3), ("e", "b", 3)]
        for query, expected in (("//a/*/b", [1]), ("//a/b", []), ("/*/a//b", [1])):
            assert _drive(DfaPathM(query), events).results == expected, query

    def test_predicates_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            DfaPathM("//a[b]")

    def test_snapshot_restores_nfa_config_not_cache(self):
        dfa = DfaPathM("//a//b")
        dfa.start_element("r", 1, 0)
        dfa.start_element("a", 2, 1)
        snap = dfa.snapshot_state()
        assert snap["dfa"]["tags"] == ["r", "a"]
        fresh = DfaPathM("//a//b")
        fresh.restore_state(snap)
        assert fresh.dfa_transition_count == 0  # cache rebuilt lazily
        fresh.start_element("b", 3, 2)
        assert fresh.results == [2]


# -- engine selection through XPathStream ------------------------------------


class TestSelection:
    @pytest.mark.parametrize("query", ["//a/b", "/a", "//*", "/a/*//b"])
    def test_paths_run_the_dfa(self, query):
        assert XPathStream(query).engine_name == "dfa"
        # ``compiled`` is an ignored keyword.
        assert type(XPathStream(query, compiled=True).engine) is DfaPathM
        assert type(XPathStream(query, compiled=False).engine) is DfaPathM

    def test_explicit_pathm_keeps_pathm_name(self):
        stream = XPathStream("//a/b", engine="pathm")
        assert stream.engine_name == "pathm"
        assert type(stream.push_handler()) is PathM

    def test_predicates_run_twigm_or_branchm(self):
        stream = XPathStream("//a[b]/c")
        assert type(stream.push_handler()) is TwigM
        branch = XPathStream("/a[b]/c")
        assert type(branch.push_handler()) is BranchM

    def test_metrics_run_the_plain_engines(self):
        registry = MetricsRegistry()
        stream = XPathStream("//a[b]/c", metrics=registry)
        assert type(stream.engine) is TwigM
        assert stream.evaluate("<a><b/><c/></a>") == [3]
        registry.collect()
        emitted = registry.get("repro_machine_emitted_total")
        assert emitted.get(engine="twigm") == 1

    def test_snapshot_names_the_engine_and_no_compiled_flag(self):
        snapshot = XPathStream("//a/b", engine="dfa").snapshot()
        assert snapshot["engine"] == "dfa"
        assert "compiled" not in snapshot


# -- lazy-DFA path queries over tricky markup --------------------------------

TRICKY = (
    "<?xml version='1.0'?><r><a><b>x</b></a></r>",
    "<r><!-- c --><a><![CDATA[<b>]]><b/></a></r>",
    "<r><a>one &amp; two<b>t</b></a></r>",
    "<r><a k='1' m=\"2\"><b></b></a></r>",
    "<r>\n  <a>\n    <b>leaf</b>\n  </a>\n</r>",
    "<r><a><b>t1</b><b>t2</b><b/></a></r>",
)


class TestTurboScanner:
    @pytest.mark.parametrize("doc", TRICKY)
    def test_tricky_markup_matches_reference(self, doc):
        for query in ("//a/b", "//b", "//a//b"):
            reference = XPathStream(query, engine="pathm").evaluate(doc)
            assert XPathStream(query).evaluate(doc) == reference

    @pytest.mark.parametrize("doc", TRICKY)
    def test_single_char_chunks_match(self, doc):
        stream = XPathStream("//a/b")
        for ch in doc:
            stream.feed_text(ch)
        assert stream.close() == XPathStream("//a/b", engine="pathm").evaluate(doc)

    def test_duplicate_attribute_still_an_error(self):
        from repro.errors import XmlSyntaxError

        stream = XPathStream("//a/b")
        with pytest.raises(XmlSyntaxError):
            stream.evaluate("<r><a k='1' k='2'><b/></a></r>")

    def test_mismatched_end_tag_still_an_error(self):
        from repro.errors import XmlSyntaxError

        stream = XPathStream("//a/b")
        with pytest.raises(XmlSyntaxError):
            stream.evaluate("<r><a><b></a></b></r>")


# -- metrics publisher -------------------------------------------------------


class TestCompileMetrics:
    def test_dfa_families_populated(self):
        registry = MetricsRegistry()
        stream = XPathStream("//a/b", metrics=registry)
        stream.evaluate("<r><a><b/></a><a><b/></a></r>")
        rendered = registry.render_prometheus()
        for family in (
            "repro_compile_dfa_states",
            "repro_compile_dfa_transitions",
            "repro_compile_dfa_starts_total",
            "repro_compile_dfa_misses_total",
            "repro_compile_hit_ratio",
            "repro_compile_dfa_clears_total",
        ):
            assert family in rendered

    def test_hit_ratio_improves_on_second_document(self):
        registry = MetricsRegistry()
        stream = XPathStream("//a/b", metrics=registry)
        doc = "<r>" + "<a><b/></a>" * 20 + "</r>"
        stream.evaluate(doc)
        registry.collect()
        ratio = registry.get("repro_compile_hit_ratio")
        first = ratio.get(engine="dfa")
        stream.reset()
        stream.evaluate(doc)
        registry.collect()
        assert ratio.get(engine="dfa") > first

    def test_clears_counted(self):
        registry = MetricsRegistry()
        stream = XPathStream("//*/b", state_cap=1, metrics=registry)
        stream.evaluate("<r><a><b/></a></r>")
        registry.collect()
        clears = registry.get("repro_compile_dfa_clears_total")
        assert clears.get(engine="dfa") >= 1

    def test_retired_fallbacks_of_earlier_captures_are_dropped(self):
        # Earlier releases retired the PathM swaps of dropped DFA units.
        engine = MultiQueryEngine({"p": "//a/b"})
        engine.feed_text("<r><a>")
        snap = engine.snapshot()
        snap["stats"]["retired"] = {"dfa": {"dfa_starts": 3, "dfa_fallbacks": 1}}
        registry = MetricsRegistry()
        resumed = MultiQueryEngine.restore(snap, metrics=registry)
        resumed.feed_text("<b/></a></r>")
        assert resumed.close() == {"p": [3]}
        registry.collect()
        starts = resumed.registration("p").unit.engine._starts
        assert registry.get("repro_compile_dfa_starts_total").get(engine="dfa") == 3 + starts
        assert "repro_compile_fallbacks_total" not in registry.render_prometheus()

    def test_retired_figures_outside_the_catalogue_are_rejected(self):
        # A figure no metric family publishes would break the next scrape.
        engine = MultiQueryEngine({"p": "//a/b"})
        engine.feed_text("<r><a>")
        snap = engine.snapshot()
        snap["stats"]["retired"] = {"dfa": {"bogus": 1}}
        with pytest.raises(CheckpointError, match="bogus"):
            MultiQueryEngine.restore(snap, metrics=MetricsRegistry())

    def test_streams_sharing_a_registry_add_up(self):
        registry = MetricsRegistry()
        doc = "<r><a><b/></a></r>"
        for _ in range(2):
            XPathStream("//a/b", metrics=registry).evaluate(doc)
        registry.collect()
        starts = registry.get("repro_compile_dfa_starts_total")
        assert starts.get(engine="dfa") == 6

    def test_zero_cost_when_off(self):
        # Without a registry the engine must not import the obs layer.
        dfa = DfaPathM("//a/b")
        _drive(dfa)
        assert not hasattr(dfa, "registry")
