"""Unit tests for the :mod:`repro.compile` subsystem internals.

Complements the differential corpus (``test_compile_equivalence.py``)
with white-box checks: NFA/subset-construction algebra, lazy-DFA cache
behaviour and counters, state-cap and misalignment fallbacks, engine
selection under ``compiled=True``, turbo-scanner slow-path handling,
and the ``repro_compile_*`` metrics families.
"""

import pytest

from repro.compile import (
    DEFAULT_STATE_CAP,
    DfaPathM,
    LazyDfa,
    compile_publisher,
    subset_step,
    trunk_steps,
)
from repro.core.branchm import BranchM
from repro.core.pathm import PathM
from repro.core.processor import XPathStream
from repro.core.twigm import TwigM
from repro.errors import UnsupportedQueryError
from repro.obs.metrics import MetricsRegistry
from repro.xpath.querytree import compile_query


# -- NFA / subset construction ----------------------------------------------


class TestNfa:
    def test_trunk_steps_shape(self):
        steps = trunk_steps(compile_query("//a/b//c"))
        assert [(s.name, s.descendant) for s in steps] == [
            ("a", True), ("b", False), ("c", True),
        ]

    def test_subset_step_advance_and_stay(self):
        query = compile_query("//a//b")
        steps = trunk_steps(query)
        accept = len(steps)
        s0 = frozenset([0])
        s_a = subset_step(steps, accept, s0, "a")
        assert 1 in s_a and 0 in s_a  # advanced + stayed (descendant root)
        s_ab = subset_step(steps, accept, s_a, "b")
        assert accept in s_ab
        # Unrelated tag from the initial state: '//' keeps position 0.
        assert subset_step(steps, accept, s0, "x") == s0

    def test_absorbing_accept_under_descendant_scope(self):
        query = compile_query("//a")
        steps = trunk_steps(query)
        s = subset_step(steps, 1, frozenset([0]), "a")
        assert 1 in s
        # Every descendant of a solution under '//a' is reached via the
        # stay-rule on position 0, so 'a' below 'a' accepts again.
        deeper = subset_step(steps, 1, s, "a")
        assert 1 in deeper

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


def _drive(machine, events=DOC_EVENTS):
    next_id = 0
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

    def test_state_cap_falls_back_to_pathm(self):
        dfa = DfaPathM("//a/b", state_cap=1)
        _drive(dfa)
        assert dfa.fell_back
        assert dfa._fallbacks == 1
        assert dfa.results == _drive(PathM("//a/b")).results

    def test_default_cap_is_generous(self):
        assert DfaPathM("//a/b")._state_cap == DEFAULT_STATE_CAP

    def test_mid_stream_attach_misalignment_falls_back(self):
        dfa = DfaPathM("//b")
        # First event arrives at depth 3: depth-implicit tracking is
        # unsound, the machine must delegate to PathM immediately.
        dfa.start_element("b", 3, 7)
        assert dfa.fell_back
        assert dfa.results == [7]

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
    def test_auto_compiled_prefers_dfa_for_paths(self):
        assert XPathStream("//a/b", compiled=True).engine_name == "dfa"

    def test_explicit_pathm_keeps_pathm_name(self):
        stream = XPathStream("//a/b", engine="pathm", compiled=True)
        assert stream.engine_name == "pathm"
        assert type(stream.push_handler()) is PathM

    def test_predicates_run_interpreted_twigm(self):
        stream = XPathStream("//a[b]/c", compiled=True)
        assert type(stream.push_handler()) is TwigM
        branch = XPathStream("/a[b]/c", compiled=True)
        assert type(branch.push_handler()) is BranchM

    def test_metrics_run_observed_engines_under_compiled(self):
        stream = XPathStream("//a[b]/c", compiled=True,
                             metrics=MetricsRegistry())
        assert type(stream.engine).__name__ == "ObsTwigM"
        assert stream.evaluate_push("<a><b/><c/></a>") == [3]
        assert stream.engine.counts.emitted == 1

    def test_engine_dfa_implies_compiled(self):
        stream = XPathStream("//a/b", engine="dfa")
        assert stream._compiled
        assert stream.snapshot()["engine"] == "dfa"


# -- turbo scanner slow paths ------------------------------------------------

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
            reference = XPathStream(query).evaluate(doc)
            assert XPathStream(query, compiled=True).evaluate_push(doc) == \
                reference

    @pytest.mark.parametrize("doc", TRICKY)
    def test_single_char_chunks_match(self, doc):
        stream = XPathStream("//a/b", compiled=True)
        for ch in doc:
            stream.feed_text_push(ch)
        assert stream.close() == XPathStream("//a/b").evaluate(doc)

    def test_duplicate_attribute_still_an_error(self):
        from repro.errors import XmlSyntaxError

        stream = XPathStream("//a/b", compiled=True)
        with pytest.raises(XmlSyntaxError):
            stream.evaluate_push("<r><a k='1' k='2'><b/></a></r>")

    def test_mismatched_end_tag_still_an_error(self):
        from repro.errors import XmlSyntaxError

        stream = XPathStream("//a/b", compiled=True)
        with pytest.raises(XmlSyntaxError):
            stream.evaluate_push("<r><a><b></a></b></r>")


# -- metrics publisher -------------------------------------------------------


class TestCompileMetrics:
    def test_dfa_families_populated(self):
        registry = MetricsRegistry()
        stream = XPathStream("//a/b", compiled=True, metrics=registry)
        stream.evaluate("<r><a><b/></a><a><b/></a></r>")
        rendered = registry.render_prometheus()
        for family in (
            "repro_compile_dfa_states",
            "repro_compile_dfa_transitions",
            "repro_compile_dfa_starts_total",
            "repro_compile_dfa_misses_total",
            "repro_compile_hit_ratio",
            "repro_compile_fallbacks_total",
        ):
            assert family in rendered

    def test_hit_ratio_improves_on_second_document(self):
        registry = MetricsRegistry()
        stream = XPathStream("//a/b", compiled=True, metrics=registry)
        doc = "<r>" + "<a><b/></a>" * 20 + "</r>"
        stream.evaluate(doc)
        publisher = compile_publisher(registry)
        publisher._collect()
        first = publisher._hit_ratio.get(engine="dfa")
        stream.reset()
        stream.evaluate(doc)
        publisher._collect()
        assert publisher._hit_ratio.get(engine="dfa") > first

    def test_fallback_counted(self):
        registry = MetricsRegistry()
        stream = XPathStream(
            "//*/b", compiled=True, state_cap=1, metrics=registry
        )
        stream.evaluate("<r><a><b/></a></r>")
        publisher = compile_publisher(registry)
        publisher._collect()
        assert publisher._fallbacks.get(engine="dfa") >= 1

    def test_publisher_is_per_registry_singleton(self):
        registry = MetricsRegistry()
        assert compile_publisher(registry) is compile_publisher(registry)

    def test_zero_cost_when_off(self):
        # Without a registry the engine must not import the obs layer.
        dfa = DfaPathM("//a/b")
        _drive(dfa)
        assert not hasattr(dfa, "registry")
