"""Demand-gated multiq dispatch ≡ one :class:`XPathStream` per query.

The router delivers an event to a PathM/TwigM unit only while the unit's
demand gate (a live stack of its machine — see
:mod:`repro.multiq.router`) is open.  Gating must never change a result,
so every case here compares the routed engine against a dedicated
stream per query, across:

* queries: seeded draws from :func:`repro.bench.multiq.multiq_workload`
  and the edge shapes of the gate argument — a root label reused below
  the root (``//a//a``), a wildcard below it (``//a//*``), an anchored
  root (``/r//a``), a value test beside a descendant return
  (``//a[b = '1']//c``) and two value-tested nodes (``//a[b = '1'][c =
  'x']``, which falls back to the root gate for text);
* documents: seeded recursive chain documents and tiny XMark;
* modes: chunked text, reference events, earliest emission, observed
  machines and every query on its own unfiltered machine;
* lifecycle: snapshot/restore at every event cut, ``attach_warm``,
  mid-stream add/remove and ``reset()`` — the gates alias the engines'
  live stacks, so every path that refills a stack must keep them live;
* the open-label index: exact ``gate_tests`` counts, a label registered
  inside an open element of it, resumed dispatchers (all labels open
  until the document element closes) and hostile label sets against
  the view-memo bound.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bench.hotpath import reference_events
from repro.bench.multiq import multiq_workload
from repro.core.processor import XPathStream
from repro.datasets.xmark import xmark_events
from repro.multiq import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.stream.recovery import ResourceLimits
from repro.stream.writer import events_to_string

from tests.conftest import chain_xml

EDGE_QUERIES = {
    "reuse": "//a//a",
    "star": "//a//*",
    "anchored": "/r//a",
    "pred_desc": "//a[b = '1']//c",
    "two_values": "//a[b = '1'][c = 'x']",
}

CHAIN_QUERIES = {
    **EDGE_QUERIES,
    "reuse_twin": "//a//a",  # shares the "reuse" machine
    "figure1": "//a[d]//b[e]//c",
    "child": "//a/b",
    "branchm": "/r/a[b]/c",  # BranchM: ungated
    "value_b": "//b[. = '1']",
    "leaf": "//c",
    "star_root": "//*/c",  # the * folds into the edge: the machine root is c
    "star_root_value": "//*[c = 'x']",
}


def chain_document(seed: int, depth: int = 7) -> str:
    """A seeded recursive document under ``<r>``: ``a``/``b`` elements
    nest with their labels reused at every depth, with ``b``/``c``
    value leaves (``1``, ``x``, ``2``) and stray text in between."""
    rng = random.Random(seed)

    def element(level: int) -> str:
        tag = rng.choice("aab")
        parts = [f"<{tag}>"]
        for _ in range(rng.randrange(1, 4)):
            roll = rng.random()
            if roll < 0.45 and level < depth:
                parts.append(element(level + 1))
            elif roll < 0.75:
                leaf = rng.choice("bc")
                parts.append(f"<{leaf}>{rng.choice('1x2')}</{leaf}>")
            elif roll < 0.9:
                parts.append(rng.choice("1x"))
            else:
                parts.append(rng.choice(("<c/>", "<d/>", "<e/>")))
        parts.append(f"</{tag}>")
        return "".join(parts)

    return "<r>" + "".join(element(2) for _ in range(3)) + "</r>"


def xmark_text(scale: float) -> str:
    return events_to_string(xmark_events(scale))


#: (label, document, queries) cases of the differential.
CORPORA = [
    ("chain-figure1", chain_xml(4), CHAIN_QUERIES),
    *[(f"chain-{seed}", chain_document(seed), CHAIN_QUERIES) for seed in (1, 2, 3)],
    *[
        (f"xmark-{seed}", xmark_text(0.2), {**multiq_workload(60, seed), **EDGE_QUERIES})
        for seed in (1, 2)
    ],
]
CORPUS_IDS = [label for label, _doc, _queries in CORPORA]


def oracle(queries: dict[str, str], text: str, **options) -> dict[str, list[int]]:
    """One dedicated stream per query."""
    return {
        name: XPathStream(query, **options).evaluate(text)
        for name, query in queries.items()
    }


def feed_chunks(engine: MultiQueryEngine, text: str, size: int) -> dict:
    for start in range(0, len(text), size):
        engine.feed_text(text[start:start + size])
    return engine.close()


@pytest.mark.parametrize("label, text, queries", CORPORA, ids=CORPUS_IDS)
class TestGatedEquivalence:
    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_feed_text_chunks(self, label, text, queries, size):
        engine = MultiQueryEngine(queries)
        assert feed_chunks(engine, text, size) == oracle(queries, text)

    def test_feed_events(self, label, text, queries):
        engine = MultiQueryEngine(queries)
        engine.feed_events(reference_events(text))
        assert engine.results() == oracle(queries, text)

    def test_earliest_emission(self, label, text, queries):
        engine = MultiQueryEngine()
        for name, query in queries.items():
            engine.add_query(name, query, emission="earliest")
        assert engine.evaluate(text) == oracle(queries, text, emission="earliest")

    def test_observed_machines(self, label, text, queries):
        engine = MultiQueryEngine(queries, metrics=MetricsRegistry())
        assert engine.evaluate(text) == oracle(queries, text)

    def test_unfiltered_machines(self, label, text, queries):
        """Every query on its own machine, fed every event (limits keep
        a query off the shared path unit and the router's filter)."""
        engine = MultiQueryEngine()
        for name, query in queries.items():
            engine.add_query(name, query, limits=ResourceLimits())
        assert engine.evaluate(text) == oracle(queries, text)

    def test_one_dispatch_loop(self, label, text, queries):
        """Events and text run the same gated loop: same deliveries."""
        by_text = MultiQueryEngine(queries)
        by_text.evaluate(text)
        by_events = MultiQueryEngine(queries)
        by_events.feed_events(reference_events(text))
        assert by_events.dispatch_stats() == by_text.dispatch_stats()
        stats = by_text.dispatch_stats()
        assert stats.machine_events_dispatched < stats.machine_events_broadcast


SMALL_TEXT = chain_document(11, depth=4)
SMALL_EVENTS = reference_events(SMALL_TEXT)


def test_small_document_is_recursive_enough():
    assert 40 < len(SMALL_EVENTS) < 200
    assert oracle(EDGE_QUERIES, SMALL_TEXT)["reuse"]


class TestLifecycle:
    """Gates alias live stacks through every state-refilling path."""

    def engine(self) -> MultiQueryEngine:
        engine = MultiQueryEngine(CHAIN_QUERIES)
        engine.add_query("early", "//a[b = '1']//c", emission="earliest")
        return engine

    def expected(self) -> dict[str, list[int]]:
        expected = oracle(CHAIN_QUERIES, SMALL_TEXT)
        expected["early"] = XPathStream(
            "//a[b = '1']//c", emission="earliest"
        ).evaluate(SMALL_TEXT)
        return expected

    def straight(self) -> MultiQueryEngine:
        engine = self.engine()
        engine.feed_events(SMALL_EVENTS)
        return engine

    def test_snapshot_restore_at_every_event_cut(self):
        expected = self.expected()
        stats = self.straight().dispatch_stats()
        for cut in range(len(SMALL_EVENTS) + 1):
            first = self.engine()
            first.feed_events(SMALL_EVENTS[:cut])
            blob = json.loads(json.dumps(first.snapshot()))
            resumed = MultiQueryEngine.restore(blob)
            resumed.feed_events(SMALL_EVENTS[cut:])
            assert resumed.results() == expected, cut
            assert resumed.dispatch_stats() == stats, cut

    def test_attach_warm_at_every_event_cut(self):
        late = "//a[b = '1'][c = 'x']"
        expected = XPathStream(late).evaluate(SMALL_TEXT)
        for cut in range(0, len(SMALL_EVENTS) + 1, 3):
            scratch = MultiQueryEngine({"late": late})
            scratch.feed_events(SMALL_EVENTS[:cut])
            (unit,) = scratch.snapshot()["units"]
            live = MultiQueryEngine({"keep": "//a//a"})
            live.feed_events(SMALL_EVENTS[:cut])
            live.attach_warm("late", late, machine_state=unit["machine"],
                             sink_state=unit["sinks"])
            live.feed_events(SMALL_EVENTS[cut:])
            assert live.results()["late"] == expected, cut
            assert live.results()["keep"] == XPathStream("//a//a").evaluate(
                SMALL_TEXT
            ), cut

    def test_mid_stream_add_and_remove(self):
        for cut in range(len(SMALL_EVENTS) + 1):
            engine = MultiQueryEngine({"drop": "//a//*", "keep": "//a//a"})
            engine.feed_events(SMALL_EVENTS[:cut])
            engine.remove_query("drop")
            for name, query in EDGE_QUERIES.items():
                engine.add_query(f"late-{name}", query)
            engine.feed_events(SMALL_EVENTS[cut:])
            results = engine.results()
            assert results["keep"] == XPathStream("//a//a").evaluate(SMALL_TEXT)
            for name, query in EDGE_QUERIES.items():
                fresh = XPathStream(query).evaluate(iter(SMALL_EVENTS[cut:]))
                assert results[f"late-{name}"] == fresh, (cut, name)

    def test_reset_between_documents(self):
        engine = self.engine()
        expected = self.expected()
        other = chain_document(12, depth=4)
        for _ in range(2):
            assert engine.evaluate(SMALL_TEXT) == expected
            engine.reset()
            engine.evaluate(other)
            engine.reset()
        assert engine.evaluate(SMALL_TEXT) == expected

    def test_gates_are_the_live_stacks(self):
        engine = MultiQueryEngine.restore(self.straight().snapshot())
        engine.reset()
        router = engine._router

        def route(routes, name):
            unit = engine.registration(name).unit
            (found,) = [r for r in routes if r[2] is unit]
            return found[0], found[1], unit.engine

        start, end, machine = route(router.routes_for_tag("a"), "pred_desc")
        assert start is None and end is machine.root_stack
        start, end, machine = route(router.routes_for_tag("b"), "two_values")
        assert start is end is machine.root_stack
        # Path queries share one lazy DFA, routed ungated on its alphabet.
        start, end, _ = route(router.routes_for_tag("a"), "reuse")
        assert start is end is None
        gate, _, machine = route(router.text_routes(), "two_values")
        assert gate is machine.root_stack
        gate, _, machine = route(router.text_routes(), "pred_desc")
        (b_node,) = machine.machine.value_nodes
        assert b_node.label == "b" and gate is machine.stack_of(b_node)
        start, end, _ = route(router.routes_for_tag("a"), "branchm")
        assert start is end is None

    def test_gated_out_unit_stays_virgin_and_shares(self):
        """A unit no event has reached yet has a fresh machine's (empty)
        stacks, so a late twin may still join it — and both see the
        rest of the stream exactly as fresh streams would."""
        text = "<r><b/><c/><a><b/></a><b/></r>"
        events = reference_events(text)
        engine = MultiQueryEngine({"one": "//a[.//b]"})
        engine.feed_events(events[:5])  # <r><b/><c/>: none opens //a
        engine.add_query("two", "//a[.//b]")
        assert engine.unit_count() == 1
        engine.feed_events(events[5:])
        assert engine.results() == {"one": [4], "two": [4]}
        engine.add_query("three", "//a[.//b]")  # the unit is warm now
        assert engine.unit_count() == 2


def test_exact_dispatch_count():
    """``//a[.//b]`` over ``<r><b/><a><b/></a><b/></r>``: only ``<a>``
    opens the gate, so exactly its start, the inner ``<b/>`` pair and
    ``</a>`` reach the machine.  The path query ``//a//b`` rides the
    shared lazy DFA, which is routed on its alphabet without a gate:
    every ``a`` and ``b`` event reaches it, ``<r>`` and ``</r>`` do not."""
    engine = MultiQueryEngine({"q": "//a[.//b]"})
    engine.evaluate("<r><b/><a><b/></a><b/></r>")
    stats = engine.dispatch_stats()
    assert (stats.events, stats.machine_events_dispatched) == (10, 4)
    assert engine.results() == {"q": [3]}
    engine = MultiQueryEngine({"q": "//a//b"})
    engine.evaluate("<r><b/><a><b/></a><b/></r>")
    stats = engine.dispatch_stats()
    assert (stats.events, stats.machine_events_dispatched) == (10, 8)
    assert engine.results() == {"q": [4]}


# -- the open-label index -----------------------------------------------------

#: ``//a[.//b]`` gates on ``a``; ``//b[. = '1']`` gates tags and text on ``b``.
INDEX_QUERIES = {"ab": "//a[.//b]", "b1": "//b[. = '1']"}
INDEX_TEXT = "<r><a>x<b/><a><b>1</b></a></a><b/></r>"


def test_exact_gate_test_count():
    """Only routes whose gate label has an open element are visited.

    Per event (``a`` route of ``ab``; ``b`` routes of ``ab`` then
    ``b1``; the text route of ``b1``): ``<r>`` 0, ``<a>`` 1, ``x`` 0
    (no ``b`` open), ``<b>`` 2, ``</b>`` 2, ``<a>`` 1, ``<b>`` 2, ``1``
    1, ``</b>`` 2, ``</a>`` 1, ``</a>`` 1, ``<b>`` 1 (no ``a`` open),
    ``</b>`` 1, ``</r>`` 0 — 15 visits, every one a delivery, where
    visiting every route of the tag would make 18.
    """
    engine = MultiQueryEngine(INDEX_QUERIES)
    engine.feed_events(reference_events(INDEX_TEXT))
    stats = engine.dispatch_stats()
    assert (stats.events, stats.machine_events_dispatched, stats.gate_tests) == (14, 15, 15)
    assert stats.to_dict()["gate_tests"] == 15
    assert engine.results() == oracle(INDEX_QUERIES, INDEX_TEXT)
    engine.reset()
    assert engine.dispatch_stats().gate_tests == 0
    # A limited unit takes every event unrouted: delivered, never tested.
    engine.add_query("limited", "//a", limits=ResourceLimits(max_depth=50))
    engine.feed_events(reference_events(INDEX_TEXT))
    stats = engine.dispatch_stats()
    assert (stats.machine_events_dispatched, stats.gate_tests) == (15 + 14, 15)


@pytest.mark.parametrize("late", ["//a[.//b]", "//a//b"])
def test_cold_label_added_inside_an_open_element(late):
    """``//a[.//b]`` registered inside an open ``<a>`` counts ``a`` from
    zero; the outer ``</a>`` closes after every counted ``a`` and
    clamps at zero, so the ``<a>`` after it opens the gate again.  The
    path query ``//a//b`` opens a cold shared DFA unit there, which
    treats the ancestors it never saw as gaps."""
    text = "<r><a><a><b/></a><b/></a><a><b/></a><b/></r>"
    events = reference_events(text)
    for cut in range(len(events) + 1):
        engine = MultiQueryEngine({"keep": "//b"})
        engine.feed_events(events[:cut])
        engine.add_query("late", late)
        engine.feed_events(events[cut:])
        fresh = XPathStream(late).evaluate(iter(events[cut:]))
        assert engine.results()["late"] == fresh, cut
    engine = MultiQueryEngine({"keep": "//b"})
    engine.feed_events(events[:2])  # <r><a>
    engine.add_query("late", "//a//b")
    engine.feed_events(events[2:])
    assert engine.results()["late"] == [4, 7]


def gate_tests_of(engine: MultiQueryEngine, events) -> int:
    before = engine.dispatch_stats().gate_tests
    engine.feed_events(events)
    return engine.dispatch_stats().gate_tests - before


class TestIndexAfterResume:
    """A dispatcher resumed from a text-fed capture, or from an event-fed
    one carrying its open gate labels, is exact at once; one resumed
    from an event-fed capture without them (older releases) visits every
    gated route until the document element closes, then the index is
    exact again."""

    def fresh_gate_tests(self, queries) -> int:
        return gate_tests_of(MultiQueryEngine(queries), SMALL_EVENTS)

    @pytest.mark.parametrize("size", [1, 7])
    def test_text_fed_restore_is_exact_at_every_chunk_cut(self, size):
        expected = oracle(CHAIN_QUERIES, SMALL_TEXT)
        chunks = [SMALL_TEXT[i:i + size] for i in range(0, len(SMALL_TEXT), size)]
        whole = MultiQueryEngine(CHAIN_QUERIES)
        assert whole.evaluate(SMALL_TEXT) == expected
        exact = whole.dispatch_stats().gate_tests
        for cut in range(len(chunks) + 1):
            first = MultiQueryEngine(CHAIN_QUERIES)
            for chunk in chunks[:cut]:
                first.feed_text(chunk)
            blob = json.loads(json.dumps(first.snapshot()))
            resumed = MultiQueryEngine.restore(blob)
            for chunk in chunks[cut:]:
                resumed.feed_text(chunk)
            assert resumed.close() == expected, cut
            tests = (first.dispatch_stats().gate_tests
                     + resumed.dispatch_stats().gate_tests)
            assert tests == exact, cut
            # A second document needs no reset to stay exact.
            assert gate_tests_of(resumed, SMALL_EVENTS) == exact, cut

    def test_text_fed_attach_warm_is_exact(self):
        late = "//a[b = '1'][c = 'x']"
        queries = {"keep": "//a//a", "late": late}
        expected = oracle(queries, SMALL_TEXT)
        for cut in range(0, len(SMALL_TEXT) + 1, 5):
            scratch = MultiQueryEngine({"late": late})
            scratch.feed_text(SMALL_TEXT[:cut])
            (unit,) = scratch.snapshot()["units"]
            live = MultiQueryEngine({"keep": "//a//a"})
            live.feed_text(SMALL_TEXT[:cut])
            before = live.dispatch_stats().gate_tests
            live.attach_warm("late", late, machine_state=unit["machine"],
                             sink_state=unit["sinks"])
            live.feed_text(SMALL_TEXT[cut:])
            assert live.close() == expected, cut
            after = live.dispatch_stats().gate_tests - before
            # From the splice on, the live engine visits exactly the
            # routes an engine holding both queries from the start does.
            tail = MultiQueryEngine(queries)
            tail.feed_text(SMALL_TEXT[:cut])
            start = tail.dispatch_stats().gate_tests
            tail.feed_text(SMALL_TEXT[cut:])
            tail.close()
            assert after == tail.dispatch_stats().gate_tests - start, cut

    def test_event_fed_restore_is_exact_at_every_event_cut(self):
        expected = oracle(CHAIN_QUERIES, SMALL_TEXT)
        exact = self.fresh_gate_tests(CHAIN_QUERIES)
        for cut in range(len(SMALL_EVENTS) + 1):
            first = MultiQueryEngine(CHAIN_QUERIES)
            first.feed_events(SMALL_EVENTS[:cut])
            blob = json.loads(json.dumps(first.snapshot()))
            assert ("open_labels" in blob) == (cut > 0), cut
            resumed = MultiQueryEngine.restore(blob)
            resumed.feed_events(SMALL_EVENTS[cut:])
            assert resumed.results() == expected, cut
            tests = (first.dispatch_stats().gate_tests
                     + resumed.dispatch_stats().gate_tests)
            assert tests == exact, cut
            # A capture of the resumed engine carries exact counts on.
            assert "open_labels" in resumed.snapshot() or cut == len(SMALL_EVENTS)

    def test_restore_at_every_event_cut(self):
        expected = oracle(CHAIN_QUERIES, SMALL_TEXT)
        exact = self.fresh_gate_tests(CHAIN_QUERIES)
        for cut in range(len(SMALL_EVENTS) + 1):
            first = MultiQueryEngine(CHAIN_QUERIES)
            first.feed_events(SMALL_EVENTS[:cut])
            blob = json.loads(json.dumps(first.snapshot()))
            blob.pop("open_labels", None)  # as older releases wrote it
            resumed = MultiQueryEngine.restore(blob)
            assert resumed.dispatch_stats().gate_tests == 0
            resumed.feed_events(SMALL_EVENTS[cut:])
            assert resumed.results() == expected, cut
            if cut < len(SMALL_EVENTS):
                # The resumed engine saw the document element close, so
                # a second document is exact without a reset.
                assert gate_tests_of(resumed, SMALL_EVENTS) == exact, cut
            resumed.reset()
            assert resumed.evaluate(SMALL_TEXT) == expected, cut
            assert resumed.dispatch_stats().gate_tests == exact, cut

    def test_restore_then_reset_mid_document(self):
        exact = self.fresh_gate_tests(CHAIN_QUERIES)
        first = MultiQueryEngine(CHAIN_QUERIES)
        first.feed_events(SMALL_EVENTS[:len(SMALL_EVENTS) // 2])
        blob = first.snapshot()
        del blob["open_labels"]
        resumed = MultiQueryEngine.restore(blob)
        resumed.feed_events(SMALL_EVENTS[len(SMALL_EVENTS) // 2:-3])
        resumed.reset()
        assert gate_tests_of(resumed, SMALL_EVENTS) == exact

    def test_attach_warm_at_every_event_cut(self):
        late = "//a[b = '1'][c = 'x']"
        queries = {"keep": "//a//a", "late": late}
        expected = oracle(queries, SMALL_TEXT)
        exact = self.fresh_gate_tests(queries)
        for cut in range(len(SMALL_EVENTS) + 1):
            scratch = MultiQueryEngine({"late": late})
            scratch.feed_events(SMALL_EVENTS[:cut])
            (unit,) = scratch.snapshot()["units"]
            live = MultiQueryEngine({"keep": "//a//a"})
            live.feed_events(SMALL_EVENTS[:cut])
            live.attach_warm("late", late, machine_state=unit["machine"],
                             sink_state=unit["sinks"])
            live.feed_events(SMALL_EVENTS[cut:])
            assert live.results() == expected, cut
            live.reset()
            assert live.evaluate(SMALL_TEXT) == expected, cut
            assert live.dispatch_stats().gate_tests == exact, cut


def hostile_document(seed: int, labels: int, steps: int, depth: int) -> str:
    """A seeded random walk up to ``depth`` levels over ``labels`` tags,
    each element opening with a value leaf: the set of open labels takes
    a new shape at almost every step."""
    rng = random.Random(seed)
    parts, stack = ["<r>"], []
    for _ in range(steps):
        if stack and (len(stack) >= depth or rng.random() < 0.3):
            parts.append(f"</{stack.pop()}>")
        else:
            tag, leaf = f"t{rng.randrange(labels)}", f"t{rng.randrange(labels)}"
            stack.append(tag)
            parts.append(f"<{tag}><{leaf}>{rng.choice('xy')}</{leaf}>")
    parts.extend(f"</{tag}>" for tag in reversed(stack))
    parts.append("</r>")
    return "".join(parts)


def test_hostile_label_sets_stay_within_the_view_bound(monkeypatch):
    """Many distinct open-label sets under a small ``cache_limit``: the
    view memo stops at the bound, later views are built per event, and
    results still equal one stream per query."""
    from repro.multiq import router as router_module

    monkeypatch.setattr(router_module, "DEFAULT_CACHE_LIMIT", 6)
    labels = 32
    text = hostile_document(5, labels, steps=3000, depth=300)
    queries = {}
    for i in range(labels):
        queries[f"desc{i}"] = f"//t{i}//t{(i + 1) % labels}"
        queries[f"value{i}"] = f"//t{i}[t{(i + 5) % labels} = 'x']"
    engine = MultiQueryEngine(queries)
    assert feed_chunks(engine, text, 512) == oracle(queries, text)
    assert engine._router.memoised_views == 6
    stats = engine.dispatch_stats()
    assert stats.machine_events_dispatched <= stats.gate_tests
