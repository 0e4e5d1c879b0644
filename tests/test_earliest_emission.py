"""Differential suite for emission timing: eager return + earliest mode.

Two generations of the same idea live here:

* **Eager return** (folded in from the former
  ``tests/test_eager_emission.py``): when no trunk ancestor of the
  return node carries predicates, a satisfied return entry is already a
  solution (Proposition 4.2), so default-mode TwigM emits at the return
  element's end tag instead of buffering until the root closes.
* **Earliest emission** (``emission="earliest"``, docs/LATENCY.md):
  the general form — candidates flush at the first event where the
  input read so far proves them, for *any* query, including predicates
  above the return node.

The earliest-mode contract under test is the ISSUE-10 acceptance bar:
identical result *sets* to the default mode (ordering may differ where
the paper's semantics leave it unspecified — a result provable early is
emitted before later-closing siblings), bit-for-bit agreement among
pull/push under earliest across 200 seeded documents,
mid-candidate checkpoint/resume, multiq live add/remove with mixed
modes, and exactly-once serving resume.
"""

import json
import random

import pytest

from repro.bench.hotpath import reference_events
from repro.core.machine import build_machine
from repro.core.processor import XPathStream
from repro.core.results import CallbackSink, CollectingSink
from repro.core.twigm import TwigM
from repro.latency import DecisionLagProbe, LatencyClock
from repro.multiq import MultiQueryEngine
from repro.stream.tokenizer import parse_string
from repro.transform.extract import SubstreamExtractor
from repro.xpath.querytree import compile_query


def machine_for(query):
    return build_machine(compile_query(query))


# -- eager return: the predicate-free-trunk special case ---------------------


class TestEagerReturnDetection:
    @pytest.mark.parametrize(
        "query, eager",
        [
            ("//a//b", True),                 # no predicates anywhere
            ("//a/b[c]", True),               # predicates only on the return
            ("//a//b[c[d]][@x]", True),       # ...however complex
            ("//b[. = 'x']", True),           # root == return
            ("//a[d]//b", False),             # predicate above
            ("//a[@x]/b/c", False),           # attribute predicate above
            ("//a[. = '1']//b", False),       # value test above
            ("//a[x or y]/b", False),         # boolean condition above
            ("//a[d]//b[e]//c", False),       # the paper's Q1
        ],
    )
    def test_flag(self, query, eager):
        assert machine_for(query).eager_return is eager


class TestEagerReturnLatency:
    def test_emission_at_return_close_not_root_close(self):
        emitted = []
        machine = TwigM("//a/b[c]", sink=CallbackSink(emitted.append))
        events = list(parse_string("<a><b><c/></b><x><y/></x></a>"))
        machine.feed(events[:5])  # through </b>
        assert emitted == [2], "must not wait for </a>"

    def test_non_eager_waits_for_root(self):
        emitted = []
        machine = TwigM("//a[d]/b", sink=CallbackSink(emitted.append))
        events = list(parse_string("<a><b/><d/></a>"))
        machine.feed(events[:3])
        assert emitted == []
        machine.feed(events[3:])
        assert emitted == [2]

    def test_no_candidate_buffering_in_eager_mode(self):
        machine = TwigM("//a//b[c]")
        events = list(parse_string("<a><b><c/></b><b><c/></b><x/></a>"))
        machine.feed(events[:-1])  # keep <a> open
        (root_entry,) = machine.stack_of(machine.machine.root)
        assert root_entry.candidates is None
        assert sorted(machine.results) == [2, 4]


class TestEagerReturnCorrectness:
    CASES = [
        ("//a//b", "<a><b><b/></b></a>", [2, 3]),
        ("//a/b[c]", "<a><b><c/></b><b/></a>", [2]),
        ("//b[@x]", "<r><b x='1'/><b/></r>", [2]),
        ("//a//b[c][d]", "<a><b><c/><d/></b><b><c/></b></a>", [2]),
    ]

    @pytest.mark.parametrize("query, xml, expected", CASES)
    def test_results(self, query, xml, expected):
        assert sorted(TwigM(query).run(parse_string(xml))) == expected

    def test_fragments_flush_eagerly(self):
        extractor = SubstreamExtractor("//a/b[c]")
        events = list(parse_string("<a><b><c/>t</b><later/></a>"))
        extractor.feed_events(events[:6])  # through </b>
        assert [f.text for f in extractor.fragments] == ["<b><c/>t</b>"]
        assert extractor.snapshot()["records"] == []

    def test_nested_eager_matches_each_emit(self):
        machine = TwigM("//b")
        machine.feed(parse_string("<a><b><b/></b></a>"))
        assert sorted(machine.results) == [2, 3]


class TestEagerReturnOverride:
    def test_force_off_reverts_to_root_close(self):
        emitted = []
        machine = TwigM("//a/b[c]", sink=CallbackSink(emitted.append),
                        eager=False)
        events = list(parse_string("<a><b><c/></b></a>"))
        machine.feed(events[:5])
        assert emitted == []
        machine.feed(events[5:])
        assert emitted == [2]

    def test_results_identical_either_way(self):
        xml = "<a><b><c/></b><b/><b><c/></b></a>"
        eager = TwigM("//a/b[c]").run(parse_string(xml))
        lazy = TwigM("//a/b[c]", eager=False).run(parse_string(xml))
        assert sorted(eager) == sorted(lazy)

    def test_forcing_on_when_unsound_is_rejected(self):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError, match="unsound"):
            TwigM("//a[d]/b", eager=True)


# -- seeded corpus (same generator shape as the compile suite) ---------------

TAGS = ("a", "b", "c", "d", "e")


def _element(rng: random.Random, depth: int) -> str:
    tag = rng.choice(TAGS)
    attrs = ""
    if rng.random() < 0.25:
        attrs = f" k='{rng.randint(0, 3)}'"
    if rng.random() < 0.12:
        return f"<{tag}{attrs}/>"
    parts = [f"<{tag}{attrs}>"]
    if rng.random() < 0.35:
        parts.append(rng.choice(["1", "2", "x", "text run"]))
    if depth < 4:
        for _ in range(rng.randint(0, 3)):
            parts.append(_element(rng, depth + 1))
    parts.append(f"</{tag}>")
    return "".join(parts)


def make_document(seed: int) -> str:
    rng = random.Random(seed)
    body = "".join(_element(rng, 1) for _ in range(rng.randint(1, 4)))
    return f"<r>{body}</r>"


#: Queries with predicates *above* the return node — the class where
#: earliest mode actually changes emission timing — plus return-node
#: predicates and value/boolean conditions for breadth.
QUERIES = (
    "//a[b]//c",
    "//a[b]/c",
    "//a[@k]//b",
    "//a[b][d]//c",
    "//a[b or d]//c",
    "//a[not(b)]//c",
    "//a[@k = '1']//b",
    "//a[b = '1']//c",
    "//a[b]//c[d]",
    "/r/a[b]/c",
)

SEEDS = range(200)


def _queries(seed: int):
    rng = random.Random(20_000 + seed)
    return {rng.choice(QUERIES) for _ in range(3)}


# -- earliest == default, and pull == push under earliest --------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_earliest_matches_default_across_pipelines(seed):
    doc = make_document(seed)
    for query in _queries(seed):
        reference = XPathStream(query).evaluate(doc)
        earliest_pull = XPathStream(query, emission="earliest").evaluate(
            reference_events(doc)
        )
        # Result-set equality with the default mode; ordering free.
        assert sorted(earliest_pull) == sorted(reference)
        # Bit-for-bit agreement among the earliest-mode pipelines.
        assert (
            XPathStream(query, emission="earliest").evaluate(doc)
            == earliest_pull
        )


def test_earliest_never_emits_what_default_does_not():
    """Stronger than set equality on one seed: scanned over many."""
    for seed in range(0, 200, 7):
        doc = make_document(seed)
        for query in QUERIES:
            default = set(XPathStream(query).evaluate(doc))
            earliest = set(
                XPathStream(query, emission="earliest").evaluate(doc)
            )
            assert earliest == default


def test_emission_parameter_is_validated():
    with pytest.raises(ValueError, match="emission"):
        XPathStream("//a[b]//c", emission="soonish")
    with pytest.raises(ValueError, match="emission"):
        TwigM("//a[b]//c", emission="late")


# -- earliest really is earlier ----------------------------------------------


class TestDecisionLag:
    XML = "<r><a><b/><c>hit</c><d/></a><a><c>miss</c></a></r>"

    def test_default_mode_has_positive_lag(self):
        clock = LatencyClock()
        probe = DecisionLagProbe(clock)
        machine = TwigM("//a[b]//c", sink=probe.wrap_sink(CollectingSink()),
                        lag_probe=probe)
        machine_feed_with_clock(machine, clock, self.XML)
        assert probe.event_lags() and all(l > 0 for l in probe.event_lags())

    def test_earliest_mode_collapses_lag_to_zero(self):
        clock = LatencyClock()
        probe = DecisionLagProbe(clock)
        machine = TwigM("//a[b]//c", sink=probe.wrap_sink(CollectingSink()),
                        emission="earliest", lag_probe=probe)
        machine_feed_with_clock(machine, clock, self.XML)
        assert probe.event_lags() == [0]
        assert probe.byte_lags() == [0]

    def test_unmarked_emission_measures_zero(self):
        clock = LatencyClock()
        probe = DecisionLagProbe(clock)
        clock.advance(5, 50)
        probe.observe(3)
        assert probe.lags == [(3, 0, 0)]

    def test_mark_is_idempotent_and_first_wins(self):
        clock = LatencyClock()
        probe = DecisionLagProbe(clock)
        probe.mark_provable([7])
        clock.advance(4, 40)
        probe.mark_provable([7])  # later mark must not move the point
        clock.advance(1, 10)
        probe.observe(7)
        probe.observe(7)  # duplicate emission is not re-measured
        assert probe.lags == [(7, 5, 50)]


def machine_feed_with_clock(machine, clock, xml):
    for event in parse_string(xml):
        clock.advance(1, 10)
        cls = type(event).__name__
        if cls == "StartElement":
            machine.start_element(event.tag, event.level, event.node_id,
                                  event.attributes)
        elif cls == "EndElement":
            machine.end_element(event.tag, event.level)
        else:
            machine.characters(event.text, event.level)


# -- mid-candidate checkpoint/resume -----------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_earliest_snapshot_restore_mid_candidate(seed):
    doc = make_document(seed)
    for query in _queries(seed):
        uninterrupted = XPathStream(query, emission="earliest").evaluate(doc)
        cut = len(doc) // 2
        stream = XPathStream(query, emission="earliest")
        stream.feed_text_push(doc[:cut])
        snap = json.loads(json.dumps(stream.snapshot()))
        assert snap["emission"] == "earliest"
        resumed = XPathStream.restore(snap)
        resumed.feed_text_push(doc[cut:])
        assert resumed.close() == uninterrupted


def test_snapshot_without_emission_key_restores_default():
    """Pre-earliest captures (no "emission" key) restore unchanged."""
    doc = "<r><a><b/><c>1</c></a></r>"
    stream = XPathStream("//a[b]//c")
    stream.feed_text_push(doc[: len(doc) // 2])
    snap = stream.snapshot()
    del snap["emission"]
    resumed = XPathStream.restore(snap)
    assert resumed._emission == "default"
    resumed.feed_text_push(doc[len(doc) // 2:])
    assert resumed.close() == XPathStream("//a[b]//c").evaluate(doc)


def test_default_capture_restores_into_earliest_machine():
    """A machine-level default capture replayed into an earliest machine
    re-derives stability (the cascade re-runs on restore) and still
    produces the right results."""
    xml = "<r><a><b/><c>1</c><d/></a></r>"
    events = list(parse_string(xml))
    donor = TwigM("//a[b]//c")
    donor.feed(events[:5])  # mid-candidate
    state = json.loads(json.dumps(donor.snapshot_state()))

    heir = TwigM("//a[b]//c", emission="earliest")
    heir.restore_state(state)
    heir.feed(events[5:])
    assert sorted(heir.results) == sorted(TwigM("//a[b]//c").run(events))


# -- multiq: mixed emission modes, live add/remove ---------------------------


def test_multiq_mixed_modes_never_share_a_unit():
    engine = MultiQueryEngine()
    engine.add_query("d", "//a[b]//c")
    engine.add_query("e", "//a[b]//c", emission="earliest")
    engine.add_query("e2", "//a[b]//c", emission="earliest")
    assert engine.unit_count() == 2  # d alone; e and e2 share


@pytest.mark.parametrize("seed", range(0, 60, 4))
def test_multiq_live_add_remove_mixed_modes(seed):
    doc = make_document(seed)
    chunks = [doc[i:i + 41] for i in range(0, len(doc), 41)]
    third = max(1, len(chunks) // 3)

    def run(emission):
        engine = MultiQueryEngine()
        engine.add_query("base", "//a[b]//c", emission=emission)
        for index, chunk in enumerate(chunks):
            if index == third:
                engine.add_query("late", "//a[@k]//b", emission=emission)
            if index == 2 * third:
                engine.remove_query("base")
            engine.feed_text_push(chunk)
        return engine.close()

    default, earliest = run("default"), run("earliest")
    assert set(default) == set(earliest)
    for name in default:
        assert sorted(default[name]) == sorted(earliest[name])


@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_multiq_mixed_mode_snapshot_restore(seed):
    doc = make_document(seed)
    engine = MultiQueryEngine()
    engine.add_query("d", "//a[b]//c")
    engine.add_query("e", "//a[b]//c", emission="earliest")
    reference = {
        name: sorted(ids)
        for name, ids in MultiQueryEngine(
            {"d": "//a[b]//c", "e": "//a[b]//c"}
        ).evaluate(doc).items()
    }
    cut = len(doc) // 2
    engine.feed_text_push(doc[:cut])
    snap = json.loads(json.dumps(engine.snapshot()))
    resumed = MultiQueryEngine.restore(snap)
    assert resumed.registration("e").emission == "earliest"
    assert resumed.registration("d").emission == "default"
    resumed.feed_text_push(doc[cut:])
    results = resumed.close()
    assert {name: sorted(ids) for name, ids in results.items()} == reference


# -- serving: earliest results ride exactly-once resume ----------------------


@pytest.mark.parametrize("seed", (3, 11, 42))
@pytest.mark.parametrize("queries", (
    {"q": "//a[b]//c"},
    {"q1": "//a[b]//c", "q2": "//a[@k]//b"},
))
def test_serve_session_resume_is_exactly_once_under_earliest(seed, queries):
    from repro.serve.session import ServeConfig, Session

    doc = make_document(seed)
    chunks = [doc[i:i + 23] for i in range(0, len(doc), 23)]

    def run(emission, resume_at=None):
        delivered = []

        def on_result(name, node_id, seq, fragment=None):
            delivered.append((name, node_id, seq))

        config = ServeConfig(emission=emission)
        session = Session.open({"queries": queries}, config, on_result)
        offset = 0
        for index, chunk in enumerate(chunks):
            session.feed(offset, chunk)
            offset += len(chunk)
            if resume_at == index:
                blob = json.loads(json.dumps(session.checkpoint()))
                last = delivered[-1][2] if delivered else 0
                session = Session.resume(blob, config, on_result,
                                         last_result_seq=last)
        session.finish()
        return delivered

    reference = run("default")
    for resume_at in (None, 1, len(chunks) // 2):
        delivered = run("earliest", resume_at=resume_at)
        # Exactly once: no duplicate sequence numbers or results.
        assert len(delivered) == len(set(delivered))
        assert len({seq for _, _, seq in delivered}) == len(delivered)
        # Same result set as an uninterrupted default-mode session.
        assert sorted((n, i) for n, i, _ in delivered) == sorted(
            (n, i) for n, i, _ in reference
        )


# -- transform: fragments are never truncated by early verdicts --------------


@pytest.mark.parametrize("seed", range(0, 60, 5))
def test_extractor_fragments_identical_under_earliest(seed):
    from repro.transform.extract import select

    doc = make_document(seed)
    for query in ("//a[b]//c", "//a[b]", "//a[@k]//b"):
        default = select(doc, query)
        earliest = select(doc, query, emission="earliest")
        assert sorted((f.node_id, f.text) for f in default) == sorted(
            (f.node_id, f.text) for f in earliest
        )


def test_extractor_mid_fragment_snapshot_under_earliest():
    from repro.transform.extract import select

    xml = "<r><a><b/><c><d>deep</d>tail</c></a></r>"
    reference = select(xml, "//a[b]//c")
    cut = xml.index("tail")  # mid-candidate, verdict already early
    extractor = SubstreamExtractor("//a[b]//c", emission="earliest")
    extractor.feed_text(xml[:cut])
    snap = json.loads(json.dumps(extractor.snapshot()))
    resumed = SubstreamExtractor.restore(snap)
    assert resumed._emission == "earliest"
    resumed.feed_text(xml[cut:])
    fragments = resumed.close()
    assert [(f.node_id, f.text) for f in fragments] == [
        (f.node_id, f.text) for f in reference
    ]
