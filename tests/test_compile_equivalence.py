"""Differential suite for the lazy DFA (``repro.compile``).

Predicate-free queries run on the lazy DFA by default; the contract
under test is that for every query class the default engines are
**bit-for-bit** equivalent to the paper's machines (PathM for
predicate-free queries, named with ``engine="pathm"``) — same solution
ids, same order — across 200+ seeded documents, mid-stream
checkpointing, cache clears at the state cap, and multiq live add/remove.

Documents are produced by a deterministic seeded generator (no
Hypothesis shrinking here: the point is breadth at a fixed, replayable
corpus), covering nesting, text, attributes, self-closing elements,
comments, CDATA, and entity references.
"""

import json
import random

import pytest

from repro.bench.hotpath import reference_events
from repro.compile import DEFAULT_STATE_CAP
from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.recovery import ResourceLimits

# -- seeded document corpus --------------------------------------------------

TAGS = ("a", "b", "c", "d", "e")


def _element(rng: random.Random, depth: int) -> str:
    tag = rng.choice(TAGS)
    attrs = ""
    if rng.random() < 0.25:
        attrs = f" k='{rng.randint(0, 3)}'"
        if rng.random() < 0.3:
            attrs += f" m=\"{rng.randint(0, 9)}\""
    if rng.random() < 0.12:
        return f"<{tag}{attrs}/>"
    parts = [f"<{tag}{attrs}>"]
    roll = rng.random()
    if roll < 0.35:
        parts.append(rng.choice(["1", "2", "x", "text run", " "]))
    elif roll < 0.42:
        parts.append("&amp;")
    elif roll < 0.46:
        parts.append("<!-- note -->")
    elif roll < 0.49:
        parts.append("<![CDATA[raw <stuff>]]>")
    if depth < 4:
        for _ in range(rng.randint(0, 3)):
            parts.append(_element(rng, depth + 1))
    parts.append(f"</{tag}>")
    return "".join(parts)


def make_document(seed: int) -> str:
    rng = random.Random(seed)
    body = "".join(_element(rng, 1) for _ in range(rng.randint(1, 4)))
    return f"<r>{body}</r>"


PREDICATE_FREE = (
    "//a",
    "//a//b",
    "/r/a/b",
    "//a/b//c",
    "/r//d",
    "//b/c",
)
WILDCARD_HEAVY = (
    "//*",
    "/r/*",
    "//*/a",
    "//a/*/b",
    "/r/*//*",
    "//*//*",
)
PREDICATED = (
    "//a[b]",
    "//a[b]/c",
    "//a[@k]",
    "//a[@k = '1']//b",
    "//b[. = '1']",
    "//a[b and c]",
    "//a[not(b)]/d",
)

SEEDS = range(200)


def _paper_stream(query: str) -> XPathStream:
    """``query`` on the paper's machine: PathM when predicate-free."""
    return XPathStream(query, engine=None if "[" in query else "pathm")


def _classes(seed: int):
    """Three queries — one per class — chosen deterministically."""
    rng = random.Random(10_000 + seed)
    return (
        rng.choice(PREDICATE_FREE),
        rng.choice(WILDCARD_HEAVY),
        rng.choice(PREDICATED),
    )


# -- default == the paper's machines, pull and push --------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_default_engines_match_the_paper_machines(seed):
    doc = make_document(seed)
    for query in _classes(seed):
        reference = _paper_stream(query).evaluate(reference_events(doc))
        assert _paper_stream(query).evaluate(doc) == reference
        assert XPathStream(query).evaluate(doc) == reference
        assert XPathStream(query).evaluate(reference_events(doc)) == reference


def test_corpus_exercises_slow_steps():
    """The generator must actually produce the markup beyond plain tags
    (comments, CDATA, entities, attributes), or the corpus proves less
    than it claims."""
    blob = "".join(make_document(seed) for seed in SEEDS)
    for construct in ("<!--", "<![CDATA[", "&amp;", "/>", "k='"):
        assert construct in blob


# -- explicit engines --------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_every_engine_matches_reference(seed):
    doc = make_document(seed)
    cases = (
        ("//a//b", "pathm"),   # the paper's machine, by name
        ("//a//b", "dfa"),     # the lazy DFA, by name
        ("//a[b]/c", None),    # auto -> TwigM
    )
    for query, engine in cases:
        reference = XPathStream(query).evaluate(doc)
        stream = XPathStream(query, engine=engine)
        assert stream.engine_name == (engine or "twigm")
        assert stream.evaluate(doc) == reference


# -- mid-stream snapshot/restore across the DFA cache ------------------------


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_dfa_snapshot_restore_mid_stream(seed):
    doc = make_document(seed)
    query = _classes(seed)[0]
    reference = _paper_stream(query).evaluate(doc)
    cut = len(doc) // 2

    stream = XPathStream(query)
    stream.feed_text(doc[:cut])
    snap = stream.snapshot()
    json.dumps(snap)  # the capture must be serializable

    resumed = XPathStream.restore(snap)
    assert resumed.engine_name == "dfa"
    resumed.feed_text(doc[cut:])
    assert resumed.close() == reference

    # The restored machine's NFA configuration must equal that of a
    # reference-driven twin restored from the same capture: the DFA
    # transition cache is reconstructible state and is *not* captured.
    twin = XPathStream.restore(snap)
    twin.feed_text(doc[cut:])
    assert twin.close() == reference


def test_snapshot_has_no_dfa_transition_cache():
    stream = XPathStream("//a//b")
    stream.feed_text("<r><a><b/></a><c>")
    snap = stream.snapshot()
    machine = snap["machine"]
    assert "dfa" in machine
    assert "trans" not in json.dumps(machine)
    # Restore rebuilds states lazily: cold cache, same behaviour.
    resumed = XPathStream.restore(snap)
    assert resumed.push_handler().dfa_state_count <= len(machine["dfa"]["stack"])


# -- cache clears at the state cap, mid-document ----------------------------


@pytest.mark.parametrize("seed", range(0, 60, 3))
@pytest.mark.parametrize("cap", (1, 2, 4))
def test_state_cap_clears_mid_document(seed, cap):
    doc = make_document(seed)
    for query in ("//*//*", "//a/*/b", "//*/c"):
        reference = _paper_stream(query).evaluate(doc)
        stream = XPathStream(query, state_cap=cap)
        assert stream.evaluate(doc) == reference


def test_state_cap_clears_count_and_survive_snapshot():
    doc = make_document(7)
    query = "//*//*"
    reference = _paper_stream(query).evaluate(doc)
    stream = XPathStream(query, state_cap=1)
    cut = len(doc) // 3
    stream.feed_text(doc[:cut])
    clears = stream.push_handler()._clears
    assert clears >= 1
    snap = json.loads(json.dumps(stream.snapshot()))
    assert snap["machine"]["counters"]["clears"] == clears
    assert snap["state_cap"] == 1
    assert "fallen" not in snap["machine"]
    resumed = XPathStream.restore(snap)
    assert resumed.engine_name == "dfa"
    resumed.feed_text(doc[cut:])
    assert resumed.close() == reference


def test_restored_stream_keeps_its_state_cap():
    # Cut before the cache has ever cleared: the restored stream must
    # still clear at its own cap, not the default one.
    doc = "<r><a><b><c><d/></c></b></a></r>"
    cut = doc.index("<a>")
    stream = XPathStream("//*/*/d", state_cap=2)
    stream.feed_text(doc[:cut])
    assert stream.push_handler()._clears == 0
    snap = json.loads(json.dumps(stream.snapshot()))
    assert snap["state_cap"] == 2
    resumed = XPathStream.restore(snap)
    assert resumed.push_handler().state_cap == 2
    resumed.feed_text(doc[cut:])
    assert resumed.close() == _paper_stream("//*/*/d").evaluate(doc)
    assert resumed.push_handler()._clears >= 1
    # Captures from releases that did not record it get the default.
    del snap["state_cap"]
    assert XPathStream.restore(snap).push_handler().state_cap == DEFAULT_STATE_CAP


# -- multiq: the shared DFA unit, dedup, live add/remove ---------------------

MULTI_QUERIES = {
    "pf1": "//a//b",
    "pf1_dup": "//a//b",
    "pf2": "/r/a/b",
    "wild": "//a/*/b",
    "pred": "//a[b]/c",
}


def _interpreted(queries: dict, doc: str) -> dict:
    """Each query on its own stream on the paper's machine."""
    return {name: _paper_stream(query).evaluate(doc)
            for name, query in queries.items()}


@pytest.mark.parametrize("seed", range(0, 100, 5))
def test_multiq_shared_unit_matches_interpreted(seed):
    doc = make_document(seed)
    reference = _interpreted(MULTI_QUERIES, doc)
    engine = MultiQueryEngine(MULTI_QUERIES)
    assert engine.evaluate(doc) == reference
    # Every path query is a member of one shared DFA unit; the
    # predicate query keeps its own machine.
    assert engine.unit_count() == 2
    shared = {engine.registration(name).unit
              for name in ("pf1", "pf1_dup", "pf2", "wild")}
    assert len(shared) == 1
    engines = engine.engine_names()
    assert engines["pf1"] == engines["pf1_dup"] == "dfa"
    assert engines["pred"] == "twigm"


@pytest.mark.parametrize("seed", range(0, 60, 4))
def test_multiq_live_add_remove_shared_unit(seed):
    doc = make_document(seed)
    chunks = [doc[i:i + 41] for i in range(0, len(doc), 41)]
    third = max(1, len(chunks) // 3)

    def run(limits):
        # Limits keep a path query on a lazy DFA of its own, fed every
        # event.
        engine = MultiQueryEngine()
        engine.add_query("base", "//a//b", limits=limits)
        for index, chunk in enumerate(chunks):
            if index == third:
                engine.add_query("late", "//c", limits=limits)
            if index == 2 * third:
                engine.remove_query("base")
            engine.feed_text(chunk)
        return engine.close()

    assert run(None) == run(ResourceLimits())


@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_multiq_shared_unit_snapshot_restore(seed):
    doc = make_document(seed)
    reference = _interpreted(MULTI_QUERIES, doc)
    cut = len(doc) // 2
    engine = MultiQueryEngine(MULTI_QUERIES)
    engine.feed_text(doc[:cut])
    snap = engine.snapshot()
    json.dumps(snap)
    assert "compiled" not in snap
    resumed = MultiQueryEngine.restore(snap)
    resumed.feed_text(doc[cut:])
    assert resumed.close() == reference


