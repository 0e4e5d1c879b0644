"""Differential suite for the compilation tiers (``repro.compile``).

The contract under test is the ISSUE-9 acceptance bar: for every query
class the compiled tier (lazy-DFA front-end and turbo scanner, with
every other query on the interpreted machines) must be **bit-for-bit** equivalent to the interpreted machines
— same solution ids, same order, same snapshots — across 200+ seeded
documents, mid-stream checkpointing, state-cap fallback, and multiq
live add/remove.

Documents are produced by a deterministic seeded generator (no
Hypothesis shrinking here: the point is breadth at a fixed, replayable
corpus), covering nesting, text, attributes, self-closing elements,
comments, CDATA, and entity references — everything that forces the
turbo scanner through its slow-step path.
"""

import json
import random

import pytest

from repro.bench.hotpath import reference_events
from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine

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


def _classes(seed: int):
    """Three queries — one per class — chosen deterministically."""
    rng = random.Random(10_000 + seed)
    return (
        rng.choice(PREDICATE_FREE),
        rng.choice(WILDCARD_HEAVY),
        rng.choice(PREDICATED),
    )


# -- pull == push == compiled across the corpus ------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_pull_push_compiled_agree(seed):
    doc = make_document(seed)
    for query in _classes(seed):
        reference = XPathStream(query).evaluate(reference_events(doc))
        assert XPathStream(query).evaluate(doc) == reference
        compiled = XPathStream(query, compiled=True)
        assert compiled.evaluate(doc) == reference
        assert XPathStream(query, compiled=True).evaluate(
            reference_events(doc)
        ) == reference


def test_corpus_exercises_slow_steps():
    """The generator must actually produce the constructs the turbo
    scanner's slow path handles, or the corpus proves less than it
    claims."""
    blob = "".join(make_document(seed) for seed in SEEDS)
    for construct in ("<!--", "<![CDATA[", "&amp;", "/>", "k='"):
        assert construct in blob


# -- explicit engine tiers ---------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 200, 10))
def test_every_tier_matches_reference(seed):
    doc = make_document(seed)
    cases = (
        ("//a//b", "pathm"),   # explicit pathm + compiled -> plain PathM
        ("//a//b", "dfa"),     # explicit DFA front-end
        ("//a[b]/c", None),    # auto -> interpreted TwigM under compiled=True
    )
    for query, engine in cases:
        reference = XPathStream(query).evaluate(doc)
        stream = XPathStream(query, engine=engine, compiled=True)
        assert stream.evaluate_push(doc) == reference


# -- mid-stream snapshot/restore across the DFA cache ------------------------


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_compiled_snapshot_restore_mid_stream(seed):
    doc = make_document(seed)
    query = _classes(seed)[0]
    reference = XPathStream(query).evaluate(doc)
    cut = len(doc) // 2

    stream = XPathStream(query, compiled=True)
    stream.feed_text_push(doc[:cut])
    snap = stream.snapshot()
    json.dumps(snap)  # the capture must be serializable

    resumed = XPathStream.restore(snap)
    assert resumed._compiled
    resumed.feed_text_push(doc[cut:])
    assert resumed.close() == reference

    # The restored machine's NFA configuration must equal that of a
    # reference-driven twin restored from the same capture: the DFA
    # transition cache is reconstructible state and is *not* captured.
    twin = XPathStream.restore(snap)
    twin.feed_text(doc[cut:])
    assert twin.close() == reference


def test_snapshot_has_no_dfa_transition_cache():
    stream = XPathStream("//a//b", compiled=True)
    stream.feed_text_push("<r><a><b/></a><c>")
    snap = stream.snapshot()
    machine = snap["machine"]
    assert "dfa" in machine
    assert "trans" not in json.dumps(machine)
    # Restore rebuilds states lazily: cold cache, same behaviour.
    resumed = XPathStream.restore(snap)
    assert resumed.push_handler().dfa_state_count <= len(machine["dfa"]["stack"])


# -- state-cap fallback mid-document -----------------------------------------


@pytest.mark.parametrize("seed", range(0, 60, 3))
@pytest.mark.parametrize("cap", (1, 2, 4))
def test_state_cap_fallback_mid_document(seed, cap):
    doc = make_document(seed)
    for query in ("//*//*", "//a/*/b", "//*/c"):
        reference = XPathStream(query).evaluate(doc)
        stream = XPathStream(query, compiled=True, state_cap=cap)
        assert stream.evaluate_push(doc) == reference


def test_state_cap_fallback_counts_and_survives_snapshot():
    doc = make_document(7)
    query = "//*//*"
    reference = XPathStream(query).evaluate(doc)
    stream = XPathStream(query, compiled=True, state_cap=1)
    cut = len(doc) // 3
    stream.feed_text_push(doc[:cut])
    handler = stream.push_handler()
    assert handler.fell_back
    assert handler._fallbacks >= 1
    snap = stream.snapshot()
    assert snap["machine"]["fallen"] is True
    resumed = XPathStream.restore(snap)
    resumed.feed_text_push(doc[cut:])
    assert resumed.close() == reference


# -- multiq: compiled units, dedup, live add/remove --------------------------

MULTI_QUERIES = {
    "pf1": "//a//b",
    "pf1_dup": "//a//b",
    "pf2": "/r/a/b",
    "wild": "//a/*/b",
    "pred": "//a[b]/c",
}


@pytest.mark.parametrize("seed", range(0, 100, 5))
def test_multiq_compiled_matches_interpreted(seed):
    doc = make_document(seed)
    reference = MultiQueryEngine(MULTI_QUERIES).evaluate(doc)
    compiled = MultiQueryEngine(MULTI_QUERIES, compiled=True)
    assert compiled.evaluate_push(doc) == reference
    # Dedup must share compiled units exactly as interpreted ones.
    assert compiled.unit_count() == MultiQueryEngine(MULTI_QUERIES).unit_count()
    engines = compiled.engine_names()
    assert engines["pf1"] == engines["pf1_dup"] == "dfa"
    assert engines["pred"] == "twigm"


@pytest.mark.parametrize("seed", range(0, 60, 4))
def test_multiq_live_add_remove_compiled(seed):
    doc = make_document(seed)
    chunks = [doc[i:i + 41] for i in range(0, len(doc), 41)]
    third = max(1, len(chunks) // 3)

    def run(compiled: bool):
        engine = MultiQueryEngine({"base": "//a//b"}, compiled=compiled)
        for index, chunk in enumerate(chunks):
            if index == third:
                engine.add_query("late", "//c")
            if index == 2 * third:
                engine.remove_query("base")
            engine.feed_text_push(chunk)
        return engine.close()

    assert run(True) == run(False)


@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_multiq_compiled_snapshot_restore(seed):
    doc = make_document(seed)
    reference = MultiQueryEngine(MULTI_QUERIES).evaluate(doc)
    cut = len(doc) // 2
    engine = MultiQueryEngine(MULTI_QUERIES, compiled=True)
    engine.feed_text_push(doc[:cut])
    snap = engine.snapshot()
    json.dumps(snap)
    assert snap["compiled"] is True
    resumed = MultiQueryEngine.restore(snap)
    assert resumed._compiled
    resumed.feed_text_push(doc[cut:])
    assert resumed.close() == reference


def test_multiq_turbo_gating():
    """Turbo engages only when every unit is a turbo-safe path machine
    and no registration delivers through a callback."""
    pf = MultiQueryEngine({"x": "//a//b", "y": "/r/c"}, compiled=True)
    assert pf.as_handler().turbo_scan_safe

    with_pred = MultiQueryEngine({"x": "//a//b", "p": "//a[b]"}, compiled=True)
    assert not with_pred.as_handler().turbo_scan_safe

    with_cb = MultiQueryEngine(
        {"x": "//a//b"}, on_match=lambda name, node_id: None, compiled=True
    )
    assert not with_cb.as_handler().turbo_scan_safe

    interpreted = MultiQueryEngine({"x": "//a//b"})
    assert not interpreted.as_handler().turbo_scan_safe

    # Gating is live: removing the blocking query re-enables turbo.
    with_pred.remove_query("p")
    assert with_pred.as_handler().turbo_scan_safe
