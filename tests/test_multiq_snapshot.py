"""Dispatcher checkpointing: snapshot at every boundary ≡ uninterrupted.

Extends the per-stream guarantees of tests/test_checkpoint.py to the
whole multi-query dispatcher: every machine, every multiplexed sink, the
mid-parse tokenizer, the dedup grouping, and the dispatch counters must
survive a JSON round trip at any event boundary.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.multiq import MULTIQ_SNAPSHOT_VERSION, MultiQueryEngine
from repro.stream.tokenizer import parse_string

from tests.conftest import chain_xml

#: Query sets covering all three engines, shared (duplicate) units,
#: value tests, and attributes — each paired with a document.
CASES = [
    (
        {"ab": "//a//b", "dup": "//a//b", "rooted": "/a/b/c"},
        chain_xml(3, with_predicates=False),
    ),
    (
        {"q1": "//a[d]//b[e]//c", "branch": "/a[d]/a", "path": "//e"},
        chain_xml(3),
    ),
    (
        {"cheap": "//book[price < 30]//title", "titles": "//title"},
        "<lib><book><price>25</price><title/></book>"
        "<book><price>40</price><title/></book></lib>",
    ),
    (
        {"attr": "//a[@k = 'v']/b", "star": "//a//*"},
        "<r><a k='v'><b/></a><a k='x'><b/></a></r>",
    ),
]


def uninterrupted(queries: dict[str, str], document: str) -> dict[str, list[int]]:
    engine = MultiQueryEngine(queries)
    engine.feed_text(document)
    return engine.close()


def roundtrip(engine: MultiQueryEngine, **kwargs) -> MultiQueryEngine:
    return MultiQueryEngine.restore(
        json.loads(json.dumps(engine.snapshot())), **kwargs
    )


@pytest.mark.parametrize("queries,document", CASES)
def test_snapshot_at_every_char_boundary(queries, document):
    """Suspend/resume at every feed boundary must be invisible."""
    expected = uninterrupted(queries, document)
    engine = MultiQueryEngine(queries)
    for ch in document:
        engine.feed_text(ch)
        engine = roundtrip(engine)
    assert engine.close() == expected


@pytest.mark.parametrize("queries,document", CASES)
def test_single_midpoint_snapshot(queries, document):
    expected = uninterrupted(queries, document)
    mid = len(document) // 2
    engine = MultiQueryEngine(queries)
    engine.feed_text(document[:mid])
    resumed = roundtrip(engine)
    resumed.feed_text(document[mid:])
    assert resumed.close() == expected


def test_snapshot_is_json_serializable_end_to_end():
    engine = MultiQueryEngine({"q": "//a[d]//b", "dup": "//a[d]//b"})
    engine.feed_text(chain_xml(2)[:10])
    snap = engine.snapshot()
    assert snap["version"] == MULTIQ_SNAPSHOT_VERSION
    assert json.loads(json.dumps(snap)) == snap


def test_dedup_grouping_survives_restore():
    engine = MultiQueryEngine({"one": "//a/b", "two": "//a[./b]", "three": "//a/b"})
    assert engine.unit_count() == 2
    resumed = roundtrip(engine)
    assert resumed.unit_count() == 2
    assert resumed.names == ["one", "two", "three"]
    assert resumed.canonical_queries() == engine.canonical_queries()


def test_dispatch_stats_survive_restore():
    engine = MultiQueryEngine({"ab": "//a//b"})
    engine.feed_events(parse_string("<a><b/></a>"))
    before = engine.dispatch_stats()
    after = roundtrip(engine).dispatch_stats()
    assert after == before


def test_mid_stream_added_query_survives_restore():
    events = list(parse_string("<r><a><b/></a><a><b/></a></r>"))
    engine = MultiQueryEngine({"early": "//a/b"})
    engine.feed_events(events[:4])
    engine.add_query("late", "//a/b")  # dedicated warm-stream unit
    assert engine.unit_count() == 2
    resumed = roundtrip(engine)
    assert resumed.unit_count() == 2
    resumed.feed_events(events[4:])

    oracle = MultiQueryEngine({"early": "//a/b"})
    oracle.feed_events(events[:4])
    oracle.add_query("late", "//a/b")
    oracle.feed_events(events[4:])
    assert resumed.results() == oracle.results()


def test_version_mismatch_rejected():
    snap = MultiQueryEngine({"q": "//a"}).snapshot()
    snap["version"] = MULTIQ_SNAPSHOT_VERSION + 1
    with pytest.raises(CheckpointError, match="version"):
        MultiQueryEngine.restore(snap)


def test_malformed_snapshot_rejected():
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore({"version": MULTIQ_SNAPSHOT_VERSION})


def test_mismatched_grouping_rejected():
    """A unit claiming a query with a different structure is refused."""
    engine = MultiQueryEngine({"one": "//a[x]/b", "two": "//a[x]/c/d"})
    snap = engine.snapshot()
    snap["units"][0]["queries"] = ["one", "two"]
    snap["units"] = snap["units"][:1]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(snap)
    # The shared path unit's members must be the capture's, in order.
    engine = MultiQueryEngine({"one": "//a/b", "two": "//a/c"})
    snap = engine.snapshot()
    snap["units"][0]["queries"] = ["two", "one"]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(snap)


@pytest.mark.parametrize("field, value", [
    ("emission", "earliest"),
    ("limits", {"max_depth": 3}),
])
def test_grouped_member_disagreeing_with_its_unit_rejected(field, value):
    """Members sharing a machine share its limits and emission mode; a
    capture where one member says otherwise is refused, not half-applied."""
    engine = MultiQueryEngine({"a": "//x[y]", "b": "//x[y]"})
    engine.feed_text("<r><x>")
    snap = engine.snapshot()
    assert [unit["queries"] for unit in snap["units"]] == [["a", "b"]]
    MultiQueryEngine.restore(snap)  # the untouched capture restores
    snap["queries"][1][field] = value
    with pytest.raises(CheckpointError, match="groups 'b'"):
        MultiQueryEngine.restore(snap)


def test_callback_does_not_refire_after_restore():
    fired: list[tuple[str, int]] = []
    engine = MultiQueryEngine({"q": "//a"}, on_match=lambda n, i: fired.append((n, i)))
    engine.feed_text("<r><a/><a/>")
    assert len(fired) == 2

    resumed_fired: list[tuple[str, int]] = []
    resumed = roundtrip(engine, on_match=lambda n, i: resumed_fired.append((n, i)))
    resumed.feed_text("<a/></r>")
    resumed.close()
    assert len(resumed_fired) == 1  # only the third <a>
    assert set(resumed_fired).isdisjoint(fired)


def test_callback_restore_without_callback_stays_silent_but_deduped():
    engine = MultiQueryEngine({"q": "//a"}, on_match=lambda n, i: None)
    engine.feed_text("<r><a/>")
    resumed = roundtrip(engine)  # no on_match supplied
    resumed.feed_text("<a/></r>")
    assert resumed.close() == {}  # still callback mode, nothing collected


@pytest.mark.parametrize("queries,document", CASES)
def test_emitted_counts_match_results(queries, document):
    """``emitted_counts()`` is each query's distinct result count, in both
    sink modes, after a full pass and across a mid-stream restore (sinks
    no longer keep every emitted id, so the count is its own state)."""
    expected = {name: len(ids)
                for name, ids in uninterrupted(queries, document).items()}
    half = len(document) // 2
    for on_match in (None, lambda name, node_id: None):
        engine = MultiQueryEngine(queries, on_match=on_match)
        engine.feed_text(document)
        engine.close()
        assert engine.emitted_counts() == expected
        engine = MultiQueryEngine(queries, on_match=on_match)
        engine.feed_text(document[:half])
        resumed = roundtrip(engine, on_match=on_match)
        resumed.feed_text(document[half:])
        resumed.close()
        assert resumed.emitted_counts() == expected


def test_restore_preserves_policy_and_limits():
    from repro.stream.recovery import RecoveryPolicy, ResourceLimits

    engine = MultiQueryEngine(
        {"q": "//a"}, policy="repair", limits=ResourceLimits(max_depth=9)
    )
    engine.feed_text("<r><a>")
    resumed = roundtrip(engine)
    assert resumed._policy is RecoveryPolicy.REPAIR
    assert resumed._limits.max_depth == 9
    # repair still applies after restore: truncated doc closes cleanly
    assert resumed.close() == {"q": [2]}


def test_per_query_limits_survive_restore():
    from repro.errors import ResourceLimitError
    from repro.stream.recovery import ResourceLimits

    engine = MultiQueryEngine()
    engine.add_query("capped", "//a", limits=ResourceLimits(max_total_events=3))
    resumed = roundtrip(engine)
    with pytest.raises(ResourceLimitError):
        resumed.feed_events(parse_string(chain_xml(4, with_predicates=False)))
