"""Checkpoint/resume: snapshot at every boundary ≡ uninterrupted run."""

from __future__ import annotations

import json

import pytest

from repro import CheckpointError, ResourceLimits, XPathStream
from repro.core.processor import SNAPSHOT_VERSION

from tests.conftest import chain_xml

#: (query, document) pairs covering all three engines, predicates,
#: recursion, text values, and attributes.
CASES = [
    ("//a//b", chain_xml(3, with_predicates=False)),
    ("/a/b/c", "<a><b><c/><c/></b><b><c/></b></a>"),
    ("//a[d]//b[e]//c", chain_xml(3)),
    ("/a[b]/c", "<a><b/><c/><c/></a>"),
    ("//book[price < 30]//title",
     "<lib><book><price>25</price><title/></book>"
     "<book><price>40</price><title/></book></lib>"),
    ("//a[@k = 'v']/b", "<r><a k='v'><b/></a><a k='x'><b/></a></r>"),
]


def uninterrupted(query: str, document: str) -> list[int]:
    stream = XPathStream(query)
    stream.feed_text(document)
    return stream.close()


@pytest.mark.parametrize("query,document", CASES)
def test_checkpoint_at_every_char_boundary(query, document):
    """Suspend/resume at every feed boundary must be invisible.

    The document is fed one character at a time; after every character
    the stream is snapshotted, serialized through JSON (proving the
    capture is plain data), discarded, and restored — and the final
    match ids must be identical to an uninterrupted evaluation.
    """
    expected = uninterrupted(query, document)
    stream = XPathStream(query)
    for ch in document:
        stream.feed_text(ch)
        wire = json.dumps(stream.snapshot())
        stream = XPathStream.restore(json.loads(wire))
    assert stream.close() == expected


@pytest.mark.parametrize("query,document", CASES)
def test_single_midpoint_checkpoint(query, document):
    expected = uninterrupted(query, document)
    mid = len(document) // 2
    stream = XPathStream(query)
    stream.feed_text(document[:mid])
    resumed = XPathStream.restore(json.loads(json.dumps(stream.snapshot())))
    resumed.feed_text(document[mid:])
    assert resumed.close() == expected


def test_snapshot_is_json_serializable_end_to_end():
    stream = XPathStream("//a[d]//b")
    stream.feed_text(chain_xml(2)[:10])
    snap = stream.snapshot()
    assert snap["version"] == SNAPSHOT_VERSION
    assert json.loads(json.dumps(snap)) == snap


def test_version_mismatch_rejected():
    stream = XPathStream("//a")
    snap = stream.snapshot()
    snap["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(CheckpointError, match="version"):
        XPathStream.restore(snap)


def test_malformed_snapshot_rejected():
    with pytest.raises(CheckpointError):
        XPathStream.restore({"version": SNAPSHOT_VERSION, "query": "//a"})


def test_query_mismatch_on_machine_state():
    """A snapshot restored against a different machine shape is refused."""
    snap = XPathStream("//a[b][c]//d").snapshot()
    snap["query"] = "//a"
    with pytest.raises(CheckpointError):
        XPathStream.restore(snap)


def test_callback_sink_does_not_refire_after_restore():
    document = "<r><a/><a/><a/></r>"
    fired: list[int] = []
    stream = XPathStream("//a", on_match=fired.append)
    stream.feed_text("<r><a/><a/>")
    fired_before = list(fired)
    assert len(fired_before) == 2

    resumed_fired: list[int] = []
    resumed = XPathStream.restore(
        json.loads(json.dumps(stream.snapshot())), on_match=resumed_fired.append
    )
    resumed.feed_text("<a/></r>")
    resumed.close()
    # only the third <a> fires on the resumed stream
    assert len(resumed_fired) == 1
    assert set(resumed_fired).isdisjoint(fired_before)


def test_restore_preserves_policy_and_limits():
    from repro import RecoveryPolicy, ResourceLimits

    stream = XPathStream(
        "//a", policy="repair", limits=ResourceLimits(max_depth=9)
    )
    stream.feed_text("<r><a>")
    resumed = XPathStream.restore(stream.snapshot())
    assert resumed._policy is RecoveryPolicy.REPAIR
    assert resumed._limits.max_depth == 9
    # repair still applies after restore: truncated doc closes cleanly
    assert resumed.close() == [2]


def test_engine_choice_survives_restore():
    for query, named, engine in [("//a//b", None, "dfa"),
                                 ("//a//b", "pathm", "pathm"),
                                 ("/a[b]/c", None, "branchm"),
                                 ("//a[b]//c", None, "twigm")]:
        stream = XPathStream(query, engine=named)
        assert stream.engine_name == engine
        resumed = XPathStream.restore(stream.snapshot())
        assert resumed.engine_name == engine


def test_checkpoint_with_lenient_recovery_mid_damage():
    """Snapshot taken while the tokenizer is mid-recovery still resumes."""
    expected_stream = XPathStream("//b", policy="skip")
    expected_stream.feed_text("<a><1bad/><b/><b/></a>")
    expected = expected_stream.close()

    stream = XPathStream("//b", policy="skip")
    for ch in "<a><1bad/><b/><b/></a>":
        stream.feed_text(ch)
        stream = XPathStream.restore(json.loads(json.dumps(stream.snapshot())))
    assert stream.close() == expected


# -- typed capture fields: the reproduced wrong-value cases ----------------


def _mid_stream(query: str = "//a[b]//c", text: str = "<r><a><c/>") -> dict:
    """A capture with an open ``a`` whose ``c`` candidate is buffered."""
    stream = XPathStream(query)
    stream.feed_text(text)
    return json.loads(json.dumps(stream.snapshot()))


def _candidate_entry(snapshot: dict) -> list:
    return next(entry for stack in snapshot["machine"]["stacks"]
                for entry in stack if entry[2])


def test_string_candidates_are_refused():
    """``set("xyz")`` once read a string as the ids 'x', 'y' and 'z'."""
    snapshot = _mid_stream()
    _candidate_entry(snapshot)[2] = "xyz"
    with pytest.raises(CheckpointError, match="list"):
        XPathStream.restore(snapshot)


def test_float_level_is_refused():
    """A level of 2.5 never matched an end tag: the result was lost."""
    snapshot = _mid_stream()
    _candidate_entry(snapshot)[0] = 2.5
    with pytest.raises(CheckpointError, match="non-negative int"):
        XPathStream.restore(snapshot)


def test_string_callback_flag_is_refused():
    """``bool("no")`` once switched a query to callback delivery."""
    from repro.multiq import MultiQueryEngine

    engine = MultiQueryEngine({"q": "//a[b]//c"})
    engine.feed_text("<r><a><c/>")
    snapshot = json.loads(json.dumps(engine.snapshot()))
    snapshot["queries"][0]["callback"] = "no"
    with pytest.raises(CheckpointError, match="bool"):
        MultiQueryEngine.restore(snapshot)


def test_string_limit_is_refused():
    """A limit of ``"x"`` once raised ``TypeError`` mid-resume."""
    stream = XPathStream("//a[b]//c", limits=ResourceLimits(max_depth=8))
    stream.feed_text("<r><a><c/>")
    snapshot = json.loads(json.dumps(stream.snapshot()))
    snapshot["limits"]["max_depth"] = "x"
    with pytest.raises(CheckpointError, match="max_depth"):
        XPathStream.restore(snapshot)


def test_string_tokenizer_stack_is_refused():
    """``list("ra")`` once read a string as the open elements r and a."""
    snapshot = _mid_stream()
    snapshot["tokenizer"]["stack"] = "ra"
    with pytest.raises(CheckpointError, match="stack"):
        XPathStream.restore(snapshot)


@pytest.mark.parametrize("key", ["bogus", "stakcs"])
def test_unknown_machine_key_is_refused(key):
    snapshot = _mid_stream()
    snapshot["machine"][key] = snapshot["machine"]["stacks"]
    with pytest.raises(CheckpointError, match="unknown key"):
        XPathStream.restore(snapshot)


def test_negative_result_seq_is_refused():
    from repro.serve.session import ServeConfig, Session

    session = Session.open({"queries": {"q": "//a[b]//c"}}, ServeConfig(),
                           lambda *result: None)
    session.feed(0, "<r><a><b/><c/>")
    blob = json.loads(json.dumps(session.checkpoint()))
    blob["result_seq"] = -1
    with pytest.raises(CheckpointError, match="result_seq"):
        Session.resume(blob, ServeConfig(), lambda *result: None)
