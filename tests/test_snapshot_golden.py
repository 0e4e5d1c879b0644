"""Durable-state compatibility: checked-in mid-document snapshots.

The ``compiled_*`` captures under ``tests/data/`` were written by the
release that still ran generated-dispatch BranchM/TwigM machines under
``compiled=True``.  Their machine state is the interpreted engines'
format, so they must keep restoring onto today's engines and finish
with exactly the ids of an uninterrupted run over the same document.

The ``multiq_*`` captures and ``compiled_multiq_live_snapshot.json``
were written by the release that ran one lazy-DFA unit per compiled
path query: a plain-mode and an earliest-mode dispatcher, and a
``compiled=True`` dispatcher in which a path query was added mid-stream
(its DFA unit had fallen back to PathM) and another was removed.  Each
records the live add/remove schedule (``steps``) and the ids that run
produced (``expected``).

``tokenizer_snapshot.json``, the ``session_*_checkpoint.json`` blobs
(one serve session of each kind: ``single``, ``multi`` and ``transform``)
and ``rewrite_snapshot.json`` were written by the release in which every
face still built, fed and restored its own tokenizer.  Each is cut
inside a tag and records its character offset (``cut``); the session and
rewrite captures also record what an uninterrupted run produced
(``expected``).  A capture taken today at the same cut must equal the
recorded one key for key, and each must resume to the recorded result.
"""

import json
from pathlib import Path

import pytest

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.serve.session import ServeConfig, Session
from repro.stream.tokenizer import XmlTokenizer
from repro.transform.rewrite import RewriteEngine, RewriteRule

DATA = Path(__file__).resolve().parent / "data"
DOC = (DATA / "golden_xmark.xml").read_text()


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@pytest.mark.parametrize("engine", ["branchm", "twigm"])
def test_compiled_stream_snapshot_restores(engine):
    golden = _load(f"compiled_{engine}_snapshot.json")
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is True
    assert snapshot["engine"] == engine
    resumed = XPathStream.restore(snapshot)
    assert resumed.engine_name == engine
    resumed.feed_text_push(DOC[golden["cut"]:])
    expected = XPathStream(golden["query"]).evaluate(DOC)
    assert expected
    assert resumed.close() == expected


def test_compiled_multiq_snapshot_restores():
    golden = _load("compiled_multiq_snapshot.json")
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is True
    resumed = MultiQueryEngine.restore(snapshot)
    resumed.feed_text_push(DOC[golden["cut"]:])
    expected = MultiQueryEngine(golden["queries"]).evaluate(DOC)
    assert all(expected.values())
    assert resumed.close() == expected


def _replay(golden: dict, compiled: bool) -> dict:
    """Re-run a capture's schedule uninterrupted: feed, add and remove at
    the recorded offsets, then finish the document."""
    engine = MultiQueryEngine(compiled=compiled)
    for name, query in golden["queries"].items():
        engine.add_query(name, query, emission=golden["emission"])
    position = 0
    for step in golden["steps"]:
        engine.feed_text(DOC[position:step["at"]])
        position = step["at"]
        for name, query in step.get("add", {}).items():
            engine.add_query(name, query, emission=golden["emission"])
        for name in step.get("remove", []):
            engine.remove_query(name)
    engine.feed_text(DOC[position:])
    return engine.close()


@pytest.mark.parametrize("name, compiled", [
    ("multiq_plain_snapshot.json", False),
    ("multiq_earliest_snapshot.json", False),
    ("compiled_multiq_live_snapshot.json", True),
])
def test_multiq_snapshot_restores(name, compiled):
    golden = _load(name)
    snapshot = golden["snapshot"]
    assert snapshot["compiled"] is compiled
    assert {q["emission"] for q in snapshot["queries"]} == {golden["emission"]}
    resumed = MultiQueryEngine.restore(snapshot)
    resumed.feed_text(DOC[golden["cut"]:])
    finished = resumed.close()
    assert all(finished.values())
    assert finished == golden["expected"]
    assert finished == _replay(golden, compiled)


def _tokenize(tokenizer: XmlTokenizer, text: str) -> list:
    return list(tokenizer.feed(text)) + tokenizer.close()


def test_tokenizer_snapshot_restores():
    golden = _load("tokenizer_snapshot.json")
    cut = golden["cut"]
    assert DOC[:cut].endswith('<item id="29')
    live = XmlTokenizer()
    assert len(list(live.feed(DOC[:cut]))) == golden["events_before"]
    assert live.snapshot() == golden["snapshot"]
    resumed = XmlTokenizer.restore(golden["snapshot"])
    full = _tokenize(XmlTokenizer(), DOC)
    assert _tokenize(resumed, DOC[cut:]) == full[golden["events_before"]:]


SESSION_CHUNK = 1000


def _feed_session(session: Session, start: int, stop: int) -> None:
    offset = start
    while offset < stop:
        text = DOC[offset:min(offset + SESSION_CHUNK, stop)]
        session.feed(offset, text)
        offset += len(text)


@pytest.mark.parametrize("kind", ["single", "multi", "transform"])
def test_session_checkpoint_resumes(kind):
    golden = _load(f"session_{kind}_checkpoint.json")
    blob, cut, expected = golden["blob"], golden["cut"], golden["expected"]
    assert blob["kind"] == kind
    assert blob["input_offset"] == cut
    queries = blob["queries"]

    results: list = []
    live = Session.open({"queries": queries}, ServeConfig(),
                        lambda *r: results.append(list(r)), token="golden")
    _feed_session(live, 0, cut)
    assert live.checkpoint() == blob
    _feed_session(live, cut, len(DOC))
    live.finish()
    assert results == expected

    resumed_results: list = []
    resumed = Session.resume(blob, ServeConfig(),
                             lambda *r: resumed_results.append(list(r)),
                             last_result_seq=blob["result_seq"])
    assert resumed.pending_replay == []
    _feed_session(resumed, cut, len(DOC))
    done = resumed.finish()
    sent = [[name, node_id, seq, *fragment]
            for seq, name, node_id, *fragment in blob["result_log"]]
    assert sent + resumed_results == expected
    assert done["seq"] == len(expected)


def test_rewrite_snapshot_restores():
    golden = _load("rewrite_snapshot.json")
    snapshot, cut = golden["snapshot"], golden["cut"]
    assert snapshot["queue"], "the cut must leave a pending rewrite region"
    rules = [RewriteRule.from_spec(spec) for spec in snapshot["rules"]]
    live = RewriteEngine(rules)
    live.feed_text(DOC[:cut])
    assert live.snapshot() == snapshot
    resumed = RewriteEngine.restore(snapshot)
    resumed.feed_text(DOC[cut:])
    assert resumed.close() == golden["expected"]
    assert RewriteEngine(rules).evaluate(DOC) == golden["expected"]
