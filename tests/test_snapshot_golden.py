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
"""

import json
from pathlib import Path

import pytest

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine

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
