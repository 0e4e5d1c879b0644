"""Durable-state compatibility: checked-in ``compiled=True`` snapshots.

The captures under ``tests/data/`` were written mid-document by the
release that still ran generated-dispatch BranchM/TwigM machines under
``compiled=True``.  Their machine state is the interpreted engines'
format, so they must keep restoring onto today's engines and finish
with exactly the ids of an uninterrupted run over the same document.
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
