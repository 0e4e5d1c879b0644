"""The shared text path engages the turbo scanner exactly where it may.

Every correctness test would still pass if the faces stopped calling
:func:`repro.compile.scan.turbo_feed` — only the compiled tier would get
quietly slower — so these tests watch the scanner itself: it must run on
every chunk of an eligible feed and never on an ineligible one.
"""

from __future__ import annotations

import pytest

import repro.compile.scan as scan
from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.recovery import ResourceLimits
from repro.transform.extract import SubstreamExtractor

DOC = "<r>" + "<a><b><c>text</c></b><d k='v'/></a>" * 40 + "</r>"
CHUNK = 97


@pytest.fixture
def turbo_chunks(monkeypatch):
    """Chunks the turbo scanner was handed, in order."""
    seen: list[str] = []
    real = scan.turbo_feed

    def watched(tokenizer, chunk, handler):
        seen.append(chunk)
        real(tokenizer, chunk, handler)

    monkeypatch.setattr(scan, "turbo_feed", watched)
    return seen


def _chunks() -> list[str]:
    return [DOC[i:i + CHUNK] for i in range(0, len(DOC), CHUNK)]


def _feed(face):
    for chunk in _chunks():
        face.feed_text(chunk)
    return face.close()


def test_compiled_path_stream_scans_every_chunk(turbo_chunks):
    stream = XPathStream("//a/b", compiled=True)
    assert stream.engine_name == "dfa"
    assert _feed(stream) == XPathStream("//a/b").evaluate(DOC)
    assert turbo_chunks == _chunks()


def test_compiled_path_multiq_scans_every_chunk(turbo_chunks):
    queries = {"b": "//a/b", "c": "//b//c"}
    engine = MultiQueryEngine(queries, compiled=True)
    assert _feed(engine) == MultiQueryEngine(queries).evaluate(DOC)
    assert turbo_chunks == _chunks()


@pytest.mark.parametrize("face", [
    pytest.param(lambda: XPathStream("//a[d]/b", compiled=True),
                 id="predicate-query"),
    pytest.param(lambda: MultiQueryEngine({"b": "//a/b"},
                                          on_match=lambda *_: None,
                                          compiled=True),
                 id="callback-multiq"),
    pytest.param(lambda: XPathStream("//a/b", compiled=True,
                                     limits=ResourceLimits(max_depth=64)),
                 id="limited-stream"),
    pytest.param(lambda: MultiQueryEngine({"b": "//a/b"}, compiled=True,
                                          limits=ResourceLimits(max_depth=64)),
                 id="limited-multiq-input"),
    pytest.param(lambda: XPathStream("//a/b", compiled=True, policy="repair"),
                 id="lenient-stream"),
    pytest.param(lambda: SubstreamExtractor("//a/b"), id="extractor"),
])
def test_ineligible_faces_never_turbo(turbo_chunks, face):
    _feed(face())
    assert turbo_chunks == []
