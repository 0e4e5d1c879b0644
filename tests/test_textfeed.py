"""The shared text path parses every feed with Expat.

Every correctness test would still pass if the tokenizer stopped handing
input to Expat — the faces would only get quietly slower — so these
tests watch the parser itself: it must run on every chunk of a clean
feed, under a lenient policy too.  That the results match the Python
scanner's is the differential suite's job (``tests/test_expat_source.py``).
"""

from __future__ import annotations

import pytest

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import XmlTokenizer
from repro.transform.extract import SubstreamExtractor

DOC = "<r>" + "<a><b><c>text</c></b><d k='v'/></a>" * 40 + "</r>"
CHUNK = 97


@pytest.fixture
def expat_chunks(monkeypatch):
    """Chunks handed to Expat, in order."""
    seen: list[str] = []
    real = XmlTokenizer._parse_piece

    def watched(tokenizer, data, handler):
        seen.append(data)
        real(tokenizer, data, handler)

    monkeypatch.setattr(XmlTokenizer, "_parse_piece", watched)
    return seen


def _chunks() -> list[str]:
    return [DOC[i:i + CHUNK] for i in range(0, len(DOC), CHUNK)]


def _feed(face):
    for chunk in _chunks():
        face.feed_text(chunk)
    return face.close()


def test_path_stream_scans_every_chunk(expat_chunks):
    expected = XPathStream("//a/b", engine="pathm").evaluate(DOC)
    expat_chunks.clear()
    stream = XPathStream("//a/b")
    assert stream.engine_name == "dfa"
    assert _feed(stream) == expected
    assert expat_chunks == _chunks()


def test_shared_path_multiq_scans_every_chunk(expat_chunks):
    queries = {"b": "//a/b", "c": "//b//c"}
    expected = {name: XPathStream(query).evaluate(DOC) for name, query in queries.items()}
    expat_chunks.clear()
    engine = MultiQueryEngine(queries)
    assert _feed(engine) == expected
    assert expat_chunks == _chunks()


@pytest.mark.parametrize("face", [
    pytest.param(lambda: XPathStream("//a[d]/b"), id="predicate-query"),
    pytest.param(lambda: MultiQueryEngine({"b": "//a/b"},
                                          on_match=lambda *_: None),
                 id="callback-multiq"),
    pytest.param(lambda: XPathStream("//a/b", limits=ResourceLimits(max_depth=64)),
                 id="limited-stream"),
    pytest.param(lambda: MultiQueryEngine({"b": "//a/b"},
                                          limits=ResourceLimits(max_depth=64)),
                 id="limited-multiq-input"),
    pytest.param(lambda: SubstreamExtractor("//a/b"), id="extractor"),
])
def test_strict_faces_parse_every_chunk_with_expat(expat_chunks, face):
    _feed(face())
    assert expat_chunks == _chunks()


def test_lenient_face_parses_every_chunk_with_expat(expat_chunks):
    expected = XPathStream("//a/b").evaluate(DOC)
    expat_chunks.clear()
    stream = XPathStream("//a/b", policy="repair")
    assert _feed(stream) == expected
    assert expat_chunks == _chunks()
