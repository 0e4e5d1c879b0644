"""Differential suite: the strict tokenizer's Expat path against the
Python scanner.

Under the strict policy :class:`~repro.stream.tokenizer.XmlTokenizer`
parses with Expat and hands every case Expat could report differently to
the Python scanner (:class:`tests.conftest.PythonScanner`, the same class
with Expat switched off).  For each document, at 1-char, 7-char and
4 KiB chunkings, the two must deliver identical events, raise identical
exceptions (type, message, line, column) after identical event prefixes,
and take equal snapshots at every chunk boundary (``text_parts``
compared joined); a restore from any boundary must resume identically
on either.  The documents are a corpus of the constructs where Expat and
the scanner differ, the :mod:`repro.stream.faults` mutants and
Hypothesis documents.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.processor import XPathStream
from repro.errors import ReproError, XmlSyntaxError
from repro.multiq import MultiQueryEngine
from repro.stream.events import Characters, EventCollector, StartElement
from repro.stream.faults import byte_split_chunks, corrupt_text
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import XmlTokenizer, parse_chunks, parse_file, parse_string
from repro.transform.extract import SubstreamExtractor

from tests.conftest import PythonScanner, python_events

DOCUMENTS = [
    "<a/>",
    "<a><b/><c/></a>",
    "<a x='1' y='2'><b z='3'>text</b></a>",
    "<a>x &amp; y &lt;z&gt;</a>",
    "<r><a><a><a>deep</a></a></a></r>",
    "<?xml version='1.0'?><a><!-- c --><b>t</b></a>",
    "<a><![CDATA[<raw>]]></a>",
]

#: Where Expat and the Python scanner could part: input Expat rejects
#: (the strict scanner rejects it too, :data:`STRICT_REJECTS`), input
#: Expat reads differently (BOM, DOCTYPE, names), held-back tails (']',
#: '\r', entities, CDATA) and line ends.
DIVERGENCE_CORPUS = [
    "<a>x]y]]z</a>",
    "<a>x]]>y</a>",
    "<a>&#0;</a>",
    "<a>&#xD800;</a>",
    "<a x='<'/>",
    "<a>\x01</a>",
    "<a/><?xml version='1.0'?>",
    "<a><?xml version='1.0'?></a>",
    "  <?xml version='1.0'?><a/>",
    "<a><?123?></a>",
    "<a b='1'c='2'/>",
    "<a><!-- a --->x</a>",
    "<a x='\x01'/>",
    "<a><!--\x01--></a>",
    "<a><?x \x01?></a>",
    "<a><![CDATA[x\x0b]]></a>",
    "<?xml?><a/>",
    "﻿<a/>",
    "<!DOCTYPE a [<!ENTITY e 'v'>]><a>&e;</a>",
    "<!DOCTYPE a SYSTEM 'x.dtd'><a>&foo;</a>",
    "<!DOCTYPE a [<!ATTLIST a k CDATA 'd'>]><a/>",
    "<a·b/>",
    "<é/>",
    "<a é='1'/>",
    "<٣/>",
    "<a>\r\n<b x='1\r\n2' y='\t3\r4'/>\r</a>\r\n",
    "<a><![CDATA[x\r\ny]]]]></a>",
    "<a>&#13;&#10;<b x='&#13;&#9;&lt;'/></a>",
    "<a>\xa0</a>",
    "\xa0<a/>",
    "<a/>\xa0",
    "<a>t</a>junk",
    "<a>x</a>  \r\n <!-- c --> ",
    "<?pi x?><!-- c --><a/><?pi?>",
    "<a:b xmlns:a='u'><a:c a:k='v'/></a:b>",
    "<u>café ☃ \U0001f600</u>",
    "<a>x & y</a>",
    "<a>&#x110000;</a>",
    "<a><b>t</b>\n<c/></a>",
    "<a>x\r",
    "<a><![CDATA[open",
    "<a><!-- open",
]

#: Malformed documents (every one rejected by both).
MALFORMED_CORPUS = [
    "<a><1bad/></a>",
    "<a></b>",
    "<a><b></a>",
    "<a>&nosuch;</a>",
    "<a/><b/>",
    "plain text",
    "<a attr=oops/>",
    "<a><!bogus></a>",
    "<a>< b/></a>",
    "<a attr='x' attr='y'/>",
    "<>",
    "<a",
    "<a>\n  <b>\n</a>",
]

CHUNKINGS = (1, 7, 4096)

BASE_DOCUMENT = (
    "<?xml version='1.0'?><!-- head --><catalog>\r\n"
    "<book id='b1'><title>Streams &amp; Trees</title><price>25</price></book>"
    "<book id='b2' note='x\r\ny'><title>café ☃</title><price>40</price></book>"
    "<note><![CDATA[raw <markup> here]]]></note>"
    "</catalog>\n"
)


def _chunks(text: str, size: int) -> list[str]:
    return [text[i:i + size] for i in range(0, len(text), size)]


def _error(exc: ReproError) -> tuple:
    if isinstance(exc, XmlSyntaxError):
        return type(exc).__name__, exc.raw_message, exc.line, exc.column
    return type(exc).__name__, str(exc)


def _joined(snapshot: dict) -> dict:
    return {**snapshot, "text_parts": "".join(snapshot["text_parts"])}


def run(tokenizer: XmlTokenizer, chunks: list[str]) -> tuple:
    """Feed ``chunks`` and close: (events, snapshot per boundary, error)."""
    collector = EventCollector()
    snapshots = []
    try:
        for chunk in chunks:
            tokenizer.feed_into(chunk, collector)
            snapshots.append((len(collector.events), _joined(tokenizer.snapshot())))
        tokenizer.close_into(collector)
    except ReproError as exc:
        return collector.events, snapshots, _error(exc)
    return collector.events, snapshots, None


def assert_parity(chunks: list[str], **options) -> None:
    """Events, errors and every boundary snapshot agree."""
    expected = run(PythonScanner(**options), chunks)
    got = run(XmlTokenizer(**options), chunks)
    assert got[0] == expected[0]
    assert got[2] == expected[2]
    assert got[1] == expected[1]


def assert_resumes(chunks: list[str], **options) -> None:
    """A restore from every boundary resumes identically on both."""
    limits = options.pop("limits", None)
    events, _snapshots, error = run(PythonScanner(limits=limits, **options), chunks)
    tokenizer = XmlTokenizer(limits=limits, **options)
    collector = EventCollector()
    for cut, chunk in enumerate(chunks):
        try:
            tokenizer.feed_into(chunk, collector)
        except ReproError:
            return
        blob = json.loads(json.dumps(tokenizer.snapshot()))
        for cls in (XmlTokenizer, PythonScanner):
            rest = run(cls.restore(blob, limits=limits), chunks[cut + 1:])
            assert collector.events + rest[0] == events, (cls.__name__, cut)
            assert rest[2] == error, (cls.__name__, cut)


class TestAgreementWithTokenizer:
    @pytest.mark.parametrize("xml", DOCUMENTS)
    def test_same_events_as_pure_python_tokenizer(self, xml):
        assert list(parse_string(xml)) == python_events(xml)

    def test_whitespace_skipping_matches(self):
        xml = "<a>\n  <b/>  \n</a>"
        assert list(parse_string(xml)) == python_events(xml)

    def test_whitespace_kept_matches(self):
        xml = "<a> <b/> </a>"
        assert list(parse_string(xml, skip_whitespace=False)) == python_events(
            xml, skip_whitespace=False
        )


class TestExpatSpecifics:
    def test_incremental_feed(self):
        tokenizer = XmlTokenizer()
        first = list(tokenizer.feed("<a><b>te"))
        rest = list(tokenizer.feed("xt</b></a>")) + tokenizer.close()
        tags = [e.tag for e in first + rest if isinstance(e, StartElement)]
        assert tags == ["a", "b"]
        texts = [e.text for e in first + rest if isinstance(e, Characters)]
        assert texts == ["text"]

    def test_syntax_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as info:
            list(parse_string("<a><b></a>"))
        with pytest.raises(XmlSyntaxError) as reference:
            python_events("<a><b></a>")
        assert _error(info.value) == _error(reference.value)
        assert (info.value.line, info.value.column) == (1, 11)

    def test_incomplete_document_rejected_at_close(self):
        tokenizer = XmlTokenizer()
        list(tokenizer.feed("<a>"))
        with pytest.raises(XmlSyntaxError):
            tokenizer.close()

    def test_parse_file(self, tmp_path):
        path = tmp_path / "d.xml"
        path.write_text("<a><b/></a>")
        assert list(parse_file(path)) == python_events("<a><b/></a>")

    def test_parse_chunks(self):
        chunks = ["<a>", "<b/>", "</a>"]
        assert list(parse_chunks(chunks)) == python_events(chunks)


#: Ill-formed input Expat rejects and the strict scanner rejects too, with
#: its own message and position; lenient policies still read it.
STRICT_REJECTS = {
    "<a>&#0;</a>": ("reference to invalid character &#0;", 1, 8),
    "<a>&#xD800;</a>": ("reference to invalid character &#xD800;", 1, 12),
    "<a>&#x110000;</a>": ("bad character reference &#x110000;", 1, 14),
    "<a x='&#0;'/>": ("reference to invalid character &#0;", 1, 14),
    "<a x='<'/>": ("'<' in the value of attribute 'x' in <a>", 1, 11),
    "<a b='1'c='2'/>": ("no whitespace after attribute 'b' in <a>", 1, 16),
    "<a>x]]>y</a>": ("']]>' not allowed in character data", 1, 5),
    "<a>\x01</a>": ("character '\\x01' not allowed in character data", 1, 4),
    "<a>\uffff</a>": ("character '\\uffff' not allowed in character data", 1, 4),
    "<a/><?xml version='1.0'?>": ("XML declaration not at the start of the document", 1, 5),
    "<a><?xml version='1.0'?></a>": ("XML declaration not at the start of the document", 1, 4),
    "  <?xml version='1.0'?><a/>": ("XML declaration not at the start of the document", 1, 3),
    "<a><?XML x?></a>": ("reserved processing instruction target 'XML'", 1, 4),
    "<a><?123?></a>": ("processing instruction target '123' is not a name", 1, 4),
    "<a><!-- a --->x</a>": ("'--' not allowed inside a comment", 1, 4),
    "<a x='\x01'/>": (
        "character '\\x01' not allowed in the value of attribute 'x' in <a>", 1, 11),
    "<a x=\"b\ufffe\"/>": (
        "character '\\ufffe' not allowed in the value of attribute 'x' in <a>", 1, 12),
    "<a><!--\x01--></a>": ("character '\\x01' not allowed in a comment", 1, 4),
    "<a><?x \x01?></a>": (
        "character '\\x01' not allowed in a processing instruction", 1, 4),
    "<a><![CDATA[x\x0b]]></a>": ("character '\\x0b' not allowed in a CDATA section", 1, 4),
    "<?xml?><a/>": ("XML declaration not well-formed", 1, 1),
    "<?xml encoding='UTF-8'?><a/>": ("XML declaration not well-formed", 1, 1),
    "<?xml version='1.0' standalone='maybe'?><a/>": (
        "XML declaration not well-formed", 1, 1),
}


class TestStrictRejects:
    @pytest.mark.parametrize("doc", list(STRICT_REJECTS))
    def test_strict_rejects_with_the_scanners_message(self, doc):
        message, line, column = STRICT_REJECTS[doc]
        for size in CHUNKINGS:
            outcomes = [run(cls(), _chunks(doc, size))
                        for cls in (XmlTokenizer, PythonScanner)]
            for _events, _snapshots, error in outcomes:
                assert error == ("XmlSyntaxError", message, line, column), size
            assert outcomes[0][0] == outcomes[1][0], size

    @pytest.mark.parametrize("doc", [d for d in STRICT_REJECTS if "110000" not in d])
    def test_lenient_policies_still_read_it(self, doc):
        for policy in ("skip", "repair"):
            events, _snapshots, error = run(XmlTokenizer(policy=policy), [doc])
            assert error is None
            assert [type(event).__name__ for event in events][0] == "StartElement"


class TestDifferential:
    @pytest.mark.parametrize("size", CHUNKINGS)
    @pytest.mark.parametrize("doc", DOCUMENTS + DIVERGENCE_CORPUS + MALFORMED_CORPUS)
    def test_corpus(self, doc, size):
        assert_parity(_chunks(doc, size))
        assert_parity(_chunks(doc, size), skip_whitespace=False)

    @pytest.mark.parametrize("size", CHUNKINGS)
    @pytest.mark.parametrize("doc", DOCUMENTS + DIVERGENCE_CORPUS + MALFORMED_CORPUS)
    def test_restore_from_every_boundary(self, doc, size):
        assert_resumes(_chunks(doc, size))

    @pytest.mark.parametrize("seed", range(60))
    def test_fault_seeds(self, seed):
        mutant, _faults = corrupt_text(BASE_DOCUMENT, seed=seed, faults=1 + seed % 3)
        for size in CHUNKINGS:
            assert_parity(_chunks(mutant, size))
        assert_parity(byte_split_chunks(mutant, seed=seed, max_chunk=5))

    @pytest.mark.parametrize("seed", range(0, 60, 6))
    def test_fault_seeds_resume(self, seed):
        mutant, _faults = corrupt_text(BASE_DOCUMENT, seed=seed, faults=1 + seed % 3)
        assert_resumes(_chunks(mutant, 7))

    @pytest.mark.parametrize("limits", [
        ResourceLimits(max_depth=2),
        ResourceLimits(max_attributes=1),
        ResourceLimits(max_attribute_length=4),
        ResourceLimits(max_text_length=5),
        ResourceLimits(max_total_events=9),
        ResourceLimits(max_buffered_input=12),
    ], ids=lambda limits: next(k for k, v in limits.to_dict().items() if v))
    def test_limits(self, limits):
        for size in CHUNKINGS:
            assert_parity(_chunks(BASE_DOCUMENT, size), limits=limits)
        assert_resumes(_chunks(BASE_DOCUMENT, 7), limits=limits)

    def test_handler_exception_leaves_the_scanner_state(self):
        """A handler raising mid-chunk leaves the tokenizer where the
        Python scanner would stand, and the parse can go on."""

        class Boom(EventCollector):
            def start_element(self, tag, level, node_id, attributes):
                super().start_element(tag, level, node_id, attributes)
                if node_id == 3:
                    raise RuntimeError(tag)

        outcomes = []
        for cls in (PythonScanner, XmlTokenizer):
            tokenizer, handler = cls(), Boom()
            with pytest.raises(RuntimeError):
                tokenizer.feed_into(BASE_DOCUMENT, handler)
            snapshot = _joined(tokenizer.snapshot())
            tokenizer.feed_into("", handler)
            tokenizer.close_into(handler)
            outcomes.append((handler.events, snapshot))
        assert outcomes[0] == outcomes[1]


# -- Hypothesis documents ------------------------------------------------------

_TEXT = st.text(st.sampled_from(list("ab ]\r\n\t&<>;'\"é☃")), max_size=6)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;")


@st.composite
def documents(draw, depth=0):
    tag = draw(st.sampled_from(["a", "b", "x-y", "p:q", "é", "n1"]))
    attrs = "".join(
        f' k{index}="{_escape(draw(_TEXT)).replace(chr(34), "&quot;")}"'
        for index in range(draw(st.integers(0, 2)))
    )
    parts = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.integers(0, 5))
            if kind == 0:
                parts.append(_escape(draw(_TEXT)).replace("]]>", "]]&gt;"))
            elif kind == 1:
                body = draw(_TEXT).replace("]]>", "")
                parts.append(f"<![CDATA[{body}]]>")
            elif kind == 2:
                parts.append("<!-- c -->")
            elif kind == 3:
                parts.append("<?pi data?>")
            else:
                parts.append(draw(documents(depth=depth + 1)))
    body = "".join(parts)
    return f"<{tag}{attrs}>{body}</{tag}>" if body or draw(st.booleans()) \
        else f"<{tag}{attrs}/>"


@settings(max_examples=150, deadline=None)
@given(doc=documents(), size=st.sampled_from(CHUNKINGS), ws=st.booleans())
def test_generated_documents(doc, size, ws):
    assert_parity(_chunks(doc, size), skip_whitespace=ws)


@settings(max_examples=150, deadline=None)
@given(junk=st.text(st.sampled_from(list("<>/=\"'&;! abc-?[]\r\né")), max_size=30),
       size=st.sampled_from((1, 7)))
def test_generated_junk(junk, size):
    assert_parity(_chunks(junk, size))


@settings(max_examples=25, deadline=None)
@given(doc=documents())
def test_generated_restores(doc):
    assert_resumes(_chunks(doc, 7))


# -- faces over the shared text path ----------------------------------------

FACE_DOC = "<r>" + "<a><b><c>text</c></b><d k='v'/></a>" * 40 + "</r>"


@pytest.mark.parametrize("face", [
    pytest.param(lambda: XPathStream("//a/b"), id="path-stream"),
    pytest.param(lambda: MultiQueryEngine({"b": "//a/b", "c": "//b//c"}),
                 id="shared-path-multiq"),
    pytest.param(lambda: XPathStream("//a[d]/b[c = 'text']"), id="predicate-stream"),
    pytest.param(lambda: SubstreamExtractor("//a/b"), id="extractor"),
])
def test_faces_match_the_python_scanner(face):
    """Text fed through the Expat path gives the results the Python
    scanner's events give."""
    events = python_events(FACE_DOC)
    expected = face()
    expected.feed_events(events)
    expected = expected.close()
    fed = face()
    for chunk in _chunks(FACE_DOC, 97):
        fed.feed_text(chunk)
    assert fed.close() == expected


@pytest.mark.parametrize("state_cap", [None, 2], ids=["cached", "cap-trips"])
@pytest.mark.parametrize("size", (1, 7, 97))
def test_inline_automaton_matches_the_event_feed(state_cap, size):
    """A path stream lets the Expat callbacks step its automaton
    inline; its state, counters and results must match the same stream
    fed the Python scanner's events, at every chunk boundary, including
    across a state-cap fallback to the interpreted machine."""
    options = {} if state_cap is None else {"state_cap": state_cap}
    inline = XPathStream("//a//*/b", **options)
    reference = XPathStream("//a//*/b", **options)
    scanner = PythonScanner()
    handler = reference.push_handler()
    for chunk in _chunks(FACE_DOC, size):
        inline.feed_text(chunk)
        scanner.feed_into(chunk, handler)
        assert inline.snapshot()["machine"] == reference.snapshot()["machine"]
    scanner.close_into(handler)
    assert inline.close() == reference.close()
    assert inline.engine.fell_back == (state_cap is not None)
