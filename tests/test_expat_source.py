"""Differential suite: the tokenizer's Expat path against the Python
scanner.

Under every recovery policy :class:`~repro.stream.tokenizer.XmlTokenizer`
parses with Expat and hands every case Expat could report differently,
and all damaged input, to the Python scanner
(:class:`~repro.bench.hotpath.ReferenceTokenizer`, the same class with
Expat switched off).  For each document, at 1-char, 7-char and 4 KiB
chunkings and under ``strict``, ``skip`` and ``repair``, the two must
deliver identical events and diagnostics, raise identical exceptions
(type, message, line, column) after identical event prefixes, and take
equal snapshots at every chunk boundary (``text_parts`` compared joined);
a restore from any boundary must resume identically on either.  The
documents are a corpus of the constructs where Expat and the scanner
differ, the :mod:`repro.stream.faults` mutants and Hypothesis documents.
Recovery must not depend on the chunking either: every split point of a
damaged corpus reads as the whole document does.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.hotpath import ReferenceTokenizer, reference_events
from repro.core.processor import XPathStream
from repro.errors import ReproError, XmlSyntaxError
from repro.multiq import MultiQueryEngine
from repro.stream.events import Characters, EventCollector, StartElement
from repro.stream.faults import byte_split_chunks, corrupt_text
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import XmlTokenizer, parse_chunks, parse_file, parse_string
from repro.transform.extract import SubstreamExtractor


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
    "<a/>" + "junk " * 12 + "<!-- c -->more",
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

POLICIES = ("strict", "skip", "repair")

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


def _diagnostics(tokenizer: XmlTokenizer) -> list[tuple]:
    return [(d.message, d.line, d.column, d.action) for d in tokenizer.diagnostics]


def run(tokenizer: XmlTokenizer, chunks: list[str]) -> tuple:
    """Feed ``chunks`` and close: (events, snapshot per boundary, error,
    diagnostics)."""
    collector = EventCollector()
    snapshots = []
    error = None
    try:
        for chunk in chunks:
            tokenizer.feed_into(chunk, collector)
            snapshots.append((len(collector.events), _joined(tokenizer.snapshot())))
        tokenizer.close_into(collector)
    except ReproError as exc:
        error = _error(exc)
    return collector.events, snapshots, error, _diagnostics(tokenizer)


def assert_parity(chunks: list[str], **options) -> None:
    """Events, errors, diagnostics and every boundary snapshot agree."""
    expected = run(ReferenceTokenizer(**options), chunks)
    got = run(XmlTokenizer(**options), chunks)
    assert got[0] == expected[0]
    assert got[2] == expected[2]
    assert got[3] == expected[3]
    assert got[1] == expected[1]


def assert_resumes(chunks: list[str], **options) -> None:
    """A restore from every boundary resumes identically on both."""
    limits = options.pop("limits", None)
    reference = ReferenceTokenizer(limits=limits, **options)
    events, _snapshots, error, _diags = run(reference, chunks)
    tokenizer = XmlTokenizer(limits=limits, **options)
    collector = EventCollector()
    for cut, chunk in enumerate(chunks):
        try:
            tokenizer.feed_into(chunk, collector)
        except ReproError:
            return
        blob = json.loads(json.dumps(tokenizer.snapshot()))
        for cls in (XmlTokenizer, ReferenceTokenizer):
            resumed = cls.restore(blob, limits=limits)
            rest = run(resumed, chunks[cut + 1:])
            assert collector.events + rest[0] == events, (cls.__name__, cut)
            assert rest[2] == error, (cls.__name__, cut)
            assert resumed.diagnostic_count == reference.diagnostic_count, (
                cls.__name__, cut)


class TestAgreementWithTokenizer:
    @pytest.mark.parametrize("xml", DOCUMENTS)
    def test_same_events_as_pure_python_tokenizer(self, xml):
        assert list(parse_string(xml)) == reference_events(xml)

    def test_whitespace_skipping_matches(self):
        xml = "<a>\n  <b/>  \n</a>"
        assert list(parse_string(xml)) == reference_events(xml)

    def test_whitespace_kept_matches(self):
        xml = "<a> <b/> </a>"
        assert list(parse_string(xml, skip_whitespace=False)) == reference_events(
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
            reference_events("<a><b></a>")
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
        assert list(parse_file(path)) == reference_events("<a><b/></a>")

    def test_parse_chunks(self):
        chunks = ["<a>", "<b/>", "</a>"]
        assert list(parse_chunks(chunks)) == reference_events(chunks)


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
                        for cls in (XmlTokenizer, ReferenceTokenizer)]
            for _events, _snapshots, error, _diagnostics in outcomes:
                assert error == ("XmlSyntaxError", message, line, column), size
            assert outcomes[0][0] == outcomes[1][0], size

    @pytest.mark.parametrize("doc", [d for d in STRICT_REJECTS if "110000" not in d])
    def test_lenient_policies_still_read_it(self, doc):
        for policy in ("skip", "repair"):
            events, _snapshots, error, _diags = run(XmlTokenizer(policy=policy), [doc])
            assert error is None
            assert [type(event).__name__ for event in events][0] == "StartElement"


class TestDifferential:
    policy = "strict"

    @pytest.mark.parametrize("size", CHUNKINGS)
    @pytest.mark.parametrize("doc", DOCUMENTS + DIVERGENCE_CORPUS + MALFORMED_CORPUS)
    def test_corpus(self, doc, size):
        assert_parity(_chunks(doc, size), policy=self.policy)
        assert_parity(_chunks(doc, size), policy=self.policy, skip_whitespace=False)

    @pytest.mark.parametrize("size", CHUNKINGS)
    @pytest.mark.parametrize("doc", DOCUMENTS + DIVERGENCE_CORPUS + MALFORMED_CORPUS)
    def test_restore_from_every_boundary(self, doc, size):
        assert_resumes(_chunks(doc, size), policy=self.policy)

    @pytest.mark.parametrize("seed", range(60))
    def test_fault_seeds(self, seed):
        mutant, _faults = corrupt_text(BASE_DOCUMENT, seed=seed, faults=1 + seed % 3)
        for size in CHUNKINGS:
            assert_parity(_chunks(mutant, size), policy=self.policy)
        assert_parity(byte_split_chunks(mutant, seed=seed, max_chunk=5), policy=self.policy)

    @pytest.mark.parametrize("seed", range(0, 60, 6))
    def test_fault_seeds_resume(self, seed):
        mutant, _faults = corrupt_text(BASE_DOCUMENT, seed=seed, faults=1 + seed % 3)
        assert_resumes(_chunks(mutant, 7), policy=self.policy)

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
            assert_parity(_chunks(BASE_DOCUMENT, size), limits=limits, policy=self.policy)
        assert_resumes(_chunks(BASE_DOCUMENT, 7), limits=limits, policy=self.policy)
        mutant, _faults = corrupt_text(BASE_DOCUMENT, seed=3, faults=3)
        assert_parity(_chunks(mutant, 7), limits=limits, policy=self.policy)

    def test_handler_exception_leaves_the_scanner_state(self):
        """A handler raising mid-chunk leaves the tokenizer where the
        Python scanner would stand, and the parse can go on."""

        class Boom(EventCollector):
            def start_element(self, tag, level, node_id, attributes):
                super().start_element(tag, level, node_id, attributes)
                if node_id == 3:
                    raise RuntimeError(tag)

        outcomes = []
        for cls in (ReferenceTokenizer, XmlTokenizer):
            tokenizer, handler = cls(policy=self.policy), Boom()
            with pytest.raises(RuntimeError):
                tokenizer.feed_into(BASE_DOCUMENT, handler)
            snapshot = _joined(tokenizer.snapshot())
            tokenizer.feed_into("", handler)
            tokenizer.close_into(handler)
            outcomes.append((handler.events, snapshot))
        assert outcomes[0] == outcomes[1]


class TestDifferentialSkip(TestDifferential):
    policy = "skip"


class TestDifferentialRepair(TestDifferential):
    policy = "repair"


#: Damaged documents whose reading must not depend on where the chunks
#: split them: a bad reference inside a text run, text outside the
#: document element, unrecognised markup quoted past its end, an
#: unterminated reference, a quote left open in a tag.
SPLIT_CORPUS = [
    "<a>abc &bogus; def</a>",
    "at<r/>",
    "<r><![Ck><note>x</note></r>",
    "<r><!x y='1'/></r>",
    "<a>x & y</a>",
    "<a>a &x &y z;</a>",
    "<a>&amp;&bogus;&#0;\r\n&lt;</a>",
    "<r/>junk <!-- c --> more",
    "<r/>'<r/>",
    "\n junk\n<r>t</r>",
    "<r><a x='1></r>",
    "<r/>" + "ab " * 20 + "<!-- c -->",
    "<r/>ab" + " " * 40 + "cd<?pi?>",
]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("doc", SPLIT_CORPUS)
def test_every_split_point_reads_as_the_whole(doc, policy):
    """Events, errors and diagnostics (message, position, action) at
    every two-chunk split are those of the whole document."""
    whole = run(ReferenceTokenizer(policy=policy), [doc])
    for cut in range(1, len(doc)):
        for cls in (ReferenceTokenizer, XmlTokenizer):
            events, _snapshots, error, diagnostics = run(
                cls(policy=policy), [doc[:cut], doc[cut:]])
            assert (events, error, diagnostics) == (whole[0], whole[2], whole[3]), (
                cls.__name__, cut)


@pytest.mark.parametrize("limits", [None, ResourceLimits(max_depth=8)],
                         ids=["no-limits", "limits"])
@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("doc", ["<r/>'<r/><!-- c -->", "'<r>t &bogus;</r>'",
                                 "<r>t</r>'<r>x</r>"])
def test_snapshots_and_limit_checks_report_each_diagnostic_once(doc, policy, limits):
    """Expat may hold input the scanner recovers from (it reads a quote
    outside the document element as the start of a literal).  Settling
    that tail for a snapshot or a limits check must not report its
    recovery actions: the tokenizer reports them once, when it reads it."""
    expected = run(ReferenceTokenizer(policy=policy), [doc])[3]
    for cut in range(1, len(doc)):
        reported = []
        tokenizer = XmlTokenizer(policy=policy, limits=limits,
                                 on_diagnostic=reported.append)
        collector = EventCollector()
        for chunk in (doc[:cut], doc[cut:]):
            tokenizer.feed_into(chunk, collector)
            tokenizer.snapshot()
        tokenizer.close_into(collector)
        assert [(d.message, d.line, d.column, d.action) for d in reported] == expected, cut
        assert _diagnostics(tokenizer) == expected, cut
        assert tokenizer.diagnostic_count == len(expected), cut


@pytest.mark.parametrize("policy", POLICIES)
def test_a_quote_outside_the_document_holds_no_input(policy):
    """Expat reads a quote outside the document element as the start of
    a literal and would hold all later input; the scanner takes such a
    tail, so it is read as it comes and a strict error comes with the
    same chunk as the reference's."""
    chunks = _chunks("<r/>'" + "<!-- c -->" * 100, 16)
    fed = []
    for cls in (ReferenceTokenizer, XmlTokenizer):
        tokenizer = cls(policy=policy)
        count = 0
        try:
            for chunk in chunks:
                tokenizer.feed_into(chunk, EventCollector())
                count += 1
                assert len(tokenizer._buffer) < 32, (cls.__name__, count)
        except XmlSyntaxError:
            pass
        fed.append(count)
    assert fed[0] == fed[1]


@pytest.mark.parametrize("policy", POLICIES)
def test_text_outside_the_document_is_held_no_longer_than_its_window(scanned, policy):
    """A long text run after the document element is judged by its
    first 40 characters: a strict error comes with the first chunk that
    holds them, and a lenient policy reports one diagnostic and drops
    the rest as it arrives, so the scanner reads each character about
    once and holds no more than the window, within hardened limits."""
    doc = "<r/>" + "junk text " * 120_000
    chunks = _chunks(doc, 4096)
    quote = "'junk text junk text junk text junk text'"
    for cls in (ReferenceTokenizer, XmlTokenizer):
        del scanned[:]
        tokenizer = cls(policy=policy, limits=ResourceLimits.hardened())
        collector = EventCollector()
        if policy == "strict":
            with pytest.raises(XmlSyntaxError, match=quote):
                tokenizer.feed_into(chunks[0], collector)
            continue
        for chunk in chunks:
            tokenizer.feed_into(chunk, collector)
            assert len(tokenizer._buffer) < 64, cls.__name__
        tokenizer.close_into(collector)
        assert len(collector.events) == 2
        assert _diagnostics(tokenizer) == [(
            f"dropped character data {quote} outside the document element",
            1, 45, "skipped")]
        assert sum(held for _owner, held in scanned) <= 2 * len(doc), cls.__name__


@pytest.fixture
def scanned(monkeypatch):
    """(tokenizer, characters it held) for each scanner pass."""
    passes: list[tuple] = []
    real = XmlTokenizer._scan_into

    def watched(tokenizer, handler):
        passes.append((tokenizer, len(tokenizer._buffer) - tokenizer._pos))
        real(tokenizer, handler)

    monkeypatch.setattr(XmlTokenizer, "_scan_into", watched)
    return passes


@pytest.mark.parametrize("policy", ["skip", "repair"])
@pytest.mark.parametrize("size", CHUNKINGS)
def test_lenient_clean_input_never_reaches_the_scanner(scanned, policy, size):
    tokenizer = XmlTokenizer(policy=policy)
    collector = EventCollector()
    for chunk in _chunks(BASE_DOCUMENT, size):
        tokenizer.feed_into(chunk, collector)
        assert tokenizer._parser is not None
    tokenizer.close_into(collector)
    assert not [held for owner, held in scanned if owner is tokenizer and held]
    assert collector.events == reference_events(BASE_DOCUMENT, policy=policy)


@pytest.mark.parametrize("policy", ["skip", "repair"])
def test_a_parser_is_primed_again_after_damage(scanned, policy):
    """After a damaged chunk the next chunk goes to a fresh parser, but
    not while the scanner still holds the construct Expat failed on."""
    chunks = ["<r><a>x</a>", "<b>&bogus;</b>", "<c/>", "<d x='<", "1'/>",
              "<e/>", "</r>"]
    tokenizer = XmlTokenizer(policy=policy)
    collector = EventCollector()
    on_expat = []
    for chunk in chunks:
        before = len(scanned)
        tokenizer.feed_into(chunk, collector)
        on_expat.append(len(scanned) == before)
    assert on_expat == [True, False, True, False, False, True, True]
    tokenizer.close_into(collector)
    expected = run(ReferenceTokenizer(policy=policy), chunks)
    assert (collector.events, _diagnostics(tokenizer)) == (expected[0], expected[3])


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


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=150, deadline=None)
@given(doc=documents(), size=st.sampled_from(CHUNKINGS), ws=st.booleans())
def test_generated_documents(policy, doc, size, ws):
    assert_parity(_chunks(doc, size), skip_whitespace=ws, policy=policy)


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=150, deadline=None)
@given(junk=st.text(st.sampled_from(list("<>/=\"'&;! abc-?[]\r\né")), max_size=30),
       size=st.sampled_from((1, 7)))
def test_generated_junk(policy, junk, size):
    assert_parity(_chunks(junk, size), policy=policy)


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
    events = reference_events(FACE_DOC)
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
    across the cache clears at a state cap."""
    options = {} if state_cap is None else {"state_cap": state_cap}
    inline = XPathStream("//a//*/b", **options)
    reference = XPathStream("//a//*/b", **options)
    scanner = ReferenceTokenizer()
    handler = reference.push_handler()
    for chunk in _chunks(FACE_DOC, size):
        inline.feed_text(chunk)
        scanner.feed_into(chunk, handler)
        assert inline.snapshot()["machine"] == reference.snapshot()["machine"]
    scanner.close_into(handler)
    assert inline.close() == reference.close()
    assert bool(inline.engine._clears) == (state_cap is not None)
