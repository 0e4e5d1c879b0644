"""Tests for the incremental XML tokenizer (input parses with Expat;
``tests/test_expat_source.py`` holds it to the Python scanner)."""

import io
import sys

import pytest

from repro.bench.hotpath import ReferenceTokenizer
from repro.errors import XmlSyntaxError
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.tokenizer import (
    XmlTokenizer,
    events_from,
    parse_chunks,
    parse_file,
    parse_string,
)



def kinds(events):
    return [type(event).__name__ for event in events]


class TestBasicParsing:
    def test_single_element(self):
        events = list(parse_string("<a></a>"))
        assert events == [StartElement("a", 1, 1, {}), EndElement("a", 1)]

    def test_self_closing(self):
        events = list(parse_string("<a/>"))
        assert events == [StartElement("a", 1, 1, {}), EndElement("a", 1)]

    def test_nesting_levels(self):
        events = list(parse_string("<a><b><c/></b></a>"))
        starts = [e for e in events if isinstance(e, StartElement)]
        assert [(e.tag, e.level) for e in starts] == [("a", 1), ("b", 2), ("c", 3)]

    def test_preorder_ids(self):
        events = list(parse_string("<a><b/><c><d/></c></a>"))
        starts = [e for e in events if isinstance(e, StartElement)]
        assert [(e.tag, e.node_id) for e in starts] == [
            ("a", 1), ("b", 2), ("c", 3), ("d", 4),
        ]

    def test_text_content(self):
        events = list(parse_string("<a>hello</a>"))
        assert events[1] == Characters("hello", 1)

    def test_whitespace_skipped_by_default(self):
        events = list(parse_string("<a>\n  <b/>\n</a>"))
        assert kinds(events) == ["StartElement", "StartElement", "EndElement", "EndElement"]

    def test_whitespace_kept_on_request(self):
        events = list(parse_string("<a> <b/> </a>", skip_whitespace=False))
        assert kinds(events) == [
            "StartElement", "Characters", "StartElement",
            "EndElement", "Characters", "EndElement",
        ]

    def test_text_level_is_containing_element(self):
        events = list(parse_string("<a><b>t</b></a>"))
        chars = [e for e in events if isinstance(e, Characters)]
        assert chars == [Characters("t", 2)]

    def test_sibling_elements(self):
        starts = [e for e in parse_string("<r><a/><a/><a/></r>")
                  if isinstance(e, StartElement)]
        assert [e.node_id for e in starts] == [1, 2, 3, 4]


class TestAttributes:
    def test_double_and_single_quotes(self):
        (start, _end) = parse_string("<a x=\"1\" y='2'/>")
        assert start.attributes == {"x": "1", "y": "2"}

    def test_whitespace_around_equals(self):
        (start, _end) = parse_string("<a x = '1'/>")
        assert start.attributes == {"x": "1"}

    def test_entity_in_attribute(self):
        (start, _end) = parse_string("<a x='a&amp;b'/>")
        assert start.attributes == {"x": "a&b"}

    def test_gt_inside_attribute_value(self):
        (start, _end) = parse_string("<a x='1>2'/>")
        assert start.attributes == {"x": "1>2"}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlSyntaxError, match="duplicate"):
            list(parse_string("<a x='1' x='2'/>"))

    def test_unquoted_value_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unquoted"):
            list(parse_string("<a x=1/>"))

    def test_missing_value_rejected(self):
        with pytest.raises(XmlSyntaxError, match="no value"):
            list(parse_string("<a x></a>"))

    @pytest.mark.parametrize("cls", [XmlTokenizer, ReferenceTokenizer],
                             ids=["expat", "scanner"])
    def test_line_ends_normalised_before_whitespace(self, cls):
        """XML 1.0 normalises line ends (2.11) before attribute values
        (3.3.3): a literal CR LF is one line end, so one space."""
        tokenizer = cls()
        start, _end = list(tokenizer.feed("<a x=\"1\r\n2\" y='3\r4' z='\t&#13;'/>"))
        assert start.attributes == {"x": "1 2", "y": "3 4", "z": " \r"}
        tokenizer.close()


class TestEntities:
    @pytest.mark.parametrize(
        "raw, decoded",
        [
            ("&amp;", "&"),
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&apos;", "'"),
            ("&quot;", '"'),
            ("&#65;", "A"),
            ("&#x41;", "A"),
        ],
    )
    def test_predefined_and_numeric(self, raw, decoded):
        events = list(parse_string(f"<a>{raw}</a>"))
        assert events[1].text == decoded

    def test_mixed_text_and_entities(self):
        events = list(parse_string("<a>x &amp; y</a>"))
        assert events[1].text == "x & y"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlSyntaxError, match="unknown entity"):
            list(parse_string("<a>&nope;</a>"))

    def test_bad_char_reference_rejected(self):
        with pytest.raises(XmlSyntaxError, match="bad character reference"):
            list(parse_string("<a>&#xZZ;</a>"))


class TestMiscMarkup:
    def test_xml_declaration_skipped(self):
        events = list(parse_string("<?xml version='1.0'?><a/>"))
        assert kinds(events) == ["StartElement", "EndElement"]

    def test_comment_skipped(self):
        events = list(parse_string("<a><!-- note --><b/></a>"))
        assert kinds(events) == ["StartElement", "StartElement", "EndElement", "EndElement"]

    def test_double_dash_in_comment_rejected(self):
        with pytest.raises(XmlSyntaxError, match="comment"):
            list(parse_string("<a><!-- x -- y --></a>"))

    def test_processing_instruction_skipped(self):
        events = list(parse_string("<a><?pi data?></a>"))
        assert kinds(events) == ["StartElement", "EndElement"]

    def test_cdata_is_raw_text(self):
        events = list(parse_string("<a><![CDATA[<not&markup>]]></a>"))
        assert events[1].text == "<not&markup>"

    def test_doctype_skipped(self):
        events = list(parse_string("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>"))
        assert kinds(events) == ["StartElement", "EndElement"]

    def test_doctype_without_subset(self):
        events = list(parse_string('<!DOCTYPE html SYSTEM "x.dtd"><a/>'))
        assert kinds(events) == ["StartElement", "EndElement"]


class TestErrors:
    def test_mismatched_close(self):
        with pytest.raises(XmlSyntaxError, match="does not match"):
            list(parse_string("<a></b>"))

    def test_text_outside_root(self):
        with pytest.raises(XmlSyntaxError, match="outside"):
            list(parse_string("junk<a/>"))

    def test_second_root(self):
        with pytest.raises(XmlSyntaxError, match="second document element"):
            list(parse_string("<a/><b/>"))

    def test_unclosed_element(self):
        with pytest.raises(XmlSyntaxError, match="still open"):
            list(parse_string("<a><b></b>"))

    def test_empty_input(self):
        with pytest.raises(XmlSyntaxError, match="no element"):
            list(parse_string(""))

    def test_bad_tag_name(self):
        with pytest.raises(XmlSyntaxError, match="malformed tag name"):
            list(parse_string("<1a/>"))

    def test_lt_inside_tag(self):
        with pytest.raises(XmlSyntaxError, match="inside a tag"):
            list(parse_string("<a <b/>"))

    def test_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as info:
            list(parse_string("<a>\n<b></c></a>"))
        assert info.value.line == 2

    def test_end_tag_without_open(self):
        with pytest.raises(XmlSyntaxError, match="without open element"):
            list(parse_string("</a>"))


class TestIncrementalFeeding:
    def test_chunked_equals_whole(self):
        xml = "<root a='1'><x>text &amp; more</x><!--c--><y/></root>"
        whole = list(parse_string(xml))
        for size in (1, 2, 3, 7):
            chunks = [xml[i:i + size] for i in range(0, len(xml), size)]
            assert list(parse_chunks(chunks)) == whole, f"chunk size {size}"

    def test_entity_split_across_chunks(self):
        events = list(parse_chunks(["<a>x&a", "mp;y</a>"]))
        assert events[1].text == "x&y"

    def test_tag_split_across_chunks(self):
        events = list(parse_chunks(["<roo", "t><a", "/></root>"]))
        starts = [e.tag for e in events if isinstance(e, StartElement)]
        assert starts == ["root", "a"]

    def test_comment_split_across_chunks(self):
        events = list(parse_chunks(["<a><!-", "- hi --", "><b/></a>"]))
        assert kinds(events) == ["StartElement", "StartElement", "EndElement", "EndElement"]

    def test_feed_after_close_rejected(self):
        tokenizer = XmlTokenizer()
        list(tokenizer.feed("<a/>"))
        tokenizer.close()
        with pytest.raises(XmlSyntaxError, match="after close"):
            list(tokenizer.feed("<b/>"))

    def test_close_is_idempotent(self):
        tokenizer = XmlTokenizer()
        list(tokenizer.feed("<a/>"))
        tokenizer.close()
        tokenizer.close()

    def test_depth_property(self):
        tokenizer = XmlTokenizer()
        list(tokenizer.feed("<a><b>"))
        assert tokenizer.depth == 2

    def test_buffer_is_compacted_between_feeds(self):
        tokenizer = XmlTokenizer()
        list(tokenizer.feed("<a>" + "x" * 10_000))
        # Text was emitted; only an empty (or tiny) tail may remain.
        assert len(tokenizer._buffer) < 100


class TestHeldInputIsReadOnce:
    """An unfinished tag or DOCTYPE held across many feeds is searched on
    from where the last feed stopped, never again from its start: the
    lines the scanner's tag and DOCTYPE searches run (a loop turn per
    character or bracket examined) grow linearly with the held input."""

    @pytest.fixture
    def examined(self):
        count = [0]
        searches = {XmlTokenizer._find_tag_end.__code__,
                    XmlTokenizer._doctype_end.__code__}

        def count_lines(frame, event, _arg):
            if event == "line":
                count[0] += 1
            return count_lines

        def calls(frame, _event, _arg):
            return count_lines if frame.f_code in searches else None

        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            yield count
        finally:
            sys.settrace(previous)

    @pytest.mark.parametrize("cls", [XmlTokenizer, ReferenceTokenizer],
                             ids=["expat", "scanner"])
    @pytest.mark.parametrize("held", [
        # One stray quote in a tag: the rest of the input is quoted.
        "<r><a x='1'' y='2'>" + "text " * 600,
        "<r><a " + " ".join(f"k{i}='v'" for i in range(300)),
        "<!DOCTYPE r [" + "<!ENTITY e 'v'>" * 200,
    ], ids=["open-quote", "long-tag", "doctype"])
    def test_one_char_feeds(self, examined, cls, held):
        tokenizer = cls(policy="skip")
        for char in held:
            list(tokenizer.feed(char))
        assert 0 < examined[0] <= 20 * len(held)

    MARKUP = [("<!--", "-->"), ("<![CDATA[", "]]>"), ("<?pi ", "?>")]

    @pytest.mark.parametrize("cls", [XmlTokenizer, ReferenceTokenizer],
                             ids=["expat", "scanner"])
    @pytest.mark.parametrize("opener, closer", MARKUP, ids=["comment", "cdata", "pi"])
    def test_held_markup_is_searched_on(self, cls, opener, closer):
        """The scanner's search for a comment's, CDATA section's or PI's
        end resumes where the last feed stopped: the characters its
        ``find`` calls pass over grow linearly with the held input (a
        line count cannot see inside ``str.find``)."""
        searched = [0]

        class Counting(str):
            def find(self, sub, start=0, end=sys.maxsize):
                index = str.find(self, sub, start, end)
                searched[0] += (len(self) if index < 0 else index + len(sub)) - start
                return index

            def __add__(self, other):
                return Counting(str.__add__(self, other))

        text = "<r>" + opener + "data " * 40_000 + closer + "</r>"
        tokenizer = cls(policy="skip")
        events = []
        for start in range(0, len(text), 1024):
            tokenizer._buffer = Counting(tokenizer._buffer)
            events += tokenizer.feed(text[start:start + 1024])
        events += tokenizer.close()
        assert [type(event).__name__ for event in events][0] == "StartElement"
        assert 0 < searched[0] <= 3 * len(text)

    @pytest.mark.parametrize("opener, closer", MARKUP, ids=["comment", "cdata", "pi"])
    def test_expat_holds_markup_for_one_piece(self, monkeypatch, opener, closer):
        """Expat parses the input it holds again at every piece; past
        one piece's worth the scanner takes a held construct over, so
        the held input Expat is handed grows linearly too."""
        held = [0]
        parse_piece = XmlTokenizer._parse_piece

        def counting(tokenizer, data, handler):
            held[0] += len(tokenizer._buffer)
            parse_piece(tokenizer, data, handler)

        monkeypatch.setattr(XmlTokenizer, "_parse_piece", counting)
        text = "<r>" + opener + "data " * 200_000 + closer + "<a/></r>"
        tokenizer = XmlTokenizer(policy="skip")
        events = []
        for start in range(0, len(text), 4096):
            events += tokenizer.feed(text[start:start + 4096])
        events += tokenizer.close()
        reference = ReferenceTokenizer(policy="skip")
        assert events == list(reference.feed(text)) + reference.close()
        assert 0 < held[0] <= len(text)


class TestSourceDispatch:
    def test_events_from_xml_text(self):
        assert kinds(events_from("<a/>")) == ["StartElement", "EndElement"]

    def test_events_from_path(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b/></a>")
        assert len(list(events_from(str(path)))) == 4

    def test_events_from_file_object(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a/>")
        with open(path) as handle:
            assert kinds(events_from(handle)) == ["StartElement", "EndElement"]

    def test_events_from_chunk_iterable(self):
        assert kinds(events_from(iter(["<a", "/>"]))) == ["StartElement", "EndElement"]

    def test_events_from_event_iterable_passthrough(self):
        events = list(parse_string("<a/>"))
        assert list(events_from(iter(events))) == events

    def test_parse_file_small_chunks(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a>" + "<b>t</b>" * 50 + "</a>")
        whole = list(parse_file(path))
        chunked = list(parse_file(path, chunk_size=3))
        assert chunked == whole

    def test_stringio_source(self):
        handle = io.StringIO("<a/>")
        assert kinds(events_from(handle)) == ["StartElement", "EndElement"]
