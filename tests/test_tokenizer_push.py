"""Tokenizer push-path units: buffering, fast-skip counters, chunk sources.

Companion to the differential suite (``test_push_equivalence.py``):
these tests pin the *internal* guarantees of the hot-path work — eager
chunk buffering is O(total), unconsumed feeds never lose data, and the
machines' ``characters`` fast-skip counters track value-tested nodes
exactly.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import XPathStream
from repro.core.branchm import BranchM
from repro.core.twigm import TwigM
from repro.errors import ResourceLimitError, XmlSyntaxError
from repro.stream.events import Characters, CountingHandler, EventCollector, StartElement
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import (
    DEFAULT_CHUNK_SIZE,
    XmlTokenizer,
    iter_text_chunks,
    parse_string,
)
from repro.xpath.querytree import compile_query


def big_document(books: int = 3200) -> str:
    parts = ["<catalog>"]
    for index in range(books):
        parts.append(
            f"<book id='b{index}'><title>Volume {index}</title>"
            f"<price>{index % 90}</price></book>"
        )
    parts.append("</catalog>")
    return "".join(parts)


class TestBufferGrowth:
    def test_small_chunk_feed_keeps_buffer_bounded(self):
        """Regression: the retained scan buffer must hold only the
        unconsumed tail, not an ever-growing prefix of the document."""
        text = big_document()
        assert len(text) > 200_000
        tokenizer = XmlTokenizer()
        events = 0
        chunk_size = 512
        for offset in range(0, len(text), chunk_size):
            for _event in tokenizer.feed(text[offset : offset + chunk_size]):
                events += 1
            retained = len(tokenizer._buffer) + sum(
                len(chunk) for chunk in tokenizer._pending
            )
            assert retained <= 2 * chunk_size
        events += len(tokenizer.close())
        assert events == len(list(parse_string(text)))

    def test_undrained_feeds_append_without_copying(self):
        """Feeding without draining must neither drop chunks nor re-join
        the accumulated text per feed (the old quadratic re-copy)."""
        tokenizer = XmlTokenizer()
        chunks = ["<root>", "<a>one</a>", "<b>two</b>"]
        for chunk in chunks:
            tokenizer.feed(chunk)  # generator deliberately not iterated
        # Chunks are held as-is; the single join happens on next drain.
        assert tokenizer._pending == chunks
        assert tokenizer._buffer == ""
        events = list(tokenizer.feed("</root>"))
        collected = [getattr(e, "tag", getattr(e, "text", None)) for e in events]
        assert collected == ["root", "a", "one", "a", "b", "two", "b", "root"]

    def test_undrained_push_chunks_all_arrive(self):
        tokenizer = XmlTokenizer()
        collector = EventCollector()
        for chunk in ("<root><a>x", "</a><b>y</b>", "</root>"):
            tokenizer.feed_into(chunk, collector)
        tokenizer.close_into(collector)
        assert collector.events == list(parse_string("<root><a>x</a><b>y</b></root>"))

    def test_large_document_push_in_small_chunks(self):
        text = big_document(1000)
        expected = len(list(parse_string(text)))
        tokenizer = XmlTokenizer()
        handler = CountingHandler()
        for offset in range(0, len(text), 256):
            tokenizer.feed_into(text[offset : offset + 256], handler)
            assert len(tokenizer._buffer) <= 512
        tokenizer.close_into(handler)
        assert handler.total == expected


class TestPullView:
    """``feed()`` is a view over the one scanner: batched, lazy, exact."""

    def test_parse_string_memory_is_batched(self):
        """Draining a ~2M-character document holds one batch of event
        objects at a time, not the whole document's."""
        text = big_document(29_000)
        assert len(text) > 1_900_000
        tracemalloc.start()
        try:
            count = 0
            for _event in parse_string(text):
                count += 1
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count > 200_000
        assert peak < 2 * 1024 * 1024, f"peak {peak / 1e6:.2f} MB"

    def test_batches_are_yielded_before_the_chunk_is_scanned(self):
        text = big_document(29_000)
        tokenizer = XmlTokenizer()
        events = tokenizer.feed(text)
        next(events)
        assert tokenizer._pos <= 2 * DEFAULT_CHUNK_SIZE
        assert len(list(events)) + 1 == len(list(parse_string(text)))

    def test_buffered_input_limit_checked_once_per_feed(self):
        text = "<a><![CDATA[" + "x" * 150_000 + "]]></a>"
        limits = ResourceLimits(max_buffered_input=100_000)
        tokenizer = XmlTokenizer(limits=limits)
        events = list(tokenizer.feed(text)) + tokenizer.close()
        assert events[1] == Characters("x" * 150_000, 1)
        pushed = EventCollector()
        tokenizer = XmlTokenizer(limits=limits)
        tokenizer.feed_into(text, pushed)
        tokenizer.close_into(pushed)
        assert pushed.events == events
        tokenizer = XmlTokenizer(limits=limits)
        with pytest.raises(ResourceLimitError, match="max_buffered_input"):
            for offset in range(0, len(text), 64 * 1024):
                list(tokenizer.feed(text[offset:offset + 64 * 1024]))

    def test_mid_chunk_error_follows_preceding_events(self):
        """An error in the second batch is raised only after every event
        before it has been yielded, at the same position as always."""
        body = "".join(f"<item n='{i}'>v{i}</item>\n" for i in range(4000))
        text = "<root>\n" + body + "<bad></oops><item>after</item></root>"
        assert len(text) > DEFAULT_CHUNK_SIZE
        events = []
        with pytest.raises(XmlSyntaxError) as error:
            for event in XmlTokenizer().feed(text):
                events.append(event)
        assert (error.value.line, error.value.column) == (4002, 13)
        assert "</oops> does not match open <bad>" in str(error.value)
        assert len(events) == 12_002
        assert events[-1] == StartElement("bad", 2, 4002, {})


class TestCharactersFastSkip:
    def test_twigm_without_value_tests_never_opens(self, book_catalog_xml):
        engine = TwigM(compile_query("//book//title"))
        engine.feed(parse_string(book_catalog_xml))
        assert engine._open_value_entries == 0

    def test_twigm_counter_tracks_value_nodes(self):
        engine = TwigM(compile_query("//book[price < 30]/title"))
        handler = engine.as_handler()
        handler.start_element("book", 1, 1, {})
        assert engine._open_value_entries == 0
        handler.start_element("price", 2, 2, {})
        assert engine._open_value_entries == 1
        handler.characters("25", 3)
        handler.end_element("price", 2)
        assert engine._open_value_entries == 0
        handler.end_element("book", 1)

    def test_twigm_characters_noop_when_closed(self):
        engine = TwigM(compile_query("//book[price < 30]/title"))
        handler = engine.as_handler()
        handler.start_element("book", 1, 1, {})
        handler.characters("stray text", 2)  # no price open: fast path
        assert engine._open_value_entries == 0

    def test_branchm_counter_tracks_value_slots(self):
        engine = BranchM(compile_query("/catalog/book[price < 30]/title"))
        handler = engine.as_handler()
        handler.start_element("catalog", 1, 1, {})
        handler.start_element("book", 2, 2, {})
        assert engine._open_value_slots == 0
        handler.start_element("price", 3, 3, {})
        assert engine._open_value_slots == 1
        handler.characters("10", 4)
        handler.end_element("price", 3)
        assert engine._open_value_slots == 0

    def test_counter_survives_snapshot_restore(self, book_catalog_xml):
        stream = XPathStream("//book[price < 30]//title")
        # Stop mid-<price>: the value node is open at the checkpoint.
        head = book_catalog_xml[: book_catalog_xml.index("<price>") + len("<price>2")]
        stream.feed_text_push(head)
        assert stream.engine._open_value_entries == 1
        resumed = XPathStream.restore(stream.snapshot())
        assert resumed.engine._open_value_entries == 1
        resumed.feed_text_push(book_catalog_xml[len(head) :])
        expected = XPathStream("//book[price < 30]//title").evaluate(book_catalog_xml)
        assert resumed.close() == expected

    def test_reset_clears_counter(self):
        engine = TwigM(compile_query("//book[price < 30]/title"))
        handler = engine.as_handler()
        handler.start_element("book", 1, 1, {})
        handler.start_element("price", 2, 2, {})
        assert engine._open_value_entries == 1
        engine.reset()
        assert engine._open_value_entries == 0


class TestIterTextChunks:
    def test_xml_string_passes_through_whole(self):
        assert list(iter_text_chunks("<a>hi</a>")) == ["<a>hi</a>"]

    def test_path_reads_in_chunks(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a>" + "x" * 100 + "</a>", encoding="utf-8")
        chunks = list(iter_text_chunks(path, chunk_size=16))
        assert "".join(chunks) == path.read_text(encoding="utf-8")
        assert all(len(chunk) <= 16 for chunk in chunks)

    def test_file_object(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b/></a>", encoding="utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            assert "".join(iter_text_chunks(handle)) == "<a><b/></a>"

    def test_chunk_iterable(self):
        assert list(iter_text_chunks(["<a>", "</a>"])) == ["<a>", "</a>"]

    def test_event_stream_rejected(self):
        events = list(parse_string("<a/>"))
        with pytest.raises(TypeError, match="text chunks"):
            list(iter_text_chunks(events))
