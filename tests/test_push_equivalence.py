"""Differential suite: the fused pipeline must be byte-identical to the reference.

The reference is :class:`~repro.bench.hotpath.ReferenceTokenizer` — the
tokenizer with its regex fast path switched off, so every tag takes the
char-level slow path — whose pull view's event objects are fed through
the machines' event-stream loop (``feed_events``).  The subject is the
fused pipeline (regex scan → direct machine callbacks) and the pull view
over it.  Every behaviour — emitted events, solution ids, recovery
diagnostics, resource-limit errors, checkpoint round-trips — is compared
over the seed corpora and a few hundred seeded random documents.
"""

from __future__ import annotations

import random

import pytest

from repro import MultiQueryEngine, XPathStream, evaluate
from repro.bench.hotpath import ReferenceTokenizer, reference_events
from repro.core.filtering import FilterSet
from repro.errors import ResourceLimitError, XmlSyntaxError
from repro.stream.events import EventCollector
from repro.stream.faults import byte_split_chunks, corrupt_text
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import XmlTokenizer

from tests.conftest import chain_xml

#: Queries covering all three machines, wildcards, value tests and '//'.
QUERIES = (
    "//a//b",
    "/catalog/book/title",
    "//book[price < 30]//title",
    "//section[title]/p",
    "//*[price]",
    "//book[author/last = 'Chen']/title",
)

VOCAB = ("a", "b", "book", "title", "price", "author", "last", "section", "p")


def random_document(seed: int) -> str:
    """A seeded, well-formed document over the query vocabulary."""
    rng = random.Random(seed)
    parts = ["<catalog>"]
    depth = 1

    def emit(budget: int) -> None:
        nonlocal depth
        for _ in range(budget):
            roll = rng.random()
            tag = rng.choice(VOCAB)
            if roll < 0.45 and depth < 12:
                attrs = ""
                if rng.random() < 0.3:
                    attrs = f" id='n{rng.randrange(100)}'"
                parts.append(f"<{tag}{attrs}>")
                depth += 1
                emit(rng.randrange(0, 4))
                depth -= 1
                parts.append(f"</{tag}>")
            elif roll < 0.6:
                parts.append(f"<{tag}/>")
            elif roll < 0.8:
                parts.append(str(rng.randrange(0, 100)))
            elif roll < 0.9:
                parts.append(f"<!-- c{rng.randrange(10)} -->")
            else:
                parts.append(f"text &amp; {rng.randrange(10)}")

    emit(rng.randrange(3, 10))
    parts.append("</catalog>")
    return "".join(parts)


def reference_side(text: str, chunks=None, **options) -> tuple:
    """(events, diagnostics) from the reference tokenizer's pull view."""
    tokenizer = ReferenceTokenizer(**options)
    events = []
    for chunk in chunks if chunks is not None else [text]:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events, tokenizer.diagnostics


def view_events(text: str, chunks=None, **options) -> tuple:
    """(events, diagnostics) from the fast tokenizer's pull view."""
    tokenizer = XmlTokenizer(**options)
    events = []
    for chunk in chunks if chunks is not None else [text]:
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events, tokenizer.diagnostics


def reference_ids(query: str, text: str, chunks=None, limits=None, **stream_options):
    """Solution ids with reference events fed through ``feed_events``."""
    stream = XPathStream(query, limits=limits, **stream_options)
    tokenizer = ReferenceTokenizer(limits=limits)
    for chunk in chunks if chunks is not None else [text]:
        stream.feed_events(tokenizer.feed(chunk))
    stream.feed_events(tokenizer.close())
    return stream.close()


def push_events(text: str, chunks=None, **options) -> tuple:
    tokenizer = XmlTokenizer(**options)
    collector = EventCollector()
    for chunk in chunks if chunks is not None else [text]:
        tokenizer.feed_into(chunk, collector)
    tokenizer.close_into(collector)
    return collector.events, tokenizer.diagnostics


class TestTokenizerEquivalence:
    def test_seed_corpora(self, book_catalog_xml, figure1_xml):
        for text in (book_catalog_xml, figure1_xml, chain_xml(7)):
            assert push_events(text) == reference_side(text)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_documents(self, seed):
        text = random_document(seed)
        assert push_events(text) == reference_side(text)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_chunkings(self, seed):
        text = random_document(seed)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=7)
        expected = reference_side(text, chunks)
        assert push_events(text, chunks) == expected
        assert view_events(text, chunks) == expected

    @pytest.mark.parametrize("policy", ["skip", "repair"])
    @pytest.mark.parametrize("seed", range(30))
    def test_lenient_policies_on_corrupt_input(self, policy, seed):
        text, _faults = corrupt_text(random_document(seed), seed=seed, faults=3)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=11)
        expected = reference_side(text, chunks, policy=policy)
        assert push_events(text, chunks, policy=policy) == expected
        assert view_events(text, chunks, policy=policy) == expected

    def test_strict_policy_raises_identically(self):
        text = "<root><a><b></a></root>"
        with pytest.raises(XmlSyntaxError) as reference_error:
            reference_side(text)
        with pytest.raises(XmlSyntaxError) as push_error:
            push_events(text)
        with pytest.raises(XmlSyntaxError) as view_error:
            view_events(text)
        assert str(push_error.value) == str(reference_error.value)
        assert str(view_error.value) == str(reference_error.value)

    def test_skip_whitespace_option(self):
        text = "<root>\n  <a>x</a>\n  <b/>\n</root>"
        assert push_events(text, skip_whitespace=True) == reference_side(
            text, skip_whitespace=True
        )
        assert push_events(text, skip_whitespace=False) == reference_side(
            text, skip_whitespace=False
        )


class TestEngineEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_seed_corpus(self, query, book_catalog_xml):
        assert evaluate(query, book_catalog_xml) == reference_ids(
            query, book_catalog_xml
        )

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("seed", range(25))
    def test_random_documents(self, query, seed):
        text = random_document(seed)
        assert evaluate(query, text) == reference_ids(query, text)

    @pytest.mark.parametrize("engine", ["pathm", "twigm"])
    def test_forced_engines(self, engine, figure1_xml):
        expected = reference_ids("//a//b", figure1_xml, engine=engine)
        assert XPathStream("//a//b", engine=engine).evaluate(figure1_xml) == expected

    def test_on_match_streaming_order(self, book_catalog_xml):
        reference_order, push_order = [], []
        reference_ids("//title", book_catalog_xml, on_match=reference_order.append)
        XPathStream("//title", on_match=push_order.append).evaluate(book_catalog_xml)
        assert push_order == reference_order and push_order

    def test_file_source(self, tmp_path, book_catalog_xml):
        path = tmp_path / "catalog.xml"
        path.write_text(book_catalog_xml, encoding="utf-8")
        assert evaluate("//book//title", path) == reference_ids(
            "//book//title", book_catalog_xml
        )

    def test_mixed_pull_push_chunks(self, book_catalog_xml):
        """One tokenizer fed alternately through its pull view and
        :meth:`feed_into` drives one machine exactly as the reference."""
        chunks = byte_split_chunks(book_catalog_xml, seed=5, max_chunk=9)
        stream = XPathStream("//book//title")
        tokenizer = XmlTokenizer()
        for index, chunk in enumerate(chunks):
            if index % 2:
                stream.feed_events(tokenizer.feed(chunk))
            else:
                tokenizer.feed_into(chunk, stream.push_handler())
        stream.feed_events(tokenizer.close())
        assert stream.results == reference_ids("//book//title", book_catalog_xml)


class TestLimitsParity:
    def _limited(self, push: bool, text: str, limits: ResourceLimits):
        if push:
            return XPathStream("//a//b", limits=limits).evaluate(text)
        return reference_ids("//a//b", text, limits=limits)

    @pytest.mark.parametrize(
        "limits",
        [
            ResourceLimits(max_depth=5),
            ResourceLimits(max_total_events=10),
            ResourceLimits(max_attributes=1),
            ResourceLimits(max_attribute_length=3),
        ],
    )
    def test_limit_errors_identical(self, limits, figure1_xml):
        text = figure1_xml.replace("<a>", "<a x='long value' y='2'>", 1)
        reference_error = push_error = None
        try:
            reference_result = self._limited(False, text, limits)
        except ResourceLimitError as exc:
            reference_error = str(exc)
        try:
            push_result = self._limited(True, text, limits)
        except ResourceLimitError as exc:
            push_error = str(exc)
        assert push_error == reference_error
        if reference_error is None:
            assert push_result == reference_result

    def test_generous_limits_do_not_change_results(self, book_catalog_xml):
        limits = ResourceLimits(max_depth=100, max_total_events=100_000)
        assert self._limited(True, book_catalog_xml, limits) == self._limited(
            False, book_catalog_xml, limits
        )


class TestCheckpointMidPush:
    def test_snapshot_restore_between_push_chunks(self, book_catalog_xml):
        expected = reference_ids("//book[price < 30]//title", book_catalog_xml)
        chunks = byte_split_chunks(book_catalog_xml, seed=9, max_chunk=13)
        stream = XPathStream("//book[price < 30]//title")
        half = len(chunks) // 2
        for chunk in chunks[:half]:
            stream.feed_text(chunk)
        resumed = XPathStream.restore(stream.snapshot())
        for chunk in chunks[half:]:
            resumed.feed_text(chunk)
        assert resumed.close() == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_snapshot_every_boundary_random_docs(self, seed):
        text = random_document(seed)
        expected = reference_ids("//a//b", text)
        chunks = byte_split_chunks(text, seed=seed, max_chunk=31)
        for cut in range(len(chunks) + 1):
            stream = XPathStream("//a//b")
            for chunk in chunks[:cut]:
                stream.feed_text(chunk)
            resumed = XPathStream.restore(stream.snapshot())
            for chunk in chunks[cut:]:
                resumed.feed_text(chunk)
            assert resumed.close() == expected, f"cut at chunk {cut}"


class TestMultiQueryAndFilterParity:
    QUERY_SET = {
        "titles": "//title",
        "cheap": "//book[price < 30]/title",
        "chains": "//a//b",
        "wild": "//book//*",
    }

    def _reference_multiq(self, text: str) -> MultiQueryEngine:
        engine = MultiQueryEngine(self.QUERY_SET)
        engine.feed_events(reference_events(text))
        return engine

    def test_multiq_engine(self, book_catalog_xml):
        reference = self._reference_multiq(book_catalog_xml)
        push = MultiQueryEngine(self.QUERY_SET)
        assert push.evaluate(book_catalog_xml) == reference.results()
        assert push.dispatch_stats().events == reference.dispatch_stats().events

    def test_filter_set(self, book_catalog_xml):
        reference = FilterSet(self.QUERY_SET)
        reference.feed_events(reference_events(book_catalog_xml))
        assert FilterSet(self.QUERY_SET).evaluate(book_catalog_xml) == reference.results()

    @pytest.mark.parametrize("seed", range(10))
    def test_multiq_random_documents(self, seed):
        text = random_document(seed)
        push = MultiQueryEngine(self.QUERY_SET)
        assert push.evaluate(text) == self._reference_multiq(text).results()
