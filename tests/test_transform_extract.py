"""Tests for substream extraction (repro.transform.extract)."""

import json

import pytest

from repro.bench.hotpath import reference_events
from repro.errors import CheckpointError
from repro.stream.tokenizer import parse_string
from repro.transform.base import coerce_queries
from repro.transform.extract import Fragment, SubstreamExtractor, select

DOC = (
    '<catalog><book id="1"><title>First</title><price>29</price></book>'
    '<book id="2"><title>Second</title><price>45</price></book>'
    "<note>keep</note></catalog>"
)


class TestSelect:
    def test_immediate_query_fragments(self):
        fragments = select(DOC, "//title")
        assert [f.text for f in fragments] == [
            "<title>First</title>",
            "<title>Second</title>",
        ]

    def test_fragments_are_well_formed(self):
        for fragment in select(DOC, "//book"):
            events = list(parse_string(fragment.text, skip_whitespace=False))
            assert events[0].level == 1

    def test_attributes_preserved(self):
        fragments = select(DOC, "//book")
        assert fragments[0].text.startswith('<book id="1">')

    def test_predicate_query_buffers_until_verdict(self):
        fragments = select(DOC, "//book[price]/title")
        assert [f.text for f in fragments] == [
            "<title>First</title>",
            "<title>Second</title>",
        ]

    def test_value_test_filters(self):
        fragments = select(DOC, '//book[title = "Second"]')
        assert len(fragments) == 1
        assert "Second" in fragments[0].text

    def test_no_matches(self):
        assert select(DOC, "//missing") == []

    def test_multiple_queries_named(self):
        fragments = select(DOC, {"t": "//title", "n": "//note"})
        by_query = {}
        for fragment in fragments:
            by_query.setdefault(fragment.query, []).append(fragment.text)
        assert by_query["t"] == ["<title>First</title>",
                                 "<title>Second</title>"]
        assert by_query["n"] == ["<note>keep</note>"]

    def test_nested_matches_both_emitted(self):
        fragments = select("<r><a><a>x</a></a></r>", "//a")
        texts = {f.text for f in fragments}
        assert texts == {"<a><a>x</a></a>", "<a>x</a>"}

    def test_fragment_node_ids_are_document_ids(self):
        fragments = select(DOC, "//note")
        # note is the 8th element in document order.
        assert fragments[0].node_id == 8


class TestPullPushIdentity:
    @pytest.mark.parametrize("query", ["//title", "//book[price]",
                                       '//book[title = "Second"]/price'])
    def test_byte_identical(self, query):
        reference = SubstreamExtractor(query).evaluate(reference_events(DOC))
        assert SubstreamExtractor(query).evaluate(DOC) == reference

    def test_push_chunked_identical(self):
        reference = SubstreamExtractor("//book").evaluate(DOC)
        extractor = SubstreamExtractor("//book")
        for index in range(0, len(DOC), 7):
            extractor.feed_text(DOC[index:index + 7])
        assert extractor.close() == reference


class TestStreamingChunks:
    def test_on_chunk_streams_before_subtree_closes(self):
        seen = []
        extractor = SubstreamExtractor(
            "//book", on_chunk=lambda n, i, c: seen.append(c), chunk_size=4
        )
        prefix = DOC[:DOC.index("</book>")]
        extractor.feed_text(prefix)
        # The first book has not closed, yet chunks already left.
        assert seen
        extractor.feed_text(DOC[len(prefix):])
        extractor.close()
        text = "".join(seen)
        assert text.startswith('<book id="1">')

    def test_on_fragment_events_rebased(self):
        captured = []
        extractor = SubstreamExtractor(
            "//book",
            on_fragment_events=lambda n, i, ev: captured.append(ev),
        )
        extractor.evaluate(DOC)
        events = captured[0]
        assert events[0].level == 1
        assert events[0].node_id == 1
        assert [e.level for e in events if hasattr(e, "node_id")] == [1, 2, 2]


class TestSnapshotRestore:
    def test_mid_fragment_snapshot_resumes_exactly(self):
        reference = SubstreamExtractor("//book", chunk_size=4)
        expected = reference.evaluate(DOC)

        extractor = SubstreamExtractor("//book", chunk_size=4)
        cut = DOC.index("<price>29")  # inside the first book's subtree
        extractor.feed_text(DOC[:cut])
        blob = json.loads(json.dumps(extractor.snapshot()))

        restored = SubstreamExtractor.restore(blob, chunk_size=4)
        restored.feed_text(DOC[cut:])
        assert restored.close() == expected

    def test_snapshot_preserves_counters(self):
        extractor = SubstreamExtractor("//title")
        extractor.evaluate(DOC)
        blob = extractor.snapshot()
        restored = SubstreamExtractor.restore(blob)
        assert restored.fragment_counts == extractor.fragment_counts
        assert restored.fragment_bytes == extractor.fragment_bytes
        assert restored.fragments == extractor.fragments

    def test_restore_rejects_wrong_kind(self):
        extractor = SubstreamExtractor("//title")
        blob = extractor.snapshot()
        blob["kind"] = "other"
        with pytest.raises(CheckpointError):
            SubstreamExtractor.restore(blob)

    def test_restore_rejects_malformed(self):
        with pytest.raises(CheckpointError):
            SubstreamExtractor.restore({"version": 1, "kind": "extract"})


class TestStoreReplay:
    def test_fragments_from_log_replay(self, tmp_path):
        from repro.store.replay import ingest
        from repro.store.replay import replay_into

        path = str(tmp_path / "log")
        ingest(DOC, path)
        extractor = SubstreamExtractor("//book/title")
        replay_into(extractor, path)
        assert [f.text for f in extractor.fragments] == [
            "<title>First</title>",
            "<title>Second</title>",
        ]

    def test_replay_matches_direct_evaluation(self, tmp_path):
        from repro.store.replay import ingest
        from repro.store.replay import replay_into

        path = str(tmp_path / "log")
        ingest(DOC, path)
        direct = SubstreamExtractor("//book").evaluate(DOC)
        extractor = SubstreamExtractor("//book")
        replay_into(extractor, path, close=False)
        assert extractor.close() == direct


def gated_store(tmp_path) -> "tuple[str, str]":
    """A store whose ``<book>`` elements sit in a few of its segments."""
    from repro.store.replay import ingest

    filler = "".join(f"<note>n{i}</note>" for i in range(60))
    text = f"<catalog>{filler}{DOC[9:-10]}{filler}</catalog>"
    path = str(tmp_path / "log")
    chunks = [text[i:i + 32] for i in range(0, len(text), 32)]
    ingest(chunks, path, segment_events=8, sync="none")
    return text, path


class TestReplaySkipping:
    """``replay_into`` skips segments for an extractor (the index's gate
    rule) and for no other handler."""

    def test_extractor_skips_exactly(self, tmp_path):
        from repro.store import ReplayStats
        from repro.store.replay import replay_into

        text, path = gated_store(tmp_path)
        stats = ReplayStats()
        extractor = SubstreamExtractor({"books": "//book", "cheap": "//book[price < 30]/title"})
        fragments = replay_into(extractor, path, stats=stats)
        assert fragments == SubstreamExtractor(
            {"books": "//book", "cheap": "//book[price < 30]/title"}).evaluate(text)
        assert stats.segments_skipped > stats.segments_total // 2
        assert extractor.events_in == stats.events_emitted

    def test_other_handlers_never_skip(self, tmp_path):
        from repro.store import ReplayStats
        from repro.store.replay import replay_into
        from repro.stream.events import EventCollector
        from repro.transform.combinators import Tee
        from repro.transform.rewrite import RewriteEngine, rename

        text, path = gated_store(tmp_path)
        events = list(parse_string(text))
        collector = EventCollector()
        rewrite = RewriteEngine([rename("//book", "entry")])
        tee = Tee(SubstreamExtractor("//book"), EventCollector())
        for handler in (collector, rewrite, tee):
            stats = ReplayStats()
            replay_into(handler, path, stats=stats, close=False)
            assert stats.segments_skipped == 0, handler
            assert stats.events_emitted == len(events), handler
        assert collector.events == events
        assert rewrite.events_in == len(events)
        assert tee.branches[1].events == events


class TestCoerceQueries:
    def test_single_string(self):
        assert coerce_queries("//a") == {"select": "//a"}

    def test_sequence_named_by_source(self):
        assert coerce_queries(["//a", "//b"]) == {"//a": "//a", "//b": "//b"}

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            coerce_queries(["//a", "//a"])

    def test_fragment_dataclass(self):
        fragment = Fragment("q", 3, "<x/>")
        assert fragment.query == "q" and fragment.node_id == 3
