"""Replay equivalence: recorded history must evaluate byte-identically.

Mirrors ``tests/test_push_equivalence.py``: live evaluation is the
reference; :func:`repro.store.replay.replay` over
the recorded log — cold, from every embedded checkpoint, with and
without index skipping — is the subject.  The corpus is 100+ seeded
random documents plus XMark and the paper's recursive chain, ingested
under seed-derived checkpoint cadences, segment sizes and text
chunkings, so checkpoint/segment boundaries land everywhere.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.bench.hotpath import reference_events
from repro.core.processor import XPathStream
from repro.datasets.xmark import xmark_events
from repro.multiq.engine import MultiQueryEngine
from repro.store import (
    EventLogReader,
    ReplayStats,
    StoreError,
    catch_up,
    ingest,
    interest_for,
    replay,
)
from repro.stream.faults import byte_split_chunks
from repro.stream.recovery import ResourceLimits
from repro.stream.writer import events_to_string

from tests.conftest import chain_xml
from tests.test_push_equivalence import QUERIES, random_document

QUERY_SET = {
    "titles": "//title",
    "cheap": "//book[price < 30]/title",
    "chains": "//a//b",
    "sections": "//section[title]/p",
}


def live_pull(queries: dict, text: str) -> dict:
    """Reference: ReferenceTokenizer events through ``feed_events``."""
    return MultiQueryEngine(queries).evaluate(reference_events(text))


def live_push(queries: dict, text: str) -> dict:
    return MultiQueryEngine(queries).evaluate(text)


def ingest_seeded(tmp_path, text: str, seed: int, queries=QUERY_SET):
    """Ingest under a seed-derived cadence/segmentation/chunking."""
    rng = random.Random(seed)
    chunks = byte_split_chunks(text, seed=seed, max_chunk=rng.randrange(5, 64))
    return ingest(
        chunks,
        str(tmp_path / f"store-{seed}"),
        queries=dict(queries),
        checkpoint_interval=rng.randrange(7, 120),
        segment_events=rng.randrange(8, 96),
        sync="none",
    )


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_documents_every_checkpoint(self, tmp_path, seed):
        text = random_document(seed)
        pull = live_pull(QUERY_SET, text)
        push = live_push(QUERY_SET, text)
        assert pull == push
        result = ingest_seeded(tmp_path, text, seed)
        assert result.results == pull  # live-during-ingest matches live
        store = str(tmp_path / f"store-{seed}")
        # Cold replay of the whole log.
        assert replay(dict(QUERY_SET), store) == pull
        # Replay resumed from *every* embedded checkpoint.
        for checkpoint in result.checkpoints:
            assert replay(None, store, from_checkpoint=checkpoint) == pull, (
                f"checkpoint {checkpoint} diverged"
            )

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_recursive_chain_documents(self, tmp_path, n):
        text = chain_xml(n)
        queries = {"pairs": "//a//b", "deep": "//b//c", "pred": "//a[d]//b[e]/c"}
        pull = live_pull(queries, text)
        assert live_push(queries, text) == pull
        result = ingest_seeded(tmp_path, text, seed=n, queries=queries)
        store = str(tmp_path / f"store-{n}")
        assert result.results == pull
        assert replay(dict(queries), store) == pull
        for checkpoint in result.checkpoints:
            assert replay(None, store, from_checkpoint=checkpoint) == pull

    def test_xmark_corpus(self, tmp_path):
        text = events_to_string(xmark_events(0.002))
        queries = {
            "names": "//item/name",
            "bids": "//open_auction//bidder/increase",
            "people": "//person[name]/emailaddress",
        }
        pull = live_pull(queries, text)
        assert live_push(queries, text) == pull
        result = ingest_seeded(tmp_path, text, seed=42, queries=queries)
        store = str(tmp_path / "store-42")
        assert result.results == pull
        assert replay(dict(queries), store) == pull
        for checkpoint in result.checkpoints:
            assert replay(None, store, from_checkpoint=checkpoint) == pull

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("seed", range(10))
    def test_single_query_replay(self, tmp_path, query, seed):
        text = random_document(seed * 31 + 7)
        expected = XPathStream(query).evaluate(text)
        ingest(text, str(tmp_path / "s"), checkpoint_interval=25,
               segment_events=16, sync="none")
        assert replay(query, str(tmp_path / "s")) == expected
        (tmp_path / "s").rename(tmp_path / f"s-{seed}-{hash(query) & 0xffff}")

    @pytest.mark.parametrize("seed", range(20))
    def test_pull_mode_ingest_equivalent(self, tmp_path, seed):
        """Ingest (one scanner, fused) ≡ the pull-mode reference: events
        from ``ReferenceTokenizer``'s pull view, fed to ``feed_events``."""
        text = random_document(seed + 500)
        result = ingest(text, str(tmp_path / "p"), queries=dict(QUERY_SET),
                        segment_events=32, sync="none")
        expected = reference_events(text)
        engine = MultiQueryEngine(dict(QUERY_SET))
        engine.feed_events(expected)
        assert result.results == engine.results()
        assert result.events == len(expected)
        assert list(EventLogReader(str(tmp_path / "p")).events()) == expected


class TestIndexSkipping:
    def _two_zone_doc(self) -> str:
        """Bulk of the document is irrelevant to the selective query."""
        bulk = "".join(
            f"<book><title>T{i}</title><price>{i % 40}</price></book>"
            for i in range(150)
        )
        rare = "".join(f"<x><y>z{i}</y></x>" for i in range(20))
        return f"<catalog>{bulk}<misc>{rare}</misc></catalog>"

    def test_selective_query_skips_segments_exactly(self, tmp_path):
        text = self._two_zone_doc()
        store = str(tmp_path / "s")
        ingest(text, store, segment_events=64, sync="none")
        stats = ReplayStats()
        skipped = replay("//x/y", store, stats=stats)
        unskipped = replay("//x/y", store, skip=False)
        assert skipped == unskipped == XPathStream("//x/y").evaluate(text)
        assert stats.segments_skipped > 0
        assert stats.skip_ratio >= 0.5  # the bulk zone is provably dead

    def test_wildcard_query_never_skips(self, tmp_path):
        store = str(tmp_path / "s")
        ingest(self._two_zone_doc(), store, segment_events=64, sync="none")
        stats = ReplayStats()
        replay("//catalog//*", store, stats=stats)
        assert stats.segments_skipped == 0

    def test_value_test_needs_text_segments(self, tmp_path):
        # '//x[y = "z5"]/y' needs Characters events; a tags-only segment
        # match is not enough to skip text-bearing segments.
        text = self._two_zone_doc()
        store = str(tmp_path / "s")
        ingest(text, store, segment_events=64, sync="none")
        query = '//x[y = "z5"]/y'
        stats = ReplayStats()
        assert replay(query, store, stats=stats) == XPathStream(query).evaluate(text)

    def test_limited_engine_sees_everything(self, tmp_path):
        store = str(tmp_path / "s")
        ingest(self._two_zone_doc(), store, segment_events=64, sync="none")
        engine = MultiQueryEngine()
        engine.add_query("q", "//x/y", limits=ResourceLimits(max_total_events=10**6))
        tags, wants_all, wants_text = engine.interest()
        assert wants_all  # per-query limits force the unfiltered path
        stats = ReplayStats()
        replay(engine, store, stats=stats)
        assert stats.segments_skipped == 0

    @pytest.mark.parametrize("seed", range(15))
    def test_skipping_never_changes_results(self, tmp_path, seed):
        """Differential: skip=True vs skip=False on mixed random docs."""
        text = random_document(seed + 900)
        store = str(tmp_path / "s")
        ingest(text, store, segment_events=12, sync="none")
        for query in ("//a//b", "//section[title]/p", "//book[price < 30]//title"):
            with_skip = replay(query, store)
            without = replay(query, store, skip=False)
            assert with_skip == without, (seed, query)
        (tmp_path / "s").rename(tmp_path / f"s-{seed}")

    def test_interest_for_shapes(self):
        tags, wants_all, wants_text = interest_for("//book/title")
        assert tags == frozenset({"book", "title"})
        assert not wants_all and not wants_text
        _, wants_all, _ = interest_for("//book//*")
        assert wants_all
        _, _, wants_text = interest_for("//book[price < 30]/title")
        assert wants_text
        tags, _, _ = interest_for({"a": "//x/y", "b": "//p/q"})
        assert tags == frozenset({"x", "y", "p", "q"})


class TestLateQueryCatchUp:
    def _run_split(self, tmp_path, text, initial, late_name, late_query, cut=0.5,
                   limits=None):
        """Ingest; pause mid-stream; splice a late query; finish."""
        from repro.store.log import EventLogWriter

        store = str(tmp_path / "s")
        engine = MultiQueryEngine(initial)
        writer = EventLogWriter(store, segment_events=24, sync="none")
        writer.attach(engine)
        handler = engine.as_handler()
        half = int(len(text) * cut)
        writer.feed(text[:half], handler)
        writer.flush()
        result = catch_up(engine, store, late_name, late_query, limits=limits)
        writer.feed(text[half:], handler)
        writer.finish(handler)
        writer.close()
        return engine, result

    @pytest.mark.parametrize("cut", [0.0, 0.25, 0.5, 0.9])
    def test_spliced_query_matches_from_start(self, tmp_path, cut):
        text = random_document(77)
        initial = {"titles": "//title"}
        engine, result = self._run_split(
            tmp_path, text, initial, "late", "//a//b", cut=cut
        )
        reference = MultiQueryEngine({**initial, "late": "//a//b"})
        assert engine.results() == reference.evaluate(text)
        # position counts all durable events; replayed may be fewer
        # (segments dead to the late query's interest are skipped).
        assert result.position >= result.events_replayed

    @pytest.mark.parametrize("seed", range(10))
    def test_random_documents_random_cuts(self, tmp_path, seed):
        rng = random.Random(seed)
        text = random_document(seed + 300)
        engine, _ = self._run_split(
            tmp_path, text, {"keep": "//title"}, "late",
            "//book[price < 30]/title", cut=rng.random(),
        )
        reference = MultiQueryEngine(
            {"keep": "//title", "late": "//book[price < 30]/title"}
        )
        assert engine.results() == reference.evaluate(text)

    def test_selective_backfill_skips_history(self, tmp_path):
        bulk = "".join(f"<b><t>x{i}</t></b>" for i in range(200))
        text = f"<r>{bulk}<zone><q>hit</q></zone></r>"
        engine, result = self._run_split(
            tmp_path, text, {"all": "//t"}, "late", "//zone/q", cut=0.6
        )
        reference = MultiQueryEngine({"all": "//t", "late": "//zone/q"})
        assert engine.results() == reference.evaluate(text)
        assert result.stats.segments_skipped > 0
        assert result.events_replayed < result.position

    @pytest.mark.parametrize("cut", [0.0, 0.4, 0.8])
    def test_late_path_query_beside_shared_unit(self, tmp_path, cut):
        """A late path query spliced into an engine whose shared DFA unit
        already holds other path queries."""
        text = random_document(31)
        initial = {"titles": "//title", "deep": "//a//b", "cheap": "//book[price < 30]"}
        engine, _ = self._run_split(
            tmp_path, text, initial, "late", "//book//title", cut=cut
        )
        shared = engine.registration("titles").unit
        assert engine.registration("deep").unit is shared
        assert engine.registration("late").unit is not shared
        assert engine.engine_names()["late"] == "dfa"
        reference = MultiQueryEngine({**initial, "late": "//book//title"})
        assert engine.results() == reference.evaluate(text)

    def test_attach_warm_duplicate_name_rejected(self, tmp_path):
        text = random_document(5)
        with pytest.raises(ValueError, match="duplicate"):
            self._run_split(tmp_path, text, {"late": "//title"}, "late", "//a")

    def test_catch_up_with_query_limits(self, tmp_path):
        text = random_document(21)
        engine, _ = self._run_split(
            tmp_path, text, {"keep": "//title"}, "late", "//a//b",
            limits=ResourceLimits(max_total_events=10**6),
        )
        reference = MultiQueryEngine({"keep": "//title"})
        reference.add_query("late", "//a//b",
                            limits=ResourceLimits(max_total_events=10**6))
        assert engine.results() == reference.evaluate(text)


class TestHostileLogLimits:
    """Satellite regression: limits thread through every replay path."""

    def _bomb_store(self, tmp_path) -> str:
        """A store containing CRC-valid depth and text bombs."""
        import os

        from repro.serve.framing import encode_frame
        from repro.store.log import REC_TEXT, EventLogWriter

        store = str(tmp_path / "bomb")
        writer = EventLogWriter(store, sync="none", checkpoint_interval=2)
        engine = MultiQueryEngine({"q": "//r/a"})
        writer.attach(engine)
        writer.feed("<r><a>", engine.as_handler())  # event 2 fires checkpoint 1
        writer.flush()
        active = os.path.join(store, writer._manifest.active)
        bombs = [
            encode_frame(REC_TEXT, b"<x>" * 1000),
            encode_frame(REC_TEXT, b"A" * 100_000),
        ]
        with open(active, "ab") as handle:
            for bomb in bombs:
                handle.write(bomb)
        return store

    def test_cold_replay_bounded(self, tmp_path):
        store = self._bomb_store(tmp_path)
        limits = ResourceLimits(max_depth=64)
        with pytest.raises(Exception, match="max_depth"):
            replay("//r/a", store, limits=limits, skip=False)

    def test_checkpoint_fast_path_bounded(self, tmp_path):
        """The restore-from-checkpoint path must hit the same wall."""
        store = self._bomb_store(tmp_path)
        limits = ResourceLimits(max_depth=64)
        with pytest.raises(Exception, match="max_depth"):
            replay(None, store, from_checkpoint=1, limits=limits)

    def test_text_bomb_bounded(self, tmp_path):
        store = self._bomb_store(tmp_path)
        limits = ResourceLimits(max_depth=10**12, max_text_length=1024)
        with pytest.raises(Exception, match="max_text_length"):
            replay(None, store, from_checkpoint=1, limits=limits)

    def test_event_count_bomb_bounded(self, tmp_path):
        store = str(tmp_path / "many")
        text = "<r>" + "<a/>" * 500 + "</r>"
        ingest(text, store, sync="none")
        with pytest.raises(Exception, match="max_total_events"):
            replay("//a", store, limits=ResourceLimits(max_total_events=50))

    def test_unlimited_replay_still_works(self, tmp_path):
        store = self._bomb_store(tmp_path)
        # Without limits the bombs decode; nothing crashes.
        results = replay("//r/a", store, skip=False)
        assert results == [2]


class TestReplayErrors:
    def test_no_target_no_checkpoint(self, tmp_path):
        ingest("<r/>", str(tmp_path / "s"), sync="none")
        with pytest.raises(StoreError, match="needs a target"):
            replay(None, str(tmp_path / "s"))

    def test_unknown_checkpoint(self, tmp_path):
        ingest("<r/>", str(tmp_path / "s"), sync="none")
        with pytest.raises(StoreError, match="no checkpoint 44"):
            replay(None, str(tmp_path / "s"), from_checkpoint=44)

    def test_engineless_checkpoint_needs_query(self, tmp_path):
        result = ingest("<r><a/></r>", str(tmp_path / "s"), sync="none")
        with pytest.raises(StoreError, match="no embedded engine"):
            replay(None, str(tmp_path / "s"),
                   from_checkpoint=result.checkpoints[-1])

    def test_queries_and_engine_mutually_exclusive(self, tmp_path):
        with pytest.raises(StoreError, match="not both"):
            ingest("<r/>", str(tmp_path / "s"), queries={"q": "//r"},
                   engine=MultiQueryEngine({"q": "//r"}))


#: The oracle's queries: the random documents' vocabulary and the chains'.
ORACLE_QUERIES = {
    **QUERY_SET,
    "pairs": "//a//b",
    "deep": "//b//c",
    "pred": "//a[d]//b[e]/c",
    "nested": "//section//section/p",
}


def oracle_case(seed: int):
    """A seeded document, policy, chunking and log geometry.

    Seeds cycle through plain random documents, deep recursive ones (the
    paper's chains and nested sections) and damaged ones read under a
    lenient policy.
    """
    from repro.stream.faults import corrupt_text

    rng = random.Random(seed)
    kind = seed % 4
    policy = "strict"
    if kind == 0:
        text = random_document(seed + 2000)
    elif kind == 1:
        text = chain_xml(rng.randrange(3, 50))
    elif kind == 2:
        depth = rng.randrange(20, 120)
        text = ("<catalog>" + "<section><title>t</title>" * depth
                + "<p>deep</p>" + "</section>" * depth + "</catalog>")
    else:
        text, _faults = corrupt_text(random_document(seed + 2000), seed=seed,
                                     faults=1 + seed % 3)
        policy = rng.choice(("skip", "repair"))
    chunks = [chunk for chunk in byte_split_chunks(
        text, seed=seed, max_chunk=rng.randrange(3, 300)) if chunk]
    return (text, policy, chunks, rng.randrange(4, 90), rng.randrange(3, 70),
            random.Random(seed ^ 0x5EED))


class TestRandomizedLog:
    """One seeded oracle for the log: live evaluation of the same text.

    Every seed checks, against ``MultiQueryEngine(...).evaluate(text)``
    under the document's policy (result lists: sets and default-mode
    order): the results live during ingest, cold replay, replay from
    every checkpoint with index skipping on and off, replay after
    ``compact``, recovery from a torn tail at every byte of the last
    record, and an event-fed writer's round trip.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_log_matches_live_evaluation(self, tmp_path, seed):
        from repro.store import compact

        text, policy, chunks, segment_events, interval, rng = oracle_case(seed)
        live = MultiQueryEngine(dict(ORACLE_QUERIES), policy=policy).evaluate(text)
        store = str(tmp_path / "store")
        result = ingest(chunks, store, queries=dict(ORACLE_QUERIES), policy=policy,
                        checkpoint_interval=interval, segment_events=segment_events,
                        sync="none")
        assert result.results == live
        assert replay(dict(ORACLE_QUERIES), store) == live
        assert replay(dict(ORACLE_QUERIES), store, skip=False) == live
        for checkpoint in result.checkpoints:
            assert replay(None, store, from_checkpoint=checkpoint) == live, checkpoint
            assert replay(None, store, from_checkpoint=checkpoint, skip=False) == live
        # Compact a copy before a seeded checkpoint; resume from it.
        target = rng.choice(result.checkpoints)
        compacted = str(tmp_path / "compacted")
        shutil.copytree(store, compacted)
        compact(compacted, target, sync="none")
        assert replay(None, compacted, from_checkpoint=target) == live
        assert replay(None, compacted, from_checkpoint=result.checkpoints[-1]) == live

    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_torn_tail_at_every_byte_of_the_last_record(self, tmp_path, seed):
        from repro.serve.framing import DEFAULT_MAX_FRAME, FRAME_HEADER
        from repro.store.log import REC_TEXT, EventLogWriter, _frames

        text, policy, chunks, segment_events, _interval, _rng = oracle_case(seed)
        live = MultiQueryEngine(dict(ORACLE_QUERIES), policy=policy).evaluate(text)
        base = str(tmp_path / "base")
        writer = EventLogWriter(base, segment_events=segment_events, sync="none",
                                policy=policy)
        for chunk in chunks:
            writer.feed(chunk)
        writer.flush()
        active = writer._manifest.active  # abandoned: a crash mid-document
        # The active segment's last frame: a text record, or only the
        # header when the last record rotated the segment.
        *_, (record, payload, size) = _frames(os.path.join(base, active),
                                              DEFAULT_MAX_FRAME)
        start = size - FRAME_HEADER.size - len(payload)
        lost = len(payload.decode("utf-8")) if record == REC_TEXT else 0
        for cut in range(start, size):
            store = str(tmp_path / f"cut-{cut}")
            shutil.copytree(base, store)
            with open(os.path.join(store, active), "r+b") as handle:
                handle.truncate(cut)
            recovered = EventLogWriter(store, segment_events=segment_events,
                                       sync="none", policy=policy)
            assert recovered.text_position == len(text) - lost, cut
            recovered.feed(text[recovered.text_position:])
            recovered.finish()
            recovered.close()
            assert replay(dict(ORACLE_QUERIES), store) == live, cut
            shutil.rmtree(store)

    @pytest.mark.parametrize("seed", range(40))
    def test_event_fed_round_trip(self, tmp_path, seed):
        from repro.store.log import EventLogWriter
        from repro.stream.tokenizer import parse_string

        text, policy, _chunks, segment_events, interval, _rng = oracle_case(seed)
        if policy == "skip":
            policy = "repair"  # skipped damage can leave elements unclosed
        events = list(parse_string(text, policy=policy))
        live = MultiQueryEngine(dict(ORACLE_QUERIES)).evaluate(events)
        store = str(tmp_path / "store")
        engine = MultiQueryEngine(dict(ORACLE_QUERIES))
        writer = EventLogWriter(store, segment_events=segment_events,
                                checkpoint_interval=interval, sync="none")
        writer.attach(engine)
        for event in events:
            engine.feed_events((event,))
            writer.append(event)
        writer.close()
        assert list(EventLogReader(store).events()) == events
        assert replay(dict(ORACLE_QUERIES), store) == live
        for info in EventLogReader(store).checkpoints():
            assert replay(None, store, from_checkpoint=info.id) == live, info
