"""Sessions: admission, idempotent feeding, checkpoint/resume, result log.

The load-bearing property throughout: a session killed at ANY point and
resumed from its last checkpoint delivers the client a byte-identical
result stream — replayed results regenerate with the same sequence
numbers, undelivered pre-checkpoint results re-send from the log, and
already-held results are suppressed.
"""

from __future__ import annotations

import json

import pytest

from repro.core.processor import XPathStream
from repro.errors import CheckpointError, ResourceLimitError
from repro.serve.session import ServeConfig, Session, SessionRejected, SessionStore
from repro.stream.recovery import ResourceLimits

XML = (
    "<site><open_auctions>"
    + "".join(
        f"<auction><seller>s{i}</seller><price>{i}</price></auction>"
        for i in range(40)
    )
    + "</open_auctions></site>"
)

CONFIG = ServeConfig(checkpoint_interval=2)


def reference(query: str, xml: str = XML) -> list[int]:
    stream = XPathStream(query)
    stream.feed_text(xml)
    return stream.close()


def chunked(xml: str, size: int) -> list[tuple[int, str]]:
    return [(i, xml[i:i + size]) for i in range(0, len(xml), size)]


def collect_session(queries: dict, config: ServeConfig = CONFIG):
    results: list[tuple[str, int, int]] = []
    session = Session.open(
        {"queries": queries}, config,
        lambda name, node_id, seq: results.append((name, node_id, seq)),
    )
    return session, results


class TestAdmission:
    def test_no_queries_rejected(self):
        with pytest.raises(SessionRejected) as info:
            Session.open({}, CONFIG, lambda *a: None)
        assert info.value.payload["code"] == "bad_hello"

    def test_too_many_queries_rejected(self):
        queries = {f"q{i}": "//a" for i in range(CONFIG.max_queries_per_session + 1)}
        with pytest.raises(SessionRejected) as info:
            Session.open({"queries": queries}, CONFIG, lambda *a: None)
        assert info.value.payload["code"] == "too_many_queries"

    def test_unparsable_query_rejected_by_name(self):
        with pytest.raises(SessionRejected) as info:
            Session.open(
                {"queries": {"ok": "//a", "broken": "//a[["}},
                CONFIG, lambda *a: None,
            )
        assert info.value.payload["code"] == "bad_query"
        assert "broken" in info.value.payload["reason"]

    def test_deadline_capped(self):
        config = ServeConfig(deadline_cap=10.0)
        session = Session.open(
            {"queries": {"q": "//a"}, "deadline_ms": 3_600_000},
            config, lambda *a: None, now=1000.0,
        )
        assert session.deadline == pytest.approx(1010.0)
        assert session.deadline_expired(1010.1)
        assert not session.deadline_expired(1009.9)

    def test_reject_payload_is_serializable(self):
        with pytest.raises(SessionRejected) as info:
            Session.open({"queries": {}}, CONFIG, lambda *a: None)
        json.dumps(info.value.payload)  # must not raise


class TestFeeding:
    def test_single_query_matches_reference(self):
        session, results = collect_session({"q": "//auction/seller"})
        for offset, text in chunked(XML, 97):
            session.feed(offset, text)
        done = session.finish()
        assert [r[1] for r in results] == reference("//auction/seller")
        assert done["counts"] == {"q": len(results)}
        assert done["offset"] == len(XML)

    def test_multi_query_matches_reference(self):
        queries = {"sellers": "//auction/seller", "prices": "//auction/price"}
        session, results = collect_session(queries)
        for offset, text in chunked(XML, 131):
            session.feed(offset, text)
        session.finish()
        for name in queries:
            assert [r[1] for r in results if r[0] == name] == reference(queries[name])

    def test_replayed_chunk_is_noop(self):
        session, results = collect_session({"q": "//auction/seller"})
        chunks = chunked(XML, 200)
        session.feed(*chunks[0])
        seen = len(results)
        assert session.feed(*chunks[0]) is False  # exact replay
        assert len(results) == seen

    def test_partial_overlap_feeds_only_suffix(self):
        session, results = collect_session({"q": "//auction/seller"})
        session.feed(0, XML[:500])
        # a chunk straddling the frontier: 400..800 overlaps 400..500
        session.feed(400, XML[400:800])
        session.feed(800, XML[800:])
        session.finish()
        assert [r[1] for r in results] == reference("//auction/seller")

    def test_gap_raises(self):
        session, _ = collect_session({"q": "//a"})
        session.feed(0, "<site>")
        with pytest.raises(CheckpointError, match="input gap"):
            session.feed(100, "<x/>")

    def test_feed_after_finish_raises(self):
        session, _ = collect_session({"q": "//a"})
        session.feed(0, "<a/>")
        session.finish()
        with pytest.raises(CheckpointError, match="finished"):
            session.feed(4, "<b/>")

    def test_result_backlog_bounded(self):
        config = ServeConfig(max_result_backlog=5)
        session, _ = collect_session({"q": "//auction/seller"}, config)
        with pytest.raises(ResourceLimitError) as info:
            for offset, text in chunked(XML, 4096):
                session.feed(offset, text)
        assert info.value.limit == "max_result_backlog"
        assert info.value.configured == 5
        assert session.token in str(info.value)


#: 50 nested ``<a>`` elements, each with two attributes, a text run and
#: an empty ``<b/>``: ``//a[c]//b`` buffers every ``b`` as a candidate
#: that never resolves.
NESTED = '<a k="vv" j="ww">tt<b/>' * 50 + "</a>" * 50

#: One small bound per ResourceLimits field, each crossed by NESTED fed
#: in 7-character chunks.
SMALL_LIMITS = {
    "max_depth": 3,
    "max_attributes": 1,
    "max_attribute_length": 1,
    "max_text_length": 1,
    "max_buffered_input": 4,
    "max_total_events": 20,
    "max_buffered_candidates": 3,
}


def _limit_hit(queries: dict, config: ServeConfig) -> "str | None":
    """Feed NESTED to a fresh session; the limit it raised, or None."""
    session, _ = collect_session(queries, config)
    try:
        for offset, text in chunked(NESTED, 7):
            session.feed(offset, text)
        session.finish()
    except ResourceLimitError as exc:
        return exc.limit
    return None


class TestLimits:
    """A one-query session enforces exactly what the same query beside a
    second one does: ``limits`` bound the input stream, ``query_limits``
    each query's machine."""

    @pytest.mark.parametrize("field", sorted(SMALL_LIMITS))
    @pytest.mark.parametrize("layer", ["limits", "query_limits"])
    def test_single_matches_multi(self, field, layer):
        config = ServeConfig(
            **{layer: ResourceLimits(**{field: SMALL_LIMITS[field]})}
        )
        single = _limit_hit({"q": "//a[c]//b"}, config)
        multi = _limit_hit({"q": "//a[c]//b", "other": "//zzz"}, config)
        assert single == multi
        machine_field = field in (
            "max_depth", "max_total_events", "max_buffered_candidates"
        )
        stream_field = field != "max_buffered_candidates"
        raised = machine_field if layer == "query_limits" else stream_field
        assert multi == (field if raised else None)

    def test_resumed_single_keeps_admitted_limits(self):
        config = ServeConfig(
            limits=ResourceLimits(max_depth=40),
            query_limits=ResourceLimits(max_depth=60,
                                        max_buffered_candidates=30),
        )
        session, _ = collect_session({"q": "//a[c]//b"}, config)
        session.feed(0, NESTED[:100])
        blob = json.loads(json.dumps(session.checkpoint()))
        assert blob["engine"]["limits"]["max_depth"] == 40
        assert blob["engine"]["limits"]["max_buffered_candidates"] == 30
        resumed = Session.resume(blob, ServeConfig(), lambda *a: None)
        with pytest.raises(ResourceLimitError) as info:
            for offset, text in chunked(NESTED, 7):
                resumed.feed(offset, text)
        assert info.value.limit == "max_buffered_candidates"


class TestCheckpointResume:
    """Kill-and-resume differential: every checkpoint boundary, every
    acknowledgement state, byte-identical output."""

    def run_uninterrupted(self, queries: dict, size: int):
        session, results = collect_session(queries)
        for offset, text in chunked(XML, size):
            session.feed(offset, text)
        session.finish()
        return results

    def test_resume_at_every_chunk_boundary(self):
        queries = {"s": "//auction/seller", "p": "//auction/price"}
        size = 157
        expected = self.run_uninterrupted(queries, size)
        chunks = chunked(XML, size)
        for kill_at in range(1, len(chunks)):
            session, results = collect_session(queries)
            for offset, text in chunks[:kill_at]:
                session.feed(offset, text)
            blob = json.loads(json.dumps(session.checkpoint()))
            # The client acked everything it received; connection dies.
            delivered = list(results)
            resumed_results: list = []
            resumed = Session.resume(
                blob, CONFIG,
                lambda n, i, s: resumed_results.append((n, i, s)),
                last_result_seq=delivered[-1][2] if delivered else 0,
            )
            assert resumed.pending_replay == []  # client holds the log
            for offset, text in chunks:  # full replay from zero
                resumed.feed(offset, text)
            resumed.finish()
            assert delivered + resumed_results == expected, f"kill at {kill_at}"

    def test_resume_with_lost_results_resends_log_tail(self):
        """Results emitted before the checkpoint but never delivered come
        back from the unacknowledged-result log, verbatim."""
        queries = {"s": "//auction/seller"}
        size = 101
        expected = self.run_uninterrupted(queries, size)
        chunks = chunked(XML, size)
        session, results = collect_session(queries)
        for offset, text in chunks[:8]:
            session.feed(offset, text)
        blob = json.loads(json.dumps(session.checkpoint()))
        assert len(results) > 4
        # Client only received (and acked) the first 3 results; the rest
        # were in flight when the connection died.
        held = results[:3]
        lost = results[3:]
        resumed_results: list = []
        resumed = Session.resume(
            blob, CONFIG,
            lambda n, i, s: resumed_results.append((n, i, s)),
            last_result_seq=held[-1][2],
        )
        replayed = [(n, i, s) for s, n, i in resumed.pending_replay]
        assert replayed == lost  # the log tail is exactly what was lost
        for offset, text in chunks:
            resumed.feed(offset, text)
        resumed.finish()
        assert held + replayed + resumed_results == expected

    def test_mid_chunk_checkpoint_resumes_exactly(self):
        """Checkpoint with the tokenizer mid-construct (chunk split inside
        a tag): the snapshot carries the partial parse."""
        queries = {"s": "//auction/seller"}
        expected = self.run_uninterrupted(queries, 173)
        session, results = collect_session(queries)
        # split inside a tag name: feed an uneven prefix
        cut = XML.index("<seller>", 300) + 4  # mid-'<sel|ler>'
        session.feed(0, XML[:cut])
        blob = json.loads(json.dumps(session.checkpoint()))
        delivered = list(results)
        resumed_results: list = []
        resumed = Session.resume(
            blob, CONFIG,
            lambda n, i, s: resumed_results.append((n, i, s)),
            last_result_seq=delivered[-1][2] if delivered else 0,
        )
        resumed.feed(cut, XML[cut:])
        resumed.finish()
        assert delivered + resumed_results == expected

    def test_rack_trims_log(self):
        session, results = collect_session({"s": "//auction/seller"})
        for offset, text in chunked(XML, 500):
            session.feed(offset, text)
        assert len(session.result_log) == len(results)
        mid_seq = results[len(results) // 2][2]
        session.rack(mid_seq)
        assert all(entry[0] > mid_seq for entry in session.result_log)
        session.rack(results[-1][2])
        assert session.result_log == []
        # stale RACKs are ignored
        session.rack(1)
        assert session.client_seq == results[-1][2]

    def test_version_mismatch_rejected(self):
        session, _ = collect_session({"q": "//a"})
        blob = session.checkpoint()
        blob["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            Session.resume(blob, CONFIG, lambda *a: None)

    def test_malformed_blob_rejected(self):
        session, _ = collect_session({"q": "//a"})
        blob = session.checkpoint()
        del blob["engine"]
        with pytest.raises(CheckpointError, match="malformed"):
            Session.resume(blob, CONFIG, lambda *a: None)

    def test_checkpoint_cadence(self):
        config = ServeConfig(checkpoint_interval=3)
        session, _ = collect_session({"q": "//auction/seller"}, config)
        chunks = chunked(XML, 300)
        for i, (offset, text) in enumerate(chunks[:5]):
            session.feed(offset, text)
        assert session.should_checkpoint()  # 5 >= 3
        session.checkpoint()
        assert not session.should_checkpoint()
        assert session.acked_offset == session.input_offset


class TestSessionStore:
    def test_memory_round_trip(self):
        store = SessionStore(ttl=60)
        store.put("abc123", {"version": 1, "x": [1, 2]})
        assert store.get("abc123") == {"version": 1, "x": [1, 2]}
        store.delete("abc123")
        assert store.get("abc123") is None

    def test_disk_spool_survives_fresh_store(self, tmp_path):
        spool = str(tmp_path / "spool")
        store = SessionStore(ttl=60, spool_dir=spool)
        store.put("deadbeef", {"version": 1, "offset": 42})
        # a different store over the same spool (a restarted worker)
        fresh = SessionStore(ttl=60, spool_dir=spool)
        assert fresh.get("deadbeef") == {"version": 1, "offset": 42}

    def test_hostile_token_rejected(self, tmp_path):
        store = SessionStore(ttl=60, spool_dir=str(tmp_path))
        with pytest.raises(CheckpointError, match="malformed session token"):
            store.put("../../etc/passwd", {"version": 1})
        assert store.get("../escape") is None

    def test_sweep_expires(self):
        store = SessionStore(ttl=10)
        store.put("aa", {"v": 1}, now=0.0)
        store.put("bb", {"v": 2}, now=100.0)
        assert store.sweep(now=50.0) == 1
        assert store.get("aa") is None
        assert store.get("bb") is not None
