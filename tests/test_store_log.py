"""The framed segment log: rotation, recovery, manifest, compaction, sync."""

from __future__ import annotations

import json
import os

import pytest

from repro.serve.framing import encode_frame
from repro.store.log import (
    MANIFEST_NAME,
    REC_CHECKPOINT,
    REC_EVENT,
    REC_TEXT,
    EventLogReader,
    EventLogWriter,
    ReplayStats,
    StoreError,
    compact,
)
from repro.store.sync import SyncPolicy
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string

from tests.test_push_equivalence import random_document


def write_document(path, text, *, segment_events=64, checkpoint_interval=0,
                   sync="none", close=True):
    writer = EventLogWriter(
        path, segment_events=segment_events,
        checkpoint_interval=checkpoint_interval, sync=sync,
    )
    events = list(parse_string(text))
    writer.extend(events)
    if close:
        writer.close()
    return writer, events


class TestWriterReader:
    def test_round_trip_single_segment(self, tmp_path):
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(3), segment_events=10_000)
        reader = EventLogReader(store)
        assert list(reader.events()) == events
        assert reader.position == len(events)

    def test_rotation_preserves_order(self, tmp_path):
        store = str(tmp_path / "s")
        text = "<r>" + "".join(f"<a><b>{i}</b></a>" for i in range(40)) + "</r>"
        writer, events = write_document(store, text, segment_events=16)
        reader = EventLogReader(store)
        segments = reader.segments()
        assert len(segments) > 1
        assert all(segment.sealed for segment in segments)
        assert [segment.base_event for segment in segments] == sorted(
            segment.base_event for segment in segments
        )
        assert list(reader.events()) == events

    def test_push_handler_tee_equals_append(self, tmp_path):
        text = random_document(7)
        a, events = write_document(str(tmp_path / "a"), text, segment_events=32)
        writer = EventLogWriter(str(tmp_path / "b"), segment_events=32, sync="none")
        for event in events:
            if isinstance(event, StartElement):
                writer.start_element(event.tag, event.level, event.node_id,
                                     event.attributes)
            elif isinstance(event, Characters):
                writer.characters(event.text, event.level)
            else:
                writer.end_element(event.tag, event.level)
        writer.close()
        assert list(EventLogReader(str(tmp_path / "b")).events()) == events

    def test_segment_summary_matches_content(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r><a x='1'>text</a><b/></r>", segment_events=100)
        (segment,) = EventLogReader(store).segments()
        assert segment.tags == {"r", "a", "b"}
        assert segment.has_text
        assert segment.min_level == 1 and segment.max_level == 2
        assert segment.events == 7  # 3 starts + 1 text + 3 ends

    def test_start_event_positioning(self, tmp_path):
        store = str(tmp_path / "s")
        _, events = write_document(store, random_document(11), segment_events=8)
        reader = EventLogReader(store)
        for start in (0, 1, len(events) // 2, len(events) - 1, len(events)):
            assert list(reader.events(start)) == events[start:]

    def test_reader_requires_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="not a store"):
            EventLogReader(str(tmp_path / "missing"))

    def test_closed_writer_refuses_appends(self, tmp_path):
        store = str(tmp_path / "s")
        writer, _ = write_document(store, "<r><a/></r>")
        with pytest.raises(StoreError, match="closed"):
            writer.append(EndElement("r", 1))

    def test_reader_sees_live_unsealed_tail(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=4, sync="none")
        events = list(parse_string("<r><a/><b/><c/><d/><e/></r>"))
        writer.extend(events)
        writer.flush()
        reader = EventLogReader(store)
        assert list(reader.events()) == events
        assert not reader.segments()[-1].sealed
        writer.close()


class TestRecovery:
    def _torn_store(self, tmp_path, cut: int):
        """A store whose active segment lost ``cut`` trailing bytes."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=32, sync="none")
        text = random_document(9)
        events = list(parse_string(text))
        for start in range(0, len(text), 16):
            writer.feed(text[start:start + 16])
        writer.flush()
        active = os.path.join(store, writer._manifest.active)
        # Abandon the writer (simulated crash), then tear the tail.
        size = os.path.getsize(active)
        with open(active, "r+b") as handle:
            handle.truncate(size - cut)
        return store, text, events

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_torn_tail_truncated_to_good_prefix(self, tmp_path, cut):
        store, text, events = self._torn_store(tmp_path, cut)
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        assert recovered.recovered_tail_bytes > 0
        assert recovered.position < len(events)
        # The document continues from the character the log covers.
        recovered.feed(text[recovered.text_position:])
        recovered.finish()
        recovered.close()
        assert list(EventLogReader(store).events()) == events

    def test_corrupt_middle_of_active_truncates_there(self, tmp_path):
        store, _text, events = self._torn_store(tmp_path, 0)
        active = os.path.join(
            store, json.load(open(os.path.join(store, MANIFEST_NAME)))["active"]
        )
        data = bytearray(open(active, "rb").read())
        # Flip a bit midway through the records after the segment header.
        header_end = 9 + int.from_bytes(data[:4], "big")
        data[(header_end + len(data)) // 2] ^= 0xFF
        open(active, "wb").write(bytes(data))
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        assert 0 < recovered.position < len(events)
        assert recovered.recovered_tail_bytes > 0

    def test_garbage_active_file_is_replaced(self, tmp_path):
        store, _text, events = self._torn_store(tmp_path, 0)
        active = os.path.join(
            store, json.load(open(os.path.join(store, MANIFEST_NAME)))["active"]
        )
        open(active, "wb").write(b"not frames at all")
        recovered = EventLogWriter(store, segment_events=32, sync="none")
        # Sealed history intact; active segment restarted at its base.
        assert recovered.position == recovered._segment.base_event
        recovered.close()
        survivors = list(EventLogReader(store).events())
        assert survivors == events[: len(survivors)]

    def test_reopen_cleanly_closed_store_continues_positions(self, tmp_path):
        store = str(tmp_path / "s")
        _, first = write_document(store, "<r><a/><b/></r>", segment_events=3)
        writer = EventLogWriter(store, segment_events=3, sync="none")
        assert writer.position == len(first)
        more = list(parse_string("<r2><c/></r2>"))
        writer.extend(more)
        writer.close()
        assert list(EventLogReader(store).events()) == first + more

    @pytest.mark.parametrize("segment_events", [4, 1000])
    def test_reopen_closed_mid_document_continues_it(self, tmp_path, segment_events):
        from repro.multiq.engine import MultiQueryEngine
        from repro.store import replay

        queries = {"b": "//b", "deep": "//a//c[d]"}
        text = random_document(5)
        live = MultiQueryEngine(dict(queries)).evaluate(text)
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=segment_events, sync="none")
        writer.feed(text[: len(text) // 2])
        writer.close()
        writer = EventLogWriter(store, segment_events=segment_events, sync="none")
        assert writer.text_position == len(text) // 2
        writer.feed(text[writer.text_position:])
        writer.finish()
        writer.close()
        assert list(EventLogReader(store).events()) == list(parse_string(text))
        assert replay(dict(queries), store) == live

    def test_reopen_closed_mid_document_takes_its_events(self, tmp_path):
        store = str(tmp_path / "s")
        events = list(parse_string(random_document(5)))
        # Character data is logged with the tag after it: split after a tag.
        half = len(events) // 2
        while isinstance(events[half - 1], Characters):
            half += 1
        writer = EventLogWriter(store, segment_events=4, sync="none")
        writer.extend(events[:half])
        writer.close()
        writer = EventLogWriter(store, segment_events=4, sync="none")
        assert writer.position == half
        writer.extend(events[half:])
        writer.close()
        assert list(EventLogReader(store).events()) == events

    def test_sealed_segment_corruption_raises(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, random_document(4), segment_events=8)
        reader = EventLogReader(store)
        sealed = reader.segments()[0]
        path = os.path.join(store, sealed.file)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(StoreError, match="corrupt sealed segment"):
            list(EventLogReader(store).events())

    def test_corrupt_manifest_raises(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        open(os.path.join(store, MANIFEST_NAME), "w").write("{broken")
        with pytest.raises(StoreError, match="corrupt store manifest"):
            EventLogReader(store)

    @pytest.mark.parametrize("key, value", [
        (None, []), ("active", 7), ("next_segment", "2"), ("tokenizer", [["r"]]),
        ("segments", [{"file": "seg-00000001.log"}]),
    ])
    def test_wrong_manifest_values_raise_store_error(self, tmp_path, key, value):
        """A manifest that is not an object, or holds a value of the wrong
        type, is refused (it once raised ``AttributeError``/``TypeError``
        or read ``"2"`` as 2)."""
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        path = os.path.join(store, MANIFEST_NAME)
        manifest = json.load(open(path))
        with open(path, "w") as handle:
            json.dump(value if key is None else {**manifest, key: value}, handle)
        with pytest.raises(StoreError, match="store manifest|segment summary"):
            EventLogReader(store)


class TestCheckpointsAndCompaction:
    def test_checkpoint_positions(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=16,
                                checkpoint_interval=10, sync="none")
        events = list(parse_string(random_document(6)))
        writer.extend(events)
        final = writer.checkpoint()
        writer.close()
        reader = EventLogReader(store)
        checkpoints = reader.checkpoints()
        assert [c.id for c in checkpoints] == list(range(1, final + 1))
        for info in checkpoints[:-1]:
            assert info.event % 10 == 0
        assert checkpoints[-1].event == len(events)

    def test_compact_drops_prefix_only(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, segment_events=8,
                                checkpoint_interval=20, sync="none")
        text = "<r>" + "".join(f"<a><b>{i}</b></a>" for i in range(30)) + "</r>"
        events = list(parse_string(text))
        writer.extend(events)
        writer.close()
        reader = EventLogReader(store)
        target = reader.checkpoints()[1]
        summary = compact(store, target.id, sync="none")
        assert summary["segments_dropped"] >= 1
        after = EventLogReader(store)
        floor = after.compacted_before_event
        assert 0 < floor <= target.event
        assert list(after.events(floor)) == events[floor:]
        with pytest.raises(StoreError, match="compacted"):
            list(after.events(0))

    def test_compact_requires_closed_store(self, tmp_path):
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        writer.checkpoint()
        writer.flush()
        with pytest.raises(StoreError, match="active writer"):
            compact(store, 1)
        writer.close()

    def test_compact_unknown_checkpoint(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r/>")
        with pytest.raises(StoreError, match="no checkpoint 99"):
            compact(store, 99)


class TestLimitsOnLogBytes:
    def test_decode_limits_enforced_during_read(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, "<r>" + "<a>" * 30 + "</a>" * 30 + "</r>")
        reader = EventLogReader(store, limits=ResourceLimits(max_depth=10))
        with pytest.raises(Exception, match="max_depth"):
            list(reader.events())

    def test_max_total_events_bounds_replay(self, tmp_path):
        store = str(tmp_path / "s")
        write_document(store, random_document(2))
        reader = EventLogReader(store, limits=ResourceLimits(max_total_events=5))
        with pytest.raises(Exception, match="max_total_events"):
            list(reader.events())

    def test_hostile_record_injected_into_segment(self, tmp_path):
        """A CRC-valid text record holding a depth bomb must be caught."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        active = os.path.join(store, writer._manifest.active)
        writer.flush()
        bomb = encode_frame(REC_TEXT, b"<x>" * 100)
        with open(active, "ab") as handle:
            handle.write(bomb)
        reader = EventLogReader(store, limits=ResourceLimits(max_depth=64))
        with pytest.raises(Exception, match="max_depth"):
            list(reader.events())
        # Without limits the bomb re-tokenises (it is well-formed so far).
        assert len(list(EventLogReader(store).events())) == 101
        writer.close()

    def test_event_record_in_text_store_rejected(self, tmp_path):
        """A version-1 event record spliced into a text segment is refused."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        writer.flush()
        with open(os.path.join(store, writer._manifest.active), "ab") as handle:
            handle.write(encode_frame(REC_EVENT, b"\x03\x01\x01r"))
        with pytest.raises(StoreError, match="record type 33 does not belong"):
            list(EventLogReader(store).events())
        writer.close()

    def test_wrong_checkpoint_record_values_rejected(self, tmp_path):
        """A CRC-valid checkpoint record with a string id once raised
        ``ValueError`` out of the writer's reopen."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        writer.flush()
        with open(os.path.join(store, writer._manifest.active), "ab") as handle:
            handle.write(encode_frame(REC_CHECKPOINT, b'{"id": "x", "event": 1}'))
        writer.close()
        with pytest.raises(StoreError, match="corrupt checkpoint record"):
            EventLogWriter(store, sync="none")

    def test_deeply_nested_checkpoint_record_rejected(self, tmp_path):
        """JSON nested past the recursion limit is a corrupt record."""
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="none")
        writer.append(StartElement("r", 1, 1, {}))
        writer.flush()
        with open(os.path.join(store, writer._manifest.active), "ab") as handle:
            handle.write(encode_frame(REC_CHECKPOINT, b"[" * 200_000))
        writer.close()
        with pytest.raises(StoreError, match="corrupt checkpoint record"):
            EventLogWriter(store, sync="none")


class TestSyncPolicy:
    def test_coerce_spellings(self):
        assert SyncPolicy.coerce(None).kind == "always"
        assert SyncPolicy.coerce("none").kind == "none"
        policy = SyncPolicy.coerce("interval:7")
        assert (policy.kind, policy.interval) == ("interval", 7)
        assert SyncPolicy.coerce(policy) is policy
        assert policy.to_str() == "interval:7"

    def test_invalid_spellings(self):
        with pytest.raises(ValueError):
            SyncPolicy.coerce("sometimes")
        with pytest.raises(ValueError):
            SyncPolicy("interval", 0)
        with pytest.raises(TypeError):
            SyncPolicy.coerce(42)

    def test_should_sync_cadence(self):
        always, never = SyncPolicy("always"), SyncPolicy("none")
        every3 = SyncPolicy("interval", 3)
        assert always.should_sync(1) and not never.should_sync(10**6)
        assert [every3.should_sync(n) for n in (1, 2, 3, 4)] == [
            False, False, True, True,
        ]

    def test_every(self):
        assert SyncPolicy("always").every == 1
        assert SyncPolicy("interval", 7).every == 7
        assert SyncPolicy("none").every == 0

    @pytest.mark.parametrize("sync", ["always", "interval:4", "none"])
    def test_log_contents_identical_across_policies(self, tmp_path, sync):
        store = str(tmp_path / sync.replace(":", "_"))
        _, events = write_document(store, random_document(8), sync=sync)
        assert list(EventLogReader(store).events()) == events

    def test_sync_none_never_fsyncs(self, tmp_path, monkeypatch):
        """``none`` means no fsync at all: not per event, checkpoint,
        manifest swap, or segment seal."""
        import repro.store.sync as sync_mod
        from repro.store import ingest

        calls = []
        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: calls.append(fd))
        store = str(tmp_path / "s")
        text = "<r>" + "<a><b>x</b></a>" * 50 + "</r>"
        chunks = [text[start:start + 64] for start in range(0, len(text), 64)]
        result = ingest(chunks, store, queries={"q": "//a//b"},
                        segment_events=16, checkpoint_interval=40, sync="none")
        assert result.segments >= 3 and len(result.checkpoints) >= 2
        assert calls == []
        assert list(EventLogReader(store).events()) == list(parse_string(text))

    @pytest.mark.parametrize("sync,mid,total,published", [
        # Recorded from the release before sync cadence, checkpoints and
        # rotation were folded into one precomputed boundary, then moved
        # to text records (appended events: one record per event).  A
        # checkpoint record is a sync point of its own, no longer
        # followed by a second fsync at the same position.
        ("always", 272, 275, 242),
        ("interval:5", 70, 73, 40),
        ("interval:13", 41, 44, 11),
        ("none", 0, 0, 0),
    ])
    def test_fsync_cadence_and_writer_metrics(self, tmp_path, monkeypatch, sync,
                                              mid, total, published):
        import repro.store.sync as sync_mod
        from repro.obs.metrics import MetricsRegistry

        calls = []
        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: calls.append(fd))
        metrics = MetricsRegistry()
        writer = EventLogWriter(str(tmp_path / "s"), sync=sync, segment_events=37,
                                checkpoint_interval=23, metrics=metrics)
        writer.extend(parse_string("<r>" + "<a><b>x</b></a>" * 50 + "</r>"))
        assert len(calls) == mid
        writer.close()
        assert len(calls) == total

        def value(name):
            return metrics.get(name).get()

        assert value("repro_store_syncs_total") == published
        assert value("repro_store_events_total") == 252
        assert value("repro_store_bytes_total") == 5393
        assert value("repro_store_checkpoints_total") == 10

    def test_writer_sync_counts(self, tmp_path, monkeypatch):
        import repro.store.sync as sync_mod

        calls = []
        monkeypatch.setattr(sync_mod.os, "fsync", lambda fd: calls.append(fd))
        store = str(tmp_path / "s")
        writer = EventLogWriter(store, sync="interval:5", segment_events=10_000)
        for event in parse_string(random_document(10)):
            writer.append(event)
        appended = writer.position
        mid_count = len(calls)
        assert mid_count >= appended // 5 - 1
        writer.close()
        assert len(calls) > mid_count  # seal forces a final sync
