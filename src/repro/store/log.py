"""The append-only ingest log: CRC-framed segments + atomic manifest.

A **store** is a directory::

    store/
      MANIFEST.json        # atomic (write-temp + os.replace) index
      seg-00000001.log     # sealed segment
      seg-00000002.log     # ... active (tail) segment

Each segment file is a sequence of frames in the serving protocol's wire
format (:mod:`repro.serve.framing`: 4B length, 1B type, 4B CRC32,
payload), so every record is individually integrity-checked and a torn
tail is detected by the same paranoid decoder that guards network input.
Record types:

* ``REC_SEGMENT`` — JSON segment header (sequence number, base event
  index); always the first frame of a segment, lets crash recovery
  rebuild positions from the file alone.
* ``REC_EVENT`` — one modified-SAX event, binary-encoded by
  :mod:`repro.stream.codec`.
* ``REC_CHECKPOINT`` — JSON: checkpoint id, the event index it covers,
  and (optionally) an embedded engine snapshot (the existing versioned
  :meth:`~repro.multiq.engine.MultiQueryEngine.snapshot` /
  :meth:`~repro.core.processor.XPathStream.snapshot` blobs), so replay
  can resume evaluation mid-stream instead of from document start.

The manifest lists **sealed** segments with their structural summary —
tag alphabet, has-text flag, level range, event count, checkpoint
positions — which is what lets replay skip whole segments that cannot
contain a query's alphabet (:mod:`repro.store.index`).  The active
segment is deliberately *not* trusted from the manifest: readers and a
restarted writer re-scan it frame by frame, truncating anything after
the last CRC-valid record, so a crash mid-write loses at most the torn
tail and never corrupts earlier history.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError
from repro.serve.framing import (
    CRC_SEEDS,
    DEFAULT_MAX_FRAME,
    FRAME_HEADER,
    Frame,
    FrameError,
    encode_frame,
)
from repro.stream.codec import EventEncoder, PushDecoder
from repro.stream.events import Event, EventCollector, EventHandler, events_to_handler
from repro.stream.recovery import ResourceLimits
from repro.store.sync import SyncPolicy

__all__ = [
    "StoreError",
    "EventLogWriter",
    "EventLogReader",
    "SegmentInfo",
    "CheckpointInfo",
    "ReplayStats",
    "compact",
    "MANIFEST_NAME",
    "STORE_MANIFEST_VERSION",
    "REC_SEGMENT",
    "REC_EVENT",
    "REC_CHECKPOINT",
]

#: Log record type codes (disjoint from the serving protocol's 1-14 so a
#: frame fed to the wrong decoder is caught by type, not just by CRC).
REC_SEGMENT = 32
REC_EVENT = 33
REC_CHECKPOINT = 34

MANIFEST_NAME = "MANIFEST.json"
STORE_MANIFEST_VERSION = 1

#: Default events per segment before rotation.
DEFAULT_SEGMENT_EVENTS = 4096


class StoreError(ReproError):
    """A store directory that cannot be trusted or an invalid operation."""


def _segment_name(sequence: int) -> str:
    return f"seg-{sequence:08d}.log"


@dataclass
class SegmentInfo:
    """One segment's structural summary (the unit of index-driven skip)."""

    file: str
    sequence: int
    base_event: int
    events: int = 0
    size: int = 0
    tags: set = field(default_factory=set)
    has_text: bool = False
    min_level: "int | None" = None
    max_level: "int | None" = None
    #: ``[{"id": int, "event": int}]`` in write order.
    checkpoints: list = field(default_factory=list)
    sealed: bool = False

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "sequence": self.sequence,
            "base_event": self.base_event,
            "events": self.events,
            "size": self.size,
            "tags": sorted(self.tags),
            "has_text": self.has_text,
            "min_level": self.min_level,
            "max_level": self.max_level,
            "checkpoints": list(self.checkpoints),
        }

    @classmethod
    def from_dict(cls, data: dict, sealed: bool = True) -> "SegmentInfo":
        return cls(
            file=data["file"],
            sequence=int(data["sequence"]),
            base_event=int(data["base_event"]),
            events=int(data["events"]),
            size=int(data["size"]),
            tags=set(data.get("tags", ())),
            has_text=bool(data.get("has_text", False)),
            min_level=data.get("min_level"),
            max_level=data.get("max_level"),
            checkpoints=[dict(c) for c in data.get("checkpoints", ())],
            sealed=sealed,
        )

    def note_event(self, tag: "str | None", level: int) -> None:
        """Fold one event (``tag`` None for character data) into the summary."""
        self.events += 1
        if tag is not None:
            self.tags.add(tag)
        else:
            self.has_text = True
        self.note_levels((level,))

    def note_levels(self, levels: "Iterable[int]") -> None:
        """Widen the level range to cover ``levels`` (may be empty)."""
        for level in levels:
            if self.min_level is None or level < self.min_level:
                self.min_level = level
            if self.max_level is None or level > self.max_level:
                self.max_level = level

    # Push callbacks: a recovery scan decodes a segment straight into its
    # summary.

    def start_element(self, tag, level, node_id, attributes) -> None:
        self.note_event(tag, level)

    def characters(self, text, level) -> None:
        self.note_event(None, level)

    def end_element(self, tag, level) -> None:
        self.note_event(tag, level)


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint lives and whether it can resume an engine."""

    id: int
    event: int
    segment: str
    has_engine: bool
    engine_kind: "str | None"


@dataclass
class ReplayStats:
    """What a replay actually read versus provably skipped."""

    segments_total: int = 0
    segments_skipped: int = 0
    segments_read: int = 0
    events_emitted: int = 0
    events_positioned_past: int = 0
    bytes_read: int = 0
    bytes_skipped: int = 0
    recovered_tail_bytes: int = 0

    @property
    def skip_ratio(self) -> float:
        """Fraction of candidate segments the index let replay skip."""
        if not self.segments_total:
            return 0.0
        return self.segments_skipped / self.segments_total

    def to_dict(self) -> dict:
        return {
            "segments_total": self.segments_total,
            "segments_skipped": self.segments_skipped,
            "segments_read": self.segments_read,
            "events_emitted": self.events_emitted,
            "events_positioned_past": self.events_positioned_past,
            "bytes_read": self.bytes_read,
            "bytes_skipped": self.bytes_skipped,
            "recovered_tail_bytes": self.recovered_tail_bytes,
            "skip_ratio": self.skip_ratio,
        }


#: Bytes read from a log file per step: with one frame (at most
#: ``max_frame``), the bound on a walk's read buffer.
_READ_SIZE = 1 << 16

_HEADER_SIZE = FRAME_HEADER.size
_unpack_header = FRAME_HEADER.unpack_from
_pack_header = FRAME_HEADER.pack
_crc32 = zlib.crc32
_EVENT_CRC_SEED = CRC_SEEDS[REC_EVENT]


class _FrameWalk:
    """Walk one log file's frames through a bounded read buffer.

    Iterating yields ``(type, payload)`` for every record that is not an
    event, and ``(None, None)`` after each read step.  Event records are
    never yielded: the first ``skip`` are passed over undecoded, and each
    later one goes to ``decode(payload)`` — a
    :meth:`~repro.stream.codec.PushDecoder.decode` — in file order
    between the yielded records.  Every frame's CRC is checked before its
    payload is interpreted.

    :attr:`offset` is the byte length of the CRC-valid prefix walked so
    far and :attr:`events` the event records in it.  The first corrupt
    frame (CRC mismatch, declared length above ``max_frame``) raises
    :class:`~repro.serve.framing.FrameError` once everything before it
    has been delivered; a torn trailing frame just ends the walk, with
    :attr:`offset` short of the file size.
    """

    __slots__ = ("path", "max_frame", "decode", "skip", "offset", "events")

    def __init__(
        self,
        path: str,
        max_frame: int,
        decode: "Callable[[bytes], None] | None",
        skip: int = 0,
    ):
        self.path = path
        self.max_frame = max_frame
        self.decode = decode
        self.skip = skip
        self.offset = 0
        self.events = 0

    def __iter__(self) -> "Iterator[tuple[int | None, bytes | None]]":
        decode = self.decode
        skip = self.skip
        max_frame = self.max_frame
        seeds = CRC_SEEDS
        events = 0
        base = 0  # file offset of buf[0]
        buf = b""
        pos = 0
        want = _READ_SIZE
        with open(self.path, "rb") as handle:
            while True:
                chunk = handle.read(want)
                if not chunk:
                    return
                base += pos
                buf = buf[pos:] + chunk if pos < len(buf) else chunk
                pos = 0
                size = len(buf)
                want = _READ_SIZE
                while size - pos >= _HEADER_SIZE:
                    length, record, crc = _unpack_header(buf, pos)
                    if length > max_frame:
                        self.offset, self.events = base + pos, events
                        raise FrameError(
                            f"declared frame length {length} exceeds limit {max_frame}"
                        )
                    start = pos + _HEADER_SIZE
                    end = start + length
                    if end > size:
                        # Read the rest of a large frame in one step.
                        want = max(_READ_SIZE, end - size)
                        break
                    payload = buf[start:end]
                    if _crc32(payload, seeds[record]) != crc:
                        self.offset, self.events = base + pos, events
                        raise FrameError(
                            f"CRC mismatch on {record} frame ({length}B payload)"
                        )
                    pos = end
                    if record == REC_EVENT:
                        if events >= skip:
                            decode(payload)
                        events += 1
                    else:
                        self.offset, self.events = base + pos, events
                        yield record, payload
                self.offset, self.events = base + pos, events
                yield None, None


#: ``skip`` for a walk that decodes no event record.
_SKIP_ALL = sys.maxsize


def _record_json(record: int, payload: bytes, what: str) -> dict:
    try:
        return Frame(record, payload).json()
    except FrameError as exc:
        raise StoreError(f"corrupt {what} record: {exc}") from exc


class _Manifest:
    """The store's atomic segment index."""

    def __init__(self) -> None:
        self.next_segment = 1
        self.active: "str | None" = None
        self.compacted_before_event = 0
        self.compacted_before_checkpoint = 0
        self.next_checkpoint = 1
        self.segments: list[SegmentInfo] = []

    def to_dict(self) -> dict:
        return {
            "version": STORE_MANIFEST_VERSION,
            "next_segment": self.next_segment,
            "next_checkpoint": self.next_checkpoint,
            "active": self.active,
            "compacted_before_event": self.compacted_before_event,
            "compacted_before_checkpoint": self.compacted_before_checkpoint,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def load(cls, path: str) -> "_Manifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt store manifest {path!r}: {exc}") from exc
        version = data.get("version")
        if version != STORE_MANIFEST_VERSION:
            raise StoreError(
                f"unsupported store manifest version {version!r} "
                f"(expected {STORE_MANIFEST_VERSION})"
            )
        manifest = cls()
        try:
            manifest.next_segment = int(data["next_segment"])
            manifest.next_checkpoint = int(data.get("next_checkpoint", 1))
            manifest.active = data.get("active")
            manifest.compacted_before_event = int(data.get("compacted_before_event", 0))
            manifest.compacted_before_checkpoint = int(
                data.get("compacted_before_checkpoint", 0)
            )
            manifest.segments = [
                SegmentInfo.from_dict(entry) for entry in data["segments"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed store manifest {path!r}: {exc}") from exc
        return manifest

    def save(self, directory: str, sync: SyncPolicy) -> None:
        """Atomically swap the manifest in (write-temp + ``os.replace``)."""
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            # One-shot dumps runs the C encoder (json.dump does not).
            handle.write(json.dumps(self.to_dict(), separators=(",", ":")))
            if sync.kind != "none":
                sync.sync_file(handle)
        os.replace(tmp, path)
        sync.sync_dir(directory)


class EventLogWriter(EventHandler):
    """Append the modified-SAX event stream durably, with checkpoints.

    The writer is an :class:`~repro.stream.events.EventHandler`, so it
    tees straight off the push pipeline: each callback encodes its
    arguments (:class:`~repro.stream.codec.EventEncoder`) and frames them
    with no event objects.  Pull-mode :class:`~repro.stream.events.Event`
    objects go through the same callbacks via :meth:`append`.
    Structure:

    * events land in the **active segment**; after ``segment_events``
      events the segment is sealed — its structural summary enters the
      manifest atomically — and a fresh segment opens;
    * every ``checkpoint_interval`` events (0 = manual only) a
      checkpoint record is written; if an engine is attached
      (:meth:`attach`), its versioned snapshot is embedded so replay can
      resume evaluation there instead of from document start;
    * durability follows ``sync`` (a :class:`~repro.store.sync.SyncPolicy`
      or its string form), shared with the serving layer's spool.

    Per event the writer only encodes, frames, writes, and notes the tag
    and level; the next position at which a sync, checkpoint or rotation
    is due is precomputed, so the rest of the bookkeeping costs one
    comparison per event.

    Reopening a writer on an existing store recovers first: the active
    segment is scanned, any torn tail is truncated, and appending
    continues exactly after the last durable record.
    """

    def __init__(
        self,
        path: str,
        *,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        checkpoint_interval: int = 0,
        sync: "str | SyncPolicy | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics=None,
    ):
        if segment_events < 1:
            raise StoreError(f"segment_events must be >= 1, got {segment_events}")
        self.path = path
        self.segment_events = segment_events
        self.checkpoint_interval = checkpoint_interval
        self.sync = SyncPolicy.coerce(sync)
        self.max_frame = max_frame
        self._metrics = metrics
        self._engine = None
        self._engine_kind: "str | None" = None
        self._file = None
        self._write = _closed_write
        self._segment: "SegmentInfo | None" = None
        self._closed = False
        encoder = EventEncoder()
        self._encode_start = encoder.start_element
        self._encode_characters = encoder.characters
        self._encode_end = encoder.end_element
        self._encoder = encoder
        # Active-segment summary, folded into the SegmentInfo at seal.
        self._levels: set = set()
        self._note_level = self._levels.add
        self._has_text = False
        #: Events between fsyncs (0 = never), and the position of the last.
        self._sync_every = self.sync.every
        self._synced_at = 0
        #: Next position at which a sync, checkpoint or rotation is due.
        self._boundary = 0
        #: Total events durably appended (the replay coordinate system).
        self.position = 0
        #: Bytes truncated from a torn tail during recovery (0 = clean).
        self.recovered_tail_bytes = 0
        os.makedirs(path, exist_ok=True)
        if metrics is not None:
            self._bind_metrics(metrics)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            self._manifest = _Manifest.load(manifest_path)
            self._recover()
        else:
            self._manifest = _Manifest()
            self._open_segment()

    # -- metrics --------------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_events = metrics.counter(
            "repro_store_events_total", "Events appended to the ingest log."
        )
        self._m_bytes = metrics.counter(
            "repro_store_bytes_total", "Bytes written to ingest log segments."
        )
        self._m_checkpoints = metrics.counter(
            "repro_store_checkpoints_total", "Checkpoint records written."
        )
        self._m_syncs = metrics.counter(
            "repro_store_syncs_total", "fsync calls issued by the log writer."
        )
        self._m_segments = metrics.gauge(
            "repro_store_segments", "Segments in the store (sealed + active)."
        )

    # -- lifecycle ------------------------------------------------------

    def attach(self, engine) -> None:
        """Embed ``engine``'s snapshots in future checkpoints.

        ``engine`` is a :class:`~repro.multiq.engine.MultiQueryEngine` or
        an :class:`~repro.core.processor.XPathStream` — anything whose
        versioned ``snapshot()`` the matching ``restore()`` accepts.
        """
        from repro.multiq.engine import MultiQueryEngine

        self._engine = engine
        self._engine_kind = "multi" if isinstance(engine, MultiQueryEngine) else "xpath"

    def _recover(self) -> None:
        """Resume on an existing store: scan the active tail, truncate torn bytes."""
        manifest = self._manifest
        if manifest.segments:
            last = manifest.segments[-1]
            self.position = last.base_event + last.events
        else:
            self.position = manifest.compacted_before_event
        if manifest.active is None:
            # Cleanly closed store: continue with a fresh segment.
            self._open_segment()
            return
        active_path = os.path.join(self.path, manifest.active)
        if not os.path.exists(active_path):
            # Crash between manifest swap and segment creation.
            self._open_segment(reuse_name=manifest.active)
            return
        segment, good_bytes, torn = _scan_segment(
            active_path, manifest.active, self.max_frame
        )
        if segment is None:
            # Not even a valid header frame: the file is garbage; replace it.
            self.recovered_tail_bytes = os.path.getsize(active_path)
            self._open_segment(reuse_name=manifest.active, truncate=True)
            return
        if torn:
            self.recovered_tail_bytes = os.path.getsize(active_path) - good_bytes
            with open(active_path, "r+b") as handle:
                handle.truncate(good_bytes)
        self.position = segment.base_event + segment.events
        for checkpoint in segment.checkpoints:
            manifest.next_checkpoint = max(
                manifest.next_checkpoint, int(checkpoint["id"]) + 1
            )
        self._activate(segment, open(active_path, "ab"))

    def _activate(self, segment: SegmentInfo, handle) -> None:
        """Append to ``segment`` through ``handle`` from now on."""
        self._segment = segment
        self._file = handle
        self._write = handle.write
        self._levels.clear()
        self._note_tag = segment.tags.add
        self._has_text = False
        self._synced_at = self.position
        self._plan()

    def _open_segment(self, reuse_name: "str | None" = None, truncate: bool = False) -> None:
        manifest = self._manifest
        if reuse_name is None:
            name = _segment_name(manifest.next_segment)
            sequence = manifest.next_segment
            manifest.next_segment += 1
        else:
            name = reuse_name
            sequence = manifest.next_segment - 1
        segment = SegmentInfo(file=name, sequence=sequence, base_event=self.position)
        manifest.active = name
        manifest.save(self.path, self.sync)
        mode = "wb" if truncate else "xb"
        try:
            handle = open(os.path.join(self.path, name), mode)
        except FileExistsError:
            raise StoreError(
                f"segment {name!r} already exists; is another writer live?"
            ) from None
        self._activate(segment, handle)
        header = {
            "version": STORE_MANIFEST_VERSION,
            "segment": sequence,
            "base_event": self.position,
        }
        self._write_frame(REC_SEGMENT, json.dumps(header, separators=(",", ":")).encode("utf-8"))
        if self._metrics is not None:
            self._m_segments.set(len(manifest.segments) + 1)

    def _rotate(self) -> None:
        """Seal the active segment into the manifest; open the next one."""
        self._seal()
        self._open_segment()

    def _seal(self) -> None:
        segment = self._segment
        segment.events = self.position - segment.base_event
        segment.note_levels(self._levels)
        if self._has_text:
            segment.has_text = True
        if self.sync.kind != "none":
            self.sync.sync_file(self._file)
        self._file.close()
        self._file = None
        self._write = _closed_write
        segment.size = os.path.getsize(os.path.join(self.path, segment.file))
        segment.sealed = True
        self._manifest.segments.append(segment)
        self._segment = None

    def close(self) -> None:
        """Seal the active segment and mark the store cleanly closed."""
        if self._closed:
            return
        self._closed = True
        if self._segment is not None:
            self._seal()
        self._manifest.active = None
        self._manifest.save(self.path, self.sync)

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending ------------------------------------------------------

    def _write_frame(self, type_code: int, payload: bytes) -> None:
        if self._closed:
            raise StoreError("append to a closed EventLogWriter")
        data = encode_frame(type_code, payload)
        self._file.write(data)
        if self._metrics is not None:
            self._m_bytes.inc(len(data))

    def _plan(self) -> None:
        """Precompute the next position at which bookkeeping is due."""
        segment = self._segment
        boundary = segment.base_event + self.segment_events
        interval = self.checkpoint_interval
        if interval:
            boundary = min(boundary, (self.position // interval + 1) * interval)
        if self._sync_every:
            boundary = min(boundary, self._synced_at + self._sync_every)
        self._boundary = boundary

    def _at_boundary(self) -> None:
        """Sync, checkpoint and rotate as due at :attr:`position`."""
        position = self.position
        if self._sync_every and position - self._synced_at >= self._sync_every:
            self.sync.sync_file(self._file)
            self._synced_at = position
            if self._metrics is not None:
                self._m_syncs.inc()
        if self.checkpoint_interval and position % self.checkpoint_interval == 0:
            self.checkpoint()
        if position - self._segment.base_event >= self.segment_events:
            self._rotate()
        self._plan()

    def append(self, event: Event) -> None:
        """Append one pull-mode event object."""
        events_to_handler((event,), self)

    def extend(self, events: Iterable[Event]) -> None:
        events_to_handler(events, self)

    # Push-mode tee: the writer sits directly behind the fused scanner.

    def start_element(self, tag, level, node_id, attributes) -> None:
        self._append(self._encode_start(tag, level, node_id, attributes), tag, level)

    def characters(self, text, level) -> None:
        self._append(self._encode_characters(text, level), None, level)

    def end_element(self, tag, level) -> None:
        self._append(self._encode_end(tag, level), tag, level)

    def _append(self, payload: bytes, tag: "str | None", level: int) -> None:
        """Frame and write one event record (``tag`` None for text), note
        it in the segment summary, and do any bookkeeping now due."""
        data = _pack_header(
            len(payload), REC_EVENT, _crc32(payload, _EVENT_CRC_SEED)
        ) + payload
        self._write(data)
        if tag is None:
            self._has_text = True
        else:
            self._note_tag(tag)
        self._note_level(level)
        if self._metrics is not None:
            self._m_events.inc()
            self._m_bytes.inc(len(data))
        self.position += 1
        if self.position >= self._boundary:
            self._at_boundary()

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> int:
        """Write a checkpoint record now; returns its id.

        The record covers exactly :attr:`position` events: replay from it
        resumes at event index ``position``.  With an attached engine the
        snapshot is taken *here*, so it must have consumed exactly the
        events written so far (the tee arrangement in
        :func:`repro.store.replay.ingest` guarantees this).
        """
        manifest = self._manifest
        checkpoint_id = manifest.next_checkpoint
        manifest.next_checkpoint += 1
        payload = {
            "id": checkpoint_id,
            "event": self.position,
            "engine_kind": self._engine_kind if self._engine is not None else None,
            "engine": self._engine.snapshot() if self._engine is not None else None,
        }
        self._write_frame(
            REC_CHECKPOINT, json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
        self._segment.checkpoints.append({"id": checkpoint_id, "event": self.position})
        # A checkpoint is a durability point: honour the policy but never
        # leave it buffered in-process.
        self._file.flush()
        if self.sync.kind != "none":
            self.sync.sync_file(self._file)
            self._synced_at = self.position
            self._plan()
        if self._metrics is not None:
            self._m_checkpoints.inc()
        return checkpoint_id

    def flush(self) -> None:
        """Push buffered records to the OS (fsync only under ``always``)."""
        if self._file is not None:
            self._file.flush()


def _closed_write(data: bytes) -> None:
    raise StoreError("append to a closed EventLogWriter")


def _scan_segment(
    path: str, name: str, max_frame: int
) -> "tuple[SegmentInfo | None, int, bool]":
    """Scan one segment file; returns ``(info, good_bytes, torn)``.

    ``info`` is ``None`` when the file has no valid header frame.  A torn
    or corrupt tail stops the scan; everything before it is summarised
    (events are decoded straight into the summary's push callbacks).
    """
    segment = SegmentInfo(file=name, sequence=0, base_event=0)
    walk = _FrameWalk(path, max_frame, PushDecoder(segment).decode)
    has_header = False
    torn = False
    try:
        for record, payload in walk:
            if not has_header:
                if record != REC_SEGMENT or walk.events:
                    return None, 0, True
                header = _record_json(record, payload, "segment header")
                segment.sequence = int(header["segment"])
                segment.base_event = int(header["base_event"])
                has_header = True
            elif record == REC_CHECKPOINT:
                info = _record_json(record, payload, "checkpoint")
                segment.checkpoints.append(
                    {"id": int(info["id"]), "event": int(info["event"])}
                )
    except FrameError:
        torn = True
    if not has_header:
        return None, 0, torn
    good = walk.offset
    if good < os.path.getsize(path):
        torn = True
    segment.size = good
    return segment, good, torn


class EventLogReader:
    """Read a store: manifest, segments, checkpoints, and replayable events.

    ``limits`` (a :class:`~repro.stream.recovery.ResourceLimits`) is
    enforced on every event *decoded* — depth, attribute count/length,
    text length per record, and ``max_total_events`` across the whole
    replay — so a hostile log is bounded exactly like hostile XML text.
    Records that replay provably skips (index-skipped segments,
    pre-checkpoint positioning) are never decoded at all.

    The reader is snapshot-consistent: it loads the manifest once at
    construction and re-scans the active segment on each replay
    (:meth:`events_into`, :meth:`events`), so a live writer can keep
    appending while readers replay (catch-up readers see everything
    flushed before they scan).
    """

    def __init__(
        self,
        path: str,
        *,
        limits: ResourceLimits | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics=None,
    ):
        self.path = path
        self.limits = limits
        self.max_frame = max_frame
        self._metrics = metrics
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise StoreError(f"{path!r} is not a store (no {MANIFEST_NAME})")
        self._manifest = _Manifest.load(manifest_path)
        if metrics is not None:
            self._m_replayed = metrics.counter(
                "repro_store_replay_events_total",
                "Events decoded and delivered by log replay.",
            )
            self._m_skipped = metrics.counter(
                "repro_store_segments_skipped_total",
                "Segments the structural index let replay skip.",
            )

    # -- introspection --------------------------------------------------

    def manifest(self) -> dict:
        """The manifest as a plain dict (diagnostics, CLI)."""
        return self._manifest.to_dict()

    @property
    def compacted_before_event(self) -> int:
        """Events dropped from the head of the log by compaction."""
        return self._manifest.compacted_before_event

    def segments(self) -> list[SegmentInfo]:
        """Sealed segments (from the manifest) plus the scanned active tail."""
        result = list(self._manifest.segments)
        active = self._active_segment()
        if active is not None:
            result.append(active)
        return result

    def _active_segment(self) -> "SegmentInfo | None":
        name = self._manifest.active
        if name is None:
            return None
        path = os.path.join(self.path, name)
        if not os.path.exists(path):
            return None
        segment, _good, _torn = _scan_segment(path, name, self.max_frame)
        return segment

    @property
    def position(self) -> int:
        """Total durable events currently in the log."""
        segments = self.segments()
        if not segments:
            return self._manifest.compacted_before_event
        last = segments[-1]
        return last.base_event + last.events

    def checkpoints(self) -> list[CheckpointInfo]:
        """Every checkpoint in the log, in id order."""
        found: list[CheckpointInfo] = []
        for segment in self.segments():
            for entry in segment.checkpoints:
                found.append(
                    CheckpointInfo(
                        id=int(entry["id"]),
                        event=int(entry["event"]),
                        segment=segment.file,
                        # Engine presence requires reading the record;
                        # resolved lazily by load_checkpoint.
                        has_engine=bool(entry.get("has_engine", True)),
                        engine_kind=entry.get("engine_kind"),
                    )
                )
        found.sort(key=lambda info: info.id)
        return found

    def load_checkpoint(self, checkpoint_id: int) -> dict:
        """The full checkpoint record (embedded engine snapshot included)."""
        for segment in self.segments():
            for entry in segment.checkpoints:
                if int(entry["id"]) == checkpoint_id:
                    return self._read_checkpoint(segment, checkpoint_id)
        raise StoreError(f"no checkpoint {checkpoint_id} in store {self.path!r}")

    def _read_checkpoint(self, segment: SegmentInfo, checkpoint_id: int) -> dict:
        walk = self._walk(segment, None, _SKIP_ALL)
        for record, payload in self._records(segment, walk):
            if record == REC_CHECKPOINT:
                info = _record_json(record, payload, "checkpoint")
                if int(info.get("id", -1)) == checkpoint_id:
                    return info
        raise StoreError(
            f"checkpoint {checkpoint_id} indexed in {segment.file!r} but "
            "not present (corrupt store?)"
        )

    def _walk(self, segment: SegmentInfo, decode, skip: int = 0) -> _FrameWalk:
        return _FrameWalk(
            os.path.join(self.path, segment.file), self.max_frame, decode, skip
        )

    @staticmethod
    def _records(segment: SegmentInfo, walk: _FrameWalk) -> Iterator[tuple]:
        """``walk``'s records; sealed corruption raises, torn tails stop."""
        try:
            yield from walk
        except FrameError as exc:
            if segment.sealed:
                raise StoreError(
                    f"corrupt sealed segment {segment.file!r}: {exc}"
                ) from exc
            # Active tail: stop at the torn frame (recovery semantics).

    # -- replay ---------------------------------------------------------

    def events_into(
        self,
        handler,
        start_event: int = 0,
        *,
        interest: "tuple | None" = None,
        stats: "ReplayStats | None" = None,
        on_checkpoint: "Callable[[dict], None] | None" = None,
    ) -> None:
        """Drive ``handler``'s callbacks with the events from ``start_event`` on.

        ``handler`` is any :class:`~repro.stream.events.EventHandler`;
        each event record is decoded straight into its callbacks
        (:class:`~repro.stream.codec.PushDecoder`), with no event
        objects.  Segments are read through a bounded buffer and every
        frame's CRC is checked before its payload is decoded.  Corruption
        in a sealed segment raises :class:`StoreError`; a torn active
        tail ends the replay.

        ``interest`` is ``(tags, wants_all, wants_text)`` — the alphabet
        analysis of :mod:`repro.store.index`.  A segment is skipped when
        *every one of its events* would individually be dropped by the
        multi-query alphabet router for this interest: no tag overlap,
        no wildcard machines, and (for value-testing queries) no
        character data in the segment.  That per-event argument is what
        makes segment skipping exact rather than approximate.

        ``on_checkpoint`` (optional) receives each checkpoint record
        encountered at or after ``start_event`` — late-query catch-up
        uses it to observe splice positions.
        """
        for _ in self._replay(handler, start_event, interest, stats, on_checkpoint):
            pass

    def events(
        self,
        start_event: int = 0,
        *,
        interest: "tuple | None" = None,
        stats: "ReplayStats | None" = None,
        on_checkpoint: "Callable[[dict], None] | None" = None,
    ) -> Iterator[Event]:
        """Yield events from ``start_event`` on, skipping what it can.

        The pull view of :meth:`events_into` (same arguments): the push
        decoder runs into a private
        :class:`~repro.stream.events.EventCollector`, and each read
        step's events are yielded before the next step is read.  An
        error part-way through a step is raised only after the events
        that precede it have been yielded.
        """
        collector = EventCollector()
        batch = collector.events
        steps = self._replay(collector, start_event, interest, stats, on_checkpoint)
        while True:
            try:
                next(steps)
            except StopIteration:
                return
            except BaseException:
                yield from batch
                raise
            yield from batch
            batch.clear()

    def _replay(
        self,
        handler,
        start_event: int,
        interest: "tuple | None",
        stats: "ReplayStats | None",
        on_checkpoint: "Callable[[dict], None] | None",
    ) -> Iterator[None]:
        """Decode into ``handler``; suspend after each read step and
        before each ``on_checkpoint`` call (the pull view's batches)."""
        if start_event < self._manifest.compacted_before_event:
            raise StoreError(
                f"events before {self._manifest.compacted_before_event} were "
                f"compacted away; replay from a checkpoint at or after it "
                f"(requested start {start_event})"
            )
        decoder = PushDecoder(handler, self.limits)
        decode = decoder.decode
        for segment in self.segments():
            if stats is not None:
                stats.segments_total += 1
            if segment.base_event + segment.events <= start_event:
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                continue
            if interest is not None and _segment_skippable(segment, interest):
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                if self._metrics is not None:
                    self._m_skipped.inc()
                continue
            if stats is not None:
                stats.segments_read += 1
            skip = max(0, start_event - segment.base_event)
            walk = self._walk(segment, decode, skip)
            emitted = decoder.count
            try:
                for record, payload in self._records(segment, walk):
                    if record is None:
                        yield
                    elif (
                        record == REC_CHECKPOINT
                        and on_checkpoint is not None
                        and walk.events >= skip
                    ):
                        yield
                        on_checkpoint(_record_json(record, payload, "checkpoint"))
            finally:
                if stats is not None:
                    stats.events_emitted += decoder.count - emitted
                    stats.events_positioned_past += min(skip, walk.events)
            if stats is not None:
                stats.bytes_read += segment.size
        if self._metrics is not None and decoder.count:
            self._m_replayed.inc(decoder.count)


def _segment_skippable(segment: SegmentInfo, interest: tuple) -> bool:
    """True when no event in ``segment`` can touch a machine with ``interest``."""
    tags, wants_all, wants_text = interest
    if wants_all:
        return False
    if wants_text and segment.has_text:
        return False
    return not (segment.tags & tags)


def compact(
    path: str,
    before_checkpoint: int,
    *,
    sync: "str | SyncPolicy | None" = None,
) -> dict:
    """Drop whole sealed segments wholly before ``before_checkpoint``.

    The space/history trade: segments whose every event precedes the
    named checkpoint's position are deleted, after an atomic manifest
    swap records the new floor.  Replay from that checkpoint (or any
    later one) is unaffected; replay from document start — and late-query
    catch-up over the dropped range — becomes impossible and raises
    :class:`StoreError` with the floor in the message.

    The store must be cleanly closed (no active writer).  Returns a
    summary dict: segments and bytes dropped, the new floor.
    """
    sync_policy = SyncPolicy.coerce(sync)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise StoreError(f"{path!r} is not a store (no {MANIFEST_NAME})")
    manifest = _Manifest.load(manifest_path)
    if manifest.active is not None:
        raise StoreError("cannot compact a store with an active writer (close it first)")
    target: "dict | None" = None
    for segment in manifest.segments:
        for entry in segment.checkpoints:
            if int(entry["id"]) == before_checkpoint:
                target = entry
    if target is None:
        raise StoreError(f"no checkpoint {before_checkpoint} in store {path!r}")
    floor = int(target["event"])
    keep: list[SegmentInfo] = []
    dropped: list[SegmentInfo] = []
    for segment in manifest.segments:
        if segment.base_event + segment.events <= floor:
            dropped.append(segment)
        else:
            keep.append(segment)
    manifest.segments = keep
    if dropped:
        manifest.compacted_before_event = dropped[-1].base_event + dropped[-1].events
        manifest.compacted_before_checkpoint = max(
            manifest.compacted_before_checkpoint, before_checkpoint
        )
    manifest.save(path, sync_policy)
    bytes_dropped = 0
    for segment in dropped:
        segment_path = os.path.join(path, segment.file)
        try:
            bytes_dropped += os.path.getsize(segment_path)
            os.unlink(segment_path)
        except OSError:
            pass
    return {
        "segments_dropped": len(dropped),
        "bytes_dropped": bytes_dropped,
        "compacted_before_event": manifest.compacted_before_event,
        "segments_kept": len(keep),
    }
