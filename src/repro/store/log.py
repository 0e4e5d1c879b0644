"""The append-only ingest log: CRC-framed text records + atomic manifest.

A **store** is a directory: ``MANIFEST.json`` (swapped atomically) and
``seg-NNNNNNNN.log`` segment files, the last of them the active tail.
A segment is a sequence of frames in the serving protocol's wire format
(:mod:`repro.serve.framing`), so every record is CRC-checked and a torn
tail is detected by the decoder that guards network input.

The log holds the XML *text* it was fed, not its events: the strict
tokenizer (Expat) reads text faster than per-event records decode, and
text is about half the size.  Replay re-tokenises it with
:class:`~repro.stream.tokenizer.XmlTokenizer`, so hostile log bytes meet
the parser and :class:`~repro.stream.recovery.ResourceLimits` of any
other XML text.  Records (manifest version 2):

* ``REC_SEGMENT`` — JSON header: sequence, base event index, and the
  tokenizer's snapshot, so replay can start at any segment;
* ``REC_TEXT`` — one fed chunk as UTF-8; empty, the end of the document;
* ``REC_CHECKPOINT`` — JSON: id, the exact event index it covers, and an
  optional versioned engine snapshot.  It follows the text record that
  delivers its event; replay from it re-tokenises its segment and drops
  the events before that index.

Version-1 stores hold ``REC_EVENT`` records instead, one event each
(:mod:`repro.stream.codec`); they stay readable, and nothing writes them.

The manifest records the tokenizer configuration and lists **sealed**
segments with a structural summary of ingest's own events — tags, text
flag, levels, event count, checkpoints — which lets replay skip segments
a query cannot touch (:mod:`repro.store.index`).  The active segment is
not trusted from the manifest: readers and a restarted writer re-scan
it, truncating anything after the last CRC-valid record.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.checkpoint import BOOL, LABELS, NAT, OBJECT, STR, Fields, ListOf, Nullable, enum
from repro.errors import CheckpointError, ReproError
from repro.serve.framing import (
    DEFAULT_MAX_FRAME,
    FRAME_HEADER,
    Frame,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.stream.codec import PushDecoder
from repro.stream.events import (
    Characters,
    EndElement,
    Event,
    EventCollector,
    EventHandler,
    StartElement,
    events_to_handler,
)
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.tokenizer import XmlTokenizer
from repro.stream.writer import escape_attribute, escape_text
from repro.store.sync import SyncPolicy

if TYPE_CHECKING:
    from repro.multiq.router import Interest

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
    "RECORD_CHARS",
    "REC_SEGMENT",
    "REC_EVENT",
    "REC_CHECKPOINT",
    "REC_TEXT",
    "segment_skippable",
]

#: Log record type codes (disjoint from the serving protocol's 1-14 so a
#: frame fed to the wrong decoder is caught by type, not just by CRC).
REC_SEGMENT = 32
REC_EVENT = 33  # version-1 stores only
REC_CHECKPOINT = 34
REC_TEXT = 35

MANIFEST_NAME = "MANIFEST.json"
STORE_MANIFEST_VERSION = 2
#: Manifest versions the reader accepts (version 1: per-event records).
_READABLE_VERSIONS = (1, 2)

#: Default events per segment before rotation.
DEFAULT_SEGMENT_EVENTS = 4096

#: Most characters in one text record.  A longer chunk is fed and logged
#: in pieces, so a segment overshoots ``segment_events`` by at most one
#: short record however large the caller's chunks are.
RECORD_CHARS = 4096

#: The ``due`` position of a tee with no checkpoint pending.
_NOT_DUE = sys.maxsize


class StoreError(ReproError):
    """A store directory that cannot be trusted or an invalid operation."""


def _segment_name(sequence: int) -> str:
    return f"seg-{sequence:08d}.log"


#: A manifest's segment summary (:meth:`SegmentInfo.to_dict`).
_SEGMENT = Fields(
    {"file": STR, "sequence": NAT, "base_event": NAT, "events": NAT, "size": NAT},
    {"tags": (LABELS, []), "has_text": (BOOL, False), "min_level": (Nullable(NAT), None),
     "max_level": (Nullable(NAT), None),
     "checkpoints": (ListOf(Fields({"id": NAT, "event": NAT})), [])})


#: A store manifest (:meth:`_Manifest.to_dict`), its counters bound to
#: the manifest's; a version-1 one has no ``tokenizer``.
_MANIFEST = Fields({"next_segment": NAT, "segments": ListOf(OBJECT)}, {
    "tokenizer": (Nullable(OBJECT), None), "next_checkpoint": (NAT, 1),
    "active": (Nullable(STR), None), "compacted_before_event": (NAT, 0),
    "compacted_before_checkpoint": (NAT, 0)}, (
    "next_segment", "next_checkpoint", "active", "compacted_before_event",
    "compacted_before_checkpoint"))


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
        data = asdict(self)
        del data["sealed"]
        data["tags"] = sorted(self.tags)
        return data

    @classmethod
    def from_dict(cls, data: dict, sealed: bool = True) -> "SegmentInfo":
        data = _SEGMENT(data, "segment summary")
        tags = set(data.pop("tags"))
        return cls(**data, tags=tags, sealed=sealed)

    def note_levels(self, levels: "Iterable[int]") -> None:
        """Widen the level range to cover ``levels`` (may be empty)."""
        for level in levels:
            if self.min_level is None or level < self.min_level:
                self.min_level = level
            if self.max_level is None or level > self.max_level:
                self.max_level = level


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint lives.  Whether it holds an engine (and of
    which kind) is in its record: :meth:`EventLogReader.load_checkpoint`."""

    id: int
    event: int
    segment: str


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

    @property
    def skip_ratio(self) -> float:
        """Fraction of candidate segments the index let replay skip."""
        if not self.segments_total:
            return 0.0
        return self.segments_skipped / self.segments_total

    def to_dict(self) -> dict:
        return {**asdict(self), "skip_ratio": self.skip_ratio}


#: Bytes read from a log file per step: with one frame (at most
#: ``max_frame``), the bound on a walk's read buffer.
_READ_SIZE = 1 << 16


def _frames(path: str, max_frame: int) -> "Iterator[tuple[int, bytes, int]]":
    """``(type, payload, end offset)`` of each CRC-checked frame of a log
    file (:class:`~repro.serve.framing.FrameDecoder`).  A corrupt frame
    raises :class:`~repro.serve.framing.FrameError` after the frames
    before it; a torn trailing frame just ends the walk."""
    decoder = FrameDecoder(max_frame)
    offset = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_READ_SIZE), b""):
            for frame in decoder.feed(chunk):
                offset += FRAME_HEADER.size + len(frame.payload)
                yield frame.type, frame.payload, offset
            if decoder.failed:
                decoder.feed(b"")  # raises the parked error


#: The JSON records: a segment header (a version-2 one embeds the
#: tokenizer's snapshot), and a checkpoint (the event it covers, and the
#: engine's capture when the log had an engine).
_RECORDS = {
    REC_SEGMENT: Fields({"version": NAT, "segment": NAT, "base_event": NAT},
                        {"tokenizer": (Nullable(OBJECT), None)}),
    REC_CHECKPOINT: Fields({"id": NAT, "event": NAT}, {
        "engine_kind": (Nullable(enum("multi", "xpath")), None),
        "engine": (Nullable(OBJECT), None)}),
}


def _record_json(record: int, payload: bytes, what: str) -> dict:
    try:
        return _RECORDS[record](Frame(record, payload).json(), f"{what} record")
    except (FrameError, CheckpointError) as exc:
        raise StoreError(f"corrupt {what} record: {exc}") from exc


def _record_text(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreError(f"text record is not valid UTF-8: {exc}") from exc


def _segment_tokenizer(header: dict, limits: "ResourceLimits | None") -> XmlTokenizer:
    """The tokenizer a version-2 segment header embeds."""
    state = header["tokenizer"]
    if state is None:
        raise StoreError("segment header carries no tokenizer snapshot")
    try:
        return XmlTokenizer.restore(state, limits=limits)
    except ReproError as exc:
        raise StoreError(f"corrupt segment header: {exc}") from exc


class _Manifest:
    """The store's atomic segment index."""

    def __init__(self) -> None:
        self.version = STORE_MANIFEST_VERSION
        self.tokenizer: "dict | None" = None
        self.next_segment = 1
        self.active: "str | None" = None
        self.compacted_before_event = 0
        self.compacted_before_checkpoint = 0
        self.next_checkpoint = 1
        self.segments: list[SegmentInfo] = []
        #: JSON of the first ``len(_encoded)`` segments (see :meth:`dumps`).
        self._encoded: list[str] = []

    def to_dict(self, segments: bool = True) -> dict:
        data = {"version": self.version, **_MANIFEST.capture(self)}
        if self.tokenizer is not None:
            data["tokenizer"] = self.tokenizer
        if segments:
            data["segments"] = [segment.to_dict() for segment in self.segments]
        return data

    @classmethod
    def load(cls, path: str) -> "_Manifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StoreError(f"corrupt store manifest {path!r}: {exc}") from exc
        version = data.get("version") if type(data) is dict else None
        if version not in _READABLE_VERSIONS or type(version) is not int:
            raise StoreError(
                f"unsupported store manifest version {version!r} "
                f"(expected one of {_READABLE_VERSIONS})"
            )
        manifest = cls()
        what = f"store manifest {path!r}"
        try:
            data = _MANIFEST(data, what, ("version",))
            if version >= 2 and data["tokenizer"] is None:
                raise CheckpointError(f"malformed {what}: version 2 holds a tokenizer")
            manifest.segments = [SegmentInfo.from_dict(entry) for entry in data["segments"]]
        except CheckpointError as exc:
            raise StoreError(str(exc)) from exc
        _MANIFEST.apply(manifest, data)
        manifest.tokenizer = data["tokenizer"]
        manifest.version = version
        return manifest

    def dumps(self) -> str:
        """:meth:`to_dict` as compact JSON.  A sealed segment never
        changes, so its entry is encoded once, not at every save."""
        encoded = self._encoded
        for segment in self.segments[len(encoded):]:
            encoded.append(json.dumps(segment.to_dict(), separators=(",", ":")))
        data = self.to_dict(segments=False)
        return f'{json.dumps(data, separators=(",", ":"))[:-1]},"segments":[{",".join(encoded)}]}}'

    def save(self, directory: str, sync: SyncPolicy) -> None:
        """Atomically swap the manifest in (write-temp + ``os.replace``)."""
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
            if sync.kind != "none":
                sync.sync_file(handle)
        os.replace(tmp, path)
        sync.sync_dir(directory)


class _Tee:
    """Push handler: ``handler`` (the engine) first, then the summary of
    the record being fed (tags, text flag, levels, event count); ``on_due``
    runs after event ``due``, so a snapshot there covers exactly it."""

    __slots__ = (
        "handler", "_start", "_characters", "_end", "_tag", "_level",
        "tags", "levels", "has_text", "count", "due", "on_due",
    )

    def __init__(self, on_due: "Callable[[], None] | None"):
        self.tags: set = set()
        self.levels: set = set()
        self._tag = self.tags.add
        self._level = self.levels.add
        self.has_text = False
        self.count = 0
        self.due = _NOT_DUE
        self.on_due = on_due
        self.bind(None)

    def fold_into(self, segment: SegmentInfo) -> None:
        """Add the summary so far to ``segment``'s, and start afresh."""
        segment.tags |= self.tags
        self.tags.clear()
        segment.note_levels(self.levels)
        self.levels.clear()
        segment.has_text = segment.has_text or self.has_text
        self.has_text = False

    def bind(self, handler) -> None:
        self.handler = handler
        target = _NO_HANDLER if handler is None else handler
        self._start = target.start_element
        self._characters = target.characters
        self._end = target.end_element

    def start_element(self, tag, level, node_id, attributes) -> None:
        self._start(tag, level, node_id, attributes)
        self._tag(tag)
        self._level(level)
        self.count += 1
        if self.count == self.due:
            self.on_due()

    def characters(self, text, level) -> None:
        self._characters(text, level)
        self.has_text = True
        self._level(level)
        self.count += 1
        if self.count == self.due:
            self.on_due()

    def end_element(self, tag, level) -> None:
        self._end(tag, level)
        self._tag(tag)
        self._level(level)
        self.count += 1
        if self.count == self.due:
            self.on_due()


_NO_HANDLER = EventHandler()


class EventLogWriter(EventHandler):
    """Append XML text durably, with checkpoints, tokenising as it goes.

    :meth:`feed` runs each chunk through the writer's
    :class:`~repro.stream.tokenizer.XmlTokenizer` into the caller's
    handler (the engine) and the segment summary, then appends it as a
    ``REC_TEXT`` record; :meth:`finish` ends the document.  At the first
    record boundary at or after ``segment_events`` events the segment is
    sealed — its summary enters the manifest atomically — and a fresh one
    opens with the tokenizer's snapshot in its header.  Every
    ``checkpoint_interval`` events (0 = manual only) a checkpoint is
    taken in the event's callback, embedding the :meth:`attach`-ed
    engine's snapshot; its record follows the text record that delivers
    the event.  ``sync`` (a :class:`~repro.store.sync.SyncPolicy` or its
    string form) counts events and syncs at record boundaries.

    Events with no source text — the writer's
    :class:`~repro.stream.events.EventHandler` callbacks, :meth:`append`,
    :meth:`extend` — are serialised to text (escaped as
    :mod:`repro.stream.writer` does) and logged a record per event;
    character data waits for the tag that follows it, which is when the
    tokenizer delivers it.  The text must re-tokenise to exactly the
    appended events, so one it cannot reproduce (an id that is not the
    next pre-order id, a level that does not match the depth,
    whitespace-only or adjacent character data) raises
    :class:`StoreError`.  After an error the writer takes nothing more.

    Reopening a writer on an existing store recovers first: the active
    segment is re-tokenised from its header, a torn tail is truncated,
    and the document continues after the last durable record (at
    character :attr:`text_position` of its text).  A cleanly closed store
    continues its document likewise, and starts a new one only once that
    document has ended or its root element has closed.  Version-1 stores
    are read-only.
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
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        limits: ResourceLimits | None = None,
    ):
        if segment_events < 1:
            raise StoreError(f"segment_events must be >= 1, got {segment_events}")
        self.path = path
        self.segment_events = segment_events
        self.checkpoint_interval = checkpoint_interval
        self.sync = SyncPolicy.coerce(sync)
        self.max_frame = max_frame
        self._record_chars = max(1, min(RECORD_CHARS, max_frame // 4))
        self._config = {
            "policy": RecoveryPolicy.coerce(policy).value,
            "skip_whitespace": True,
        }
        self._limits = limits
        self._metrics = metrics
        self._engine = None
        self._engine_kind: "str | None" = None
        self._file = None
        self._segment: "SegmentInfo | None" = None
        self._closed = False
        self._failed: "BaseException | None" = None
        self._feeding = False
        self._ended = False
        self._tee = _Tee(self._due)
        #: What re-tokenising the appended events' text yields.
        self._retokenised = EventCollector()
        #: A character event and its text, waiting for the next tag.
        self._held: "tuple[Characters, str] | None" = None
        #: ``(id, event, payload)`` of checkpoints waiting for their record.
        self._queued: list[tuple[int, int, bytes]] = []
        #: Events the logged records re-tokenise to.
        self._committed = 0
        #: Events between fsyncs (0 = never), and the position of the last.
        self._sync_every = self.sync.every
        self._synced_at = 0
        #: Events appended (the replay coordinate system).
        self.position = 0
        #: Ids of the checkpoint records this writer wrote, in order.
        self.checkpoint_ids: list[int] = []
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
            self._manifest.tokenizer = dict(self._config)
            self._tokenizer = self._new_tokenizer()
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

    @property
    def text_position(self) -> int:
        """Characters of the current document's text the log holds."""
        return self._tokenizer.bytes_fed

    def _new_tokenizer(self) -> XmlTokenizer:
        return XmlTokenizer(
            policy=self._config["policy"],
            limits=self._limits,
            metrics=self._metrics,
        )

    def _recover(self) -> None:
        """Resume on an existing store: re-tokenise the active tail,
        truncate torn bytes."""
        manifest = self._manifest
        if manifest.version != STORE_MANIFEST_VERSION:
            raise StoreError(f"store {self.path!r} has manifest version "
                             f"{manifest.version}, which is read-only")
        if manifest.tokenizer != self._config:
            raise StoreError(f"store {self.path!r} was recorded with tokenizer "
                             f"{manifest.tokenizer}, not {self._config}")
        if manifest.segments:
            last = manifest.segments[-1]
            self._committed = last.base_event + last.events
        else:
            self._committed = manifest.compacted_before_event
        self.position = self._tee.count = self._committed
        name = manifest.active
        if name is None:
            # Cleanly closed store: a fresh segment, which goes on with the
            # document unless that document is over.
            self._tokenizer = self._tail_tokenizer(closed=True)
            self._open_segment()
            return
        active_path = os.path.join(self.path, name)
        scan = None
        if os.path.exists(active_path):
            scan = _scan_segment(active_path, name, self.max_frame, 2, self._limits)
        if scan is None or scan[0] is None:
            # Crash before the segment's header was written, or garbage:
            # restart it where the last sealed segment left the document.
            if scan is not None:
                self.recovered_tail_bytes = os.path.getsize(active_path)
            self._tokenizer = self._tail_tokenizer()
            self._open_segment(reuse_name=name, truncate=True)
            return
        segment, good_bytes, torn, self._tokenizer, ended = scan
        if torn:
            self.recovered_tail_bytes = os.path.getsize(active_path) - good_bytes
            with open(active_path, "r+b") as handle:
                handle.truncate(good_bytes)
        self._committed = segment.base_event + segment.events
        self.position = self._tee.count = self._committed
        for checkpoint in segment.checkpoints:
            manifest.next_checkpoint = max(
                manifest.next_checkpoint, int(checkpoint["id"]) + 1
            )
        self._activate(segment, open(active_path, "ab"))
        if ended:
            # The document was complete: the next one starts afresh.
            self._seal()
            self._tokenizer = self._new_tokenizer()
            self._open_segment()

    def _tail_tokenizer(self, closed: bool = False) -> XmlTokenizer:
        """The tokenizer as the last sealed segment leaves the document, or
        a fresh one when that document has ended — or, on a ``closed``
        store, when its root element has closed."""
        for last in self._manifest.segments[-1:]:
            _, _, _, tokenizer, ended = _scan_segment(
                os.path.join(self.path, last.file), last.file, self.max_frame, 2,
                self._limits)
            if ended:
                break
            if closed:
                state = tokenizer.snapshot()
                if state["seen_root"] and not state["stack"]:
                    break
            return tokenizer
        return self._new_tokenizer()

    def _activate(self, segment: SegmentInfo, handle) -> None:
        """Append to ``segment`` through ``handle`` from now on."""
        self._segment = segment
        self._file = handle
        self._synced_at = self.position

    def _open_segment(self, reuse_name: "str | None" = None, truncate: bool = False) -> None:
        manifest = self._manifest
        if reuse_name is None:
            name = _segment_name(manifest.next_segment)
            sequence = manifest.next_segment
            manifest.next_segment += 1
        else:
            name = reuse_name
            sequence = manifest.next_segment - 1
        segment = SegmentInfo(file=name, sequence=sequence, base_event=self._committed)
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
            "base_event": self._committed,
            "tokenizer": self._tokenizer.snapshot(),
        }
        self._write_frame(REC_SEGMENT, json.dumps(header, separators=(",", ":")).encode("utf-8"))
        if self._metrics is not None:
            self._m_segments.set(len(manifest.segments) + 1)

    def _seal(self) -> None:
        segment = self._segment
        if self.sync.kind != "none":
            self.sync.sync_file(self._file)
        self._file.close()
        self._file = None
        segment.size = os.path.getsize(os.path.join(self.path, segment.file))
        segment.sealed = True
        self._manifest.segments.append(segment)
        self._segment = None

    def close(self) -> None:
        """Seal the active segment and mark the store cleanly closed; then
        raise :class:`StoreError` if appended character data went unlogged."""
        if self._closed:
            return
        if self._segment is not None:
            self._seal()
        self._closed = True
        self._manifest.active = None
        self._manifest.save(self.path, self.sync)
        if self._held is not None:
            raise StoreError(f"{self._held[0]} was not logged: character data "
                             "re-tokenises only with the tag that follows it")

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending ------------------------------------------------------

    def feed(self, chunk: str, handler=None) -> None:
        """Tokenise ``chunk`` into ``handler`` and append it to the log.

        ``handler`` (any :class:`~repro.stream.events.EventHandler`, e.g.
        the attached engine's) receives each event before the writer
        counts it.  A chunk over :data:`RECORD_CHARS` characters is fed
        and logged in pieces.  Tokenizer errors propagate as they are.
        """
        self._begin(handler)
        if self._held is not None:
            raise StoreError("appended character data awaits its next tag")
        interval = self.checkpoint_interval
        self._tee.due = (self.position // interval + 1) * interval if interval else _NOT_DUE
        step = self._record_chars
        for start in range(0, len(chunk), step):
            self._log(self._tokenizer.feed_into, chunk[start:start + step])
            self.position = self._tee.count
            self._after_record()

    def finish(self, handler=None) -> None:
        """End the document: close the tokenizer into ``handler`` (a
        lenient policy synthesizes missing end tags here) and log an
        end-of-document record."""
        self.feed("", handler)
        self._log(self._tokenizer.close_into, "")
        self.position = self._tee.count
        self._ended = True
        self._after_record()

    def append(self, event: Event) -> None:
        """Append one pull-mode event object."""
        events_to_handler((event,), self)

    def extend(self, events: Iterable[Event]) -> None:
        events_to_handler(events, self)

    def start_element(self, tag, level, node_id, attributes) -> None:
        attrs = "".join(
            f' {name}="{escape_attribute(value)}"' for name, value in attributes.items()
        )
        self._append_event(
            StartElement(tag, level, node_id, dict(attributes)), f"<{tag}{attrs}>"
        )

    def characters(self, text, level) -> None:
        self._begin(self._retokenised)
        if self._held is not None:
            raise StoreError("adjacent character events re-tokenise as one")
        self._held = (Characters(text, level), escape_text(text))
        self._appended()

    def end_element(self, tag, level) -> None:
        self._append_event(EndElement(tag, level), f"</{tag}>")

    def _append_event(self, event: Event, text: str) -> None:
        """Log ``text`` (after any held character data); it must
        re-tokenise to exactly the appended events."""
        self._begin(self._retokenised)
        self._tee.due = _NOT_DUE
        expected = [event]
        if self._held is not None:
            expected.insert(0, self._held[0])
            text = self._held[1] + text
            self._held = None
        try:
            self._log(self._tokenizer.feed_into, text, expected)
        except StoreError:
            raise
        except ReproError as exc:
            raise StoreError(f"the text of {event} does not re-tokenise: {exc}") from exc
        self._appended()

    def _appended(self) -> None:
        self.position += 1
        if self.checkpoint_interval and self.position % self.checkpoint_interval == 0:
            self.checkpoint()
        self._after_record()

    def _begin(self, handler) -> None:
        """Check the writer takes input now; deliver events to ``handler``."""
        if self._closed:
            raise StoreError("append to a closed EventLogWriter")
        if self._failed is not None:
            raise StoreError(f"EventLogWriter stopped after an error: {self._failed}")
        if self._ended:
            raise StoreError("the document has ended; reopen the store for the next")
        if handler is not self._tee.handler:
            self._tee.bind(handler)

    def _due(self) -> None:
        """A checkpoint falls due inside a text feed (the tee's callback)."""
        self.position = self._tee.count
        self.checkpoint()
        self._tee.due += self.checkpoint_interval

    # -- records --------------------------------------------------------

    def _write_frame(self, type_code: int, payload: bytes) -> None:
        data = encode_frame(type_code, payload)
        self._file.write(data)
        if self._metrics is not None:
            self._m_bytes.inc(len(data))

    def _log(self, parse, text: str, expected: "list | None" = None) -> None:
        """Tokenise ``text`` with ``parse`` (a feed, or the close that an
        empty record stands for) — to exactly the ``expected`` events, if
        given — then log it, fold its summary into the segment and write
        the checkpoints taken meanwhile.  On an error nothing is logged
        and the writer stops."""
        tee = self._tee
        self._feeding = True
        try:
            if text:
                parse(text, tee)
            else:
                parse(tee)
            if expected is not None:
                got = self._retokenised.events
                if got != expected:
                    raise StoreError(f"the appended events {expected} re-tokenise "
                                     f"as {got}")
                got.clear()
        except BaseException as exc:
            self._fail(exc)
            raise
        finally:
            self._feeding = False
        self._write_frame(REC_TEXT, text.encode("utf-8"))
        tee.fold_into(self._segment)
        if self._metrics is not None:
            self._m_events.inc(tee.count - self._committed)
        self._committed = tee.count
        self._segment.events = self._committed - self._segment.base_event
        if self._queued:
            self._write_checkpoints()

    def _fail(self, exc: BaseException) -> None:
        """Drop what the failed input added, and take no more."""
        self._failed = exc
        tee = self._tee
        tee.tags.clear()
        tee.levels.clear()
        tee.has_text = False
        tee.count = self.position = self._committed
        self._queued.clear()
        self._retokenised.events.clear()

    def _write_checkpoints(self) -> None:
        for checkpoint_id, event, payload in self._queued:
            self._write_frame(REC_CHECKPOINT, payload)
            self._segment.checkpoints.append({"id": checkpoint_id, "event": event})
            self.checkpoint_ids.append(checkpoint_id)
            if self._metrics is not None:
                self._m_checkpoints.inc()
        self._queued.clear()
        # A checkpoint is a durability point: honour the policy but never
        # leave it buffered in-process.
        self._file.flush()
        if self.sync.kind != "none":
            self.sync.sync_file(self._file)
            self._synced_at = self.position

    def _after_record(self) -> None:
        """Sync and rotate as due at :attr:`position`."""
        position = self.position
        if self._sync_every and position - self._synced_at >= self._sync_every:
            self.sync.sync_file(self._file)
            self._synced_at = position
            if self._metrics is not None:
                self._m_syncs.inc()
        if not self._ended and position - self._segment.base_event >= self.segment_events:
            self._seal()
            self._open_segment()

    def checkpoint(self) -> int:
        """Write a checkpoint record covering :attr:`position`; returns its id.

        The attached engine's snapshot is taken *here*, so it must have
        consumed exactly the events appended so far (as :meth:`feed`
        ensures).  Inside a feed the record waits for the text record.
        """
        if self._closed:
            raise StoreError("append to a closed EventLogWriter")
        manifest = self._manifest
        checkpoint_id = manifest.next_checkpoint
        manifest.next_checkpoint += 1
        payload = {
            "id": checkpoint_id,
            "event": self.position,
            "engine_kind": self._engine_kind if self._engine is not None else None,
            "engine": self._engine.snapshot() if self._engine is not None else None,
        }
        self._queued.append((
            checkpoint_id, self.position,
            json.dumps(payload, separators=(",", ":")).encode("utf-8"),
        ))
        if not self._feeding:
            self._write_checkpoints()
        return checkpoint_id

    def flush(self) -> None:
        """Push buffered records to the OS (fsync only under ``always``)."""
        if self._file is not None:
            self._file.flush()


def _scan_segment(
    path: str, name: str, max_frame: int, version: int,
    limits: "ResourceLimits | None" = None,
) -> "tuple[SegmentInfo | None, int, bool, XmlTokenizer | None, bool]":
    """Summarise one segment file: ``(info, good_bytes, torn, tokenizer,
    ended)``.  ``info`` is ``None`` without a valid header; a torn tail
    stops the scan, and ``tokenizer`` is left as the last good record
    leaves it (``ended`` after an end-of-document record)."""
    segment = SegmentInfo(file=name, sequence=0, base_event=0)
    summary = _Tee(None)
    scan = _SegmentReplay(summary, 0, PushDecoder(summary) if version == 1 else None)
    good = 0
    torn = ended = False
    try:
        for record, payload, end in _frames(path, max_frame):
            if not good:
                if record != REC_SEGMENT:
                    return None, 0, True, None, False
                header = _record_json(record, payload, "segment header")
                segment.sequence = header["segment"]
                segment.base_event = header["base_event"]
                if version >= 2:
                    scan.tokenizer = _segment_tokenizer(header, limits)
            elif record == REC_CHECKPOINT:
                info = _record_json(record, payload, "checkpoint")
                segment.checkpoints.append({"id": info["id"], "event": info["event"]})
            else:
                scan.feed(record, payload)
                ended = not payload
            good = end
    except FrameError:
        torn = True
    if not good:
        return None, 0, torn, None, False
    torn = torn or good < os.path.getsize(path)
    summary.fold_into(segment)
    segment.events = summary.count
    segment.size = good
    return segment, good, torn, scan.tokenizer, ended


class _SegmentReplay:
    """Deliver one segment's events to ``handler``, less the first ``skip``:
    text records are re-tokenised from the header's :attr:`tokenizer`, the
    skipped events into a tee that turns to ``handler`` after them;
    version-1 records go to ``decoder``, which skipped ones never reach."""

    __slots__ = ("handler", "skip", "drop", "events", "tokenizer", "decoder")

    def __init__(self, handler, skip: int, decoder: "PushDecoder | None"):
        self.handler = handler
        self.skip = skip
        self.drop = _Tee(None)
        self.drop.due = skip
        self.drop.on_due = partial(self.drop.bind, handler)
        #: Events this segment's records held so far (skipped included).
        self.events = 0
        self.tokenizer: "XmlTokenizer | None" = None
        self.decoder = decoder

    def feed(self, record: int, payload: bytes) -> None:
        target = self.drop if self.events < self.skip else self.handler
        if record == REC_EVENT and self.decoder is not None:
            if target is self.handler:
                self.decoder.decode(payload)
            self.events += 1
            return
        tokenizer = self.tokenizer
        if record != REC_TEXT or tokenizer is None:
            raise StoreError(f"record type {record} does not belong in this segment")
        before = tokenizer.event_count
        try:
            if payload:
                tokenizer.feed_into(_record_text(payload), target)
            else:
                tokenizer.close_into(target)
        finally:
            self.events += tokenizer.event_count - before


class EventLogReader:
    """Read a store: manifest, segments, checkpoints, and replayable events.

    ``limits`` (a :class:`~repro.stream.recovery.ResourceLimits`) bound
    the re-tokenisation of the log's text as they bound any XML text
    (``max_total_events`` counts from the document start), and the
    version-1 decoder's records likewise (counting the events replay
    delivers), so a hostile log is contained like hostile XML.

    The reader loads the manifest once and re-scans the active segment on
    each replay, so a live writer can keep appending while readers
    replay (catch-up readers see everything logged before they scan).
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
                "Events delivered by log replay.",
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
        return _scan_segment(
            path, name, self.max_frame, self._manifest.version, self.limits
        )[0]

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
                        id=entry["id"],
                        event=entry["event"],
                        segment=segment.file,
                    )
                )
        found.sort(key=lambda info: info.id)
        return found

    def load_checkpoint(self, checkpoint_id: int) -> dict:
        """The full checkpoint record (embedded engine snapshot included)."""
        for segment in self.segments():
            for entry in segment.checkpoints:
                if entry["id"] == checkpoint_id:
                    return self._read_checkpoint(segment, checkpoint_id)
        raise StoreError(f"no checkpoint {checkpoint_id} in store {self.path!r}")

    def _read_checkpoint(self, segment: SegmentInfo, checkpoint_id: int) -> dict:
        for record, payload, _end in self._records(segment):
            if record == REC_CHECKPOINT:
                info = _record_json(record, payload, "checkpoint")
                if info["id"] == checkpoint_id:
                    return info
        raise StoreError(
            f"checkpoint {checkpoint_id} indexed in {segment.file!r} but "
            "not present (corrupt store?)"
        )

    def open_labels(self, segment: SegmentInfo) -> "list[str] | None":
        """The labels of the elements open at ``segment``'s start,
        outermost first: the ``stack`` of the tokenizer snapshot in its
        header, read alone.  ``None`` in a version-1 store, whose
        segments carry no snapshot."""
        if self._manifest.version < 2:
            return None
        path = os.path.join(self.path, segment.file)
        try:
            with open(path, "rb") as handle:
                head = handle.read(FRAME_HEADER.size)
                if len(head) == FRAME_HEADER.size:
                    length = FRAME_HEADER.unpack(head)[0]
                    head += handle.read(min(length, self.max_frame))
            frames = FrameDecoder(self.max_frame).feed(head)
        except FrameError as exc:
            raise StoreError(f"corrupt segment header in {segment.file!r}: {exc}") from exc
        if not frames or frames[0].type != REC_SEGMENT:
            raise StoreError(f"segment {segment.file!r} has no header")
        state = _record_json(REC_SEGMENT, frames[0].payload, "segment header")["tokenizer"]
        try:
            return LABELS((state or {}).get("stack"), "its tokenizer stack")
        except CheckpointError as exc:
            raise StoreError(f"corrupt segment header in {segment.file!r}: {exc}") from exc

    def _records(self, segment: SegmentInfo) -> Iterator[tuple]:
        """The segment's frames; sealed corruption raises, torn tails stop."""
        try:
            yield from _frames(os.path.join(self.path, segment.file), self.max_frame)
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

        Each segment's text is re-tokenised into ``handler`` (any
        :class:`~repro.stream.events.EventHandler`) from the tokenizer
        snapshot in its header, dropping the events before
        ``start_event``; version-1 records are decoded into it
        (:class:`~repro.stream.codec.PushDecoder`).  Corruption in a
        sealed segment raises :class:`StoreError`; a torn active tail ends
        the replay.

        ``interest`` is the handler's
        :class:`~repro.multiq.router.Interest`: a segment is skipped when
        :func:`segment_skippable` proves that none of its events can
        touch the handler's units, reading the labels open at its start
        from its header only when the verdict depends on them
        (:meth:`open_labels`), which makes skipping exact.
        ``on_checkpoint`` receives each checkpoint record at or after
        ``start_event``, after the record that delivers its event.
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

        The pull view of :meth:`events_into` (same arguments): each
        record's events are collected and yielded before the next record
        is read, and an error is raised after the events before it.
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
        """Replay into ``handler``; suspend after each read step and
        before each ``on_checkpoint`` call (the pull view's batches)."""
        if start_event < self._manifest.compacted_before_event:
            raise StoreError(
                f"events before {self._manifest.compacted_before_event} were "
                f"compacted away; replay from a checkpoint at or after it "
                f"(requested start {start_event})"
            )
        text = self._manifest.version >= 2
        decoder = None if text else PushDecoder(handler, self.limits)
        delivered = 0
        for segment in self.segments():
            if stats is not None:
                stats.segments_total += 1
            if segment.base_event + segment.events <= start_event:
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                continue
            if interest is not None and segment_skippable(
                    segment, interest, partial(self.open_labels, segment)):
                if stats is not None:
                    stats.segments_skipped += 1
                    stats.bytes_skipped += segment.size
                if self._metrics is not None:
                    self._m_skipped.inc()
                continue
            if stats is not None:
                stats.segments_read += 1
            skip = max(0, start_event - segment.base_event)
            feed = _SegmentReplay(handler, skip, decoder)
            try:
                for record, payload, _end in self._records(segment):
                    if record == REC_SEGMENT:
                        if text and feed.tokenizer is None:
                            feed.tokenizer = _segment_tokenizer(
                                _record_json(record, payload, "segment header"),
                                self.limits)
                    elif record != REC_CHECKPOINT:
                        feed.feed(record, payload)
                        yield
                    elif on_checkpoint is not None:
                        info = _record_json(record, payload, "checkpoint")
                        if info["event"] >= start_event:
                            yield
                            on_checkpoint(info)
            finally:
                passed = min(skip, feed.events)
                delivered += feed.events - passed
                if stats is not None:
                    stats.events_emitted += feed.events - passed
                    stats.events_positioned_past += passed
            if stats is not None:
                stats.bytes_read += segment.size
        if self._metrics is not None and delivered:
            self._m_replayed.inc(delivered)


def segment_skippable(
    segment: SegmentInfo,
    interest: "Interest",
    open_labels: "Callable[[], Iterable[str] | None] | None" = None,
) -> bool:
    """True when no event in ``segment`` can touch a handler with ``interest``.

    Two exact rules (:mod:`repro.store.index`).  The alphabet rule: no
    unit's alphabet meets the segment's tags, and no unit wants its text;
    it does not hold for a handler that reads inside its matches
    (``interest.inside``).  The gate rule: no ungated unit's alphabet or
    text wish meets the segment, and no gate label occurs in its tags or
    is open at its start.  Neither holds when a unit wants every event.

    ``open_labels`` returns the labels open at the segment's start, or
    ``None`` when they are unknown (a version-1 segment); it is called
    only when the verdict depends on them.
    """
    if interest.wants_all:
        return False
    tags = segment.tags
    text = segment.has_text
    if not interest.inside and not (tags & interest.tags or interest.wants_text and text):
        return True
    gates = interest.gates
    if tags & interest.free_tags or interest.free_text and text or tags & gates:
        return False
    if not gates:
        return True
    labels = None if open_labels is None else open_labels()
    return labels is not None and gates.isdisjoint(labels)


def compact(
    path: str,
    before_checkpoint: int,
    *,
    sync: "str | SyncPolicy | None" = None,
) -> dict:
    """Drop whole sealed segments wholly before ``before_checkpoint``.

    The space/history trade: the segments whose every event precedes the
    named checkpoint's position, up to the one holding its record, are
    deleted after an atomic manifest swap records the new floor.  Replay
    from that checkpoint or a later one is unaffected (each segment
    header holds the tokenizer state replay starts from); replay of the
    dropped range raises :class:`StoreError` with the floor in the
    message.

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
            if entry["id"] == before_checkpoint:
                target = entry
    if target is None:
        raise StoreError(f"no checkpoint {before_checkpoint} in store {path!r}")
    floor = target["event"]
    keep: list[SegmentInfo] = []
    dropped: list[SegmentInfo] = []
    for segment in manifest.segments:
        # The segment holding the checkpoint's own record stays, even
        # when the checkpoint covers every event in it.
        if not keep and segment.base_event + segment.events <= floor and (
                target not in segment.checkpoints):
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
