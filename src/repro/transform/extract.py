"""Substream extraction: ``select(query)`` over an XML stream.

Every node matched by a select query is delivered as a *well-formed XML
fragment* — the node's whole subtree, levels rebased so the matched
element is the fragment root, serialized through the chunked
:class:`~repro.stream.writer.IncrementalXmlWriter` (footnote 3 of the
paper, grown into an output path).

Buffering is verdict-bounded, not document-bounded:

* queries classified :func:`~repro.transform.base.immediate_match` stream
  the fragment *while it arrives* — serialized text chunks leave the
  extractor before the matched subtree has finished parsing, with zero
  event buffering for the outermost candidate;
* all other queries buffer a candidate subtree only until its verdict
  (eager queries: the candidate's own end tag; predicate-above-return
  queries: the enclosing root match's close), then replay it through the
  writer.

:meth:`SubstreamExtractor.evaluate` produces byte-identical fragments
from pre-built events and from text, and :meth:`~SubstreamExtractor.snapshot` /
:meth:`~SubstreamExtractor.restore` capture the extractor mid-fragment —
a half-serialized streaming fragment resumes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable

from repro.checkpoint import (
    BOOL, NAT, OBJECT, STR, Fields, ListOf, MapOf, Nullable, Tuple, enum, read_envelope,
    restoring)
from repro.core.processor import EMISSION
from repro.errors import CheckpointError
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.writer import DEFAULT_WRITER_CHUNK, IncrementalXmlWriter
from repro.transform.base import (
    BASE,
    EVENT,
    TRANSFORM_SNAPSHOT_VERSION,
    StreamTransform,
    coerce_queries,
    pack_events,
)

if TYPE_CHECKING:
    from repro.multiq.router import Interest


@dataclass(frozen=True, slots=True)
class Fragment:
    """One extracted match: which query, which node, the fragment text."""

    query: str
    node_id: int
    text: str


#: A captured candidate subtree (a :class:`_Record`): streamed by its
#: writer, or buffered in its events (its start tag first); ``verdict``
#: is absent from older releases' captures.
_RECORD = Fields(
    {"name": STR, "node_id": NAT, "base_level": NAT, "next_id": NAT, "open": BOOL,
     "events": Nullable(ListOf(EVENT, least=1)), "writer": Nullable(OBJECT),
     "parts": Nullable(STR)},
    {"verdict": (Nullable(enum("emit", "dead")), None)},
    ("name", "node_id", "base_level", "next_id", "open", "verdict"))
#: An extractor capture (:meth:`SubstreamExtractor.snapshot`).
_SNAPSHOT = Fields(
    {"queries": MapOf(STR), "base": BASE, "records": ListOf(_RECORD),
     "open": ListOf(Tuple(STR, NAT)), "streaming": MapOf(NAT),
     "fragments": ListOf(Tuple(STR, NAT, STR)), "fragment_counts": MapOf(NAT),
     "fragment_bytes": NAT},
    {"emission": (EMISSION, "default")}, ("_streaming", "fragment_bytes"),
    ("queries", "base", "records", "open", "fragments", "fragment_counts"))


class _Record:
    """One open or undecided candidate subtree."""

    __slots__ = ("name", "node_id", "base_level", "next_id", "events",
                 "writer", "parts", "open", "verdict")

    def __init__(self, name: str, node_id: int, base_level: int):
        self.name = name
        self.node_id = node_id
        self.base_level = base_level
        self.next_id = 0
        #: Rebased fragment events (buffered mode, or events delivery).
        self.events: list | None = None
        #: Live streaming serializer (immediate fast path only).
        self.writer: IncrementalXmlWriter | None = None
        #: Accumulated streamed text (when whole-fragment text is wanted).
        self.parts: list[str] | None = None
        self.open = True
        #: Verdict ("emit"/"dead") that arrived while the subtree was
        #: still streaming in (earliest-emission machines decide early);
        #: settled — fragment emitted or dropped — when the record
        #: closes, so early verdicts never truncate a fragment.
        self.verdict: str | None = None


class SubstreamExtractor(StreamTransform):
    """Extract each match of one or more queries as an XML substream.

    Parameters
    ----------
    queries:
        One XPath (named ``select``), a sequence (each named by its
        source text), or a name → query mapping.
    on_fragment:
        ``(query_name, node_id, text)`` — called once per match with the
        complete serialized fragment.  Without any callback, fragments
        collect on :attr:`fragments`.
    on_chunk:
        ``(query_name, node_id, chunk)`` — incremental fragment text.
        For immediate queries chunks are delivered while the subtree is
        still streaming in; a fragment's chunks are contiguous per
        ``(query, node)`` but fragments of *different* queries may
        interleave.
    on_fragment_events:
        ``(query_name, node_id, events)`` — the fragment as a rebased,
        well-formed event list (levels from 1, ids in document order).
    chunk_size:
        Flush threshold of the per-fragment writers.
    policy / on_diagnostic / limits / metrics:
        As in :class:`~repro.core.processor.XPathStream`; ``metrics``
        additionally publishes the ``repro_transform_*`` families.
    emission:
        ``"default"`` or ``"earliest"`` — forwarded to the match
        machines (see docs/LATENCY.md).  Under ``earliest`` a buffered
        candidate's verdict can settle before the enclosing root match
        closes, so its fragment is released at its own end tag; the
        fragment *text* is identical in both modes.
    """

    def __init__(
        self,
        queries,
        *,
        on_fragment: "Callable[[str, int, str], None] | None" = None,
        on_chunk: "Callable[[str, int, str], None] | None" = None,
        on_fragment_events=None,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic=None,
        limits: ResourceLimits | None = None,
        query_limits: ResourceLimits | None = None,
        metrics=None,
        emission: str = "default",
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics, emission=emission)
        self._on_fragment = on_fragment
        self._on_chunk = on_chunk
        self._on_events = on_fragment_events
        self._chunk_size = chunk_size
        self._query_limits = query_limits
        self._collect = (on_fragment is None and on_chunk is None
                         and on_fragment_events is None)
        #: Whole-fragment text must be assembled?
        self._want_text = self._collect or on_fragment is not None
        self.queries = coerce_queries(queries)
        self._immediate: dict[str, bool] = {}
        #: Query currently streaming (immediate fast path): name → node_id.
        self._streaming: dict[str, int] = {}
        for name, query in self.queries.items():
            self._immediate[name] = self._register(name, query,
                                                   limits=query_limits)
        #: (name, node_id) → record, open and undecided alike.
        self._records: dict[tuple[str, int], _Record] = {}
        #: Open records in creation (document) order.
        self._open: list[_Record] = []
        #: Collect-mode output.
        self.fragments: list[Fragment] = []
        self.fragment_counts: dict[str, int] = {name: 0 for name in self.queries}
        self.fragment_bytes = 0
        if metrics is not None:
            self._bind_metrics(metrics)

    # -- observability -----------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_fragments = metrics.counter(
            "repro_transform_fragments_total",
            "Fragments emitted by substream extraction, per query.",
        )
        self._m_bytes = metrics.counter(
            "repro_transform_fragment_bytes_total",
            "Serialized fragment characters emitted.",
        )
        self._m_events = metrics.counter(
            "repro_transform_events_total",
            "Input events processed by the transform layer.",
        )
        metrics.add_collector(self._sync_metrics)

    def _sync_metrics(self) -> None:
        for name, count in self.fragment_counts.items():
            self._m_fragments.set(count, query=name)
        self._m_bytes.set(self.fragment_bytes)
        self._m_events.set(self.events_in)

    # -- interest (combinator support) ------------------------------------

    def interest(self) -> "Interest":
        """What the select queries can react to, marked ``inside``: a
        fragment lies inside its match, which lies inside an element with
        the query's root label, so the extractor reads every event while
        a gate label is open (see :mod:`repro.store.index`)."""
        return self._engine.interest()._replace(inside=True)

    @property
    def active(self) -> bool:
        """True while any candidate subtree is open (buffering)."""
        return bool(self._open)

    # -- event handling ----------------------------------------------------

    def start_element(self, tag, level, node_id, attributes) -> None:
        created = self._feed_start(tag, level, node_id, attributes)
        for name in created:
            self._open_record(name, node_id, level)
        for record in self._open:
            record.next_id += 1
            rebased = level - record.base_level + 1
            if record.writer is not None:
                record.writer.start_element(tag, rebased, record.next_id,
                                            attributes)
            if record.events is not None:
                record.events.append(
                    StartElement(tag, rebased, record.next_id,
                                 dict(attributes))
                )

    def characters(self, text, level) -> None:
        self._feed_chars(text, level)
        for record in self._open:
            rebased = level - record.base_level + 1
            if record.writer is not None:
                record.writer.characters(text, rebased)
            if record.events is not None:
                record.events.append(Characters(text, rebased))

    def end_element(self, tag, level) -> None:
        verdicts = self._feed_end(tag, level)
        open_records = self._open
        for record in open_records:
            rebased = level - record.base_level + 1
            if record.writer is not None:
                record.writer.end_element(tag, rebased)
            if record.events is not None:
                record.events.append(EndElement(tag, rebased))
        while open_records and open_records[-1].base_level == level:
            record = open_records.pop()
            record.open = False
            if record.writer is not None:
                self._streaming.pop(record.name, None)
            if record.verdict is not None:
                # Early (earliest-emission) verdict, deferred until the
                # subtree finished streaming: settle it now.
                self._records.pop((record.name, record.node_id), None)
                if record.verdict == "emit":
                    self._emit_fragment(record)
        for kind, name, node_id in verdicts:
            record = self._records.get((name, node_id))
            if record is None:  # pragma: no cover - defensive
                continue
            if record.open:
                # The machine decided before the subtree closed (it runs
                # ahead of the record bookkeeping under earliest mode);
                # emitting now would truncate the fragment.
                record.verdict = kind
                continue
            del self._records[(name, node_id)]
            if kind == "emit":
                self._emit_fragment(record)
            # "dead": buffered events are simply dropped.

    # -- fragment lifecycle ------------------------------------------------

    def _open_record(self, name: str, node_id: int, level: int) -> None:
        record = _Record(name, node_id, level)
        if self._immediate[name] and name not in self._streaming:
            # Outermost candidate of an immediate query: stream it.
            self._streaming[name] = node_id
            record.writer = IncrementalXmlWriter(
                self._make_stream_sink(record), chunk_size=self._chunk_size
            )
            if self._want_text:
                record.parts = []
            if self._on_events is not None:
                record.events = []
        else:
            record.events = []
        self._records[(name, node_id)] = record
        self._open.append(record)

    def _make_stream_sink(self, record: _Record):
        on_chunk = self._on_chunk

        def sink(chunk: str) -> None:
            if on_chunk is not None:
                on_chunk(record.name, record.node_id, chunk)
            if record.parts is not None:
                record.parts.append(chunk)

        return sink

    def _emit_fragment(self, record: _Record) -> None:
        if record.writer is not None:
            record.writer.close()
            writer_bytes = record.writer.bytes_written
        else:
            # Buffered subtree: replay through a fresh writer now.
            writer = IncrementalXmlWriter(
                self._make_stream_sink(record)
                if (self._on_chunk is not None or self._want_text)
                else None,
                chunk_size=self._chunk_size,
            )
            if self._on_chunk is not None or self._want_text:
                if self._want_text and record.parts is None:
                    record.parts = []
                for event in record.events:
                    _dispatch(writer, event)
                writer.close()
            else:
                for event in record.events:
                    _dispatch(writer, event)
            writer_bytes = writer.bytes_written
        self.fragment_counts[record.name] += 1
        self.fragment_bytes += writer_bytes
        if self._on_events is not None:
            self._on_events(record.name, record.node_id, list(record.events))
        if self._want_text:
            text = "".join(record.parts) if record.parts is not None else ""
            if self._on_fragment is not None:
                self._on_fragment(record.name, record.node_id, text)
            else:
                self.fragments.append(Fragment(record.name, record.node_id,
                                               text))

    def close(self):
        """Finish the stream; return collected fragments (collect mode)."""
        self._close_text()
        return self.fragments if self._collect else None

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the extractor mid-stream (mid-fragment included)."""
        records = [{
            **_RECORD.capture(record),
            "events": pack_events(record.events) if record.events is not None else None,
            "writer": record.writer.snapshot() if record.writer is not None else None,
            "parts": "".join(record.parts) if record.parts is not None else None,
        } for record in self._records.values()]
        return {"version": TRANSFORM_SNAPSHOT_VERSION, "kind": "extract",
                "emission": self._emission, **_SNAPSHOT.capture(
                    self,
                    queries={name: (query.source if hasattr(query, "source") else query)
                             for name, query in self.queries.items()},
                    base=self._base_snapshot(),
                    records=records,
                    open=[[record.name, record.node_id] for record in self._open],
                    fragments=[[f.query, f.node_id, f.text] for f in self.fragments],
                    fragment_counts=dict(self.fragment_counts))}

    def _held_ids(self) -> Iterable[int]:
        return chain(super()._held_ids(), (record.node_id for record in self._records.values()))

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        on_fragment=None,
        on_chunk=None,
        on_fragment_events=None,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic=None,
        limits: ResourceLimits | None = None,
        query_limits: ResourceLimits | None = None,
        metrics=None,
    ) -> "SubstreamExtractor":
        """Rebuild an extractor from :meth:`snapshot`; callbacks anew."""
        snapshot = read_envelope(snapshot, "extractor snapshot",
                                 TRANSFORM_SNAPSHOT_VERSION, _SNAPSHOT, kind="extract")
        with restoring("extractor snapshot"):
            extractor = cls(
                snapshot["queries"],
                on_fragment=on_fragment,
                on_chunk=on_chunk,
                on_fragment_events=on_fragment_events,
                chunk_size=chunk_size,
                policy=policy,
                on_diagnostic=on_diagnostic,
                limits=limits,
                query_limits=query_limits,
                metrics=metrics,
                emission=snapshot["emission"],
            )
            extractor._records = {}
            for payload in snapshot["records"]:
                if payload["writer"] is None and (payload["events"] is None
                                                  or payload["parts"] is not None):
                    raise CheckpointError("a buffered extractor record holds "
                                          "its events and no text")
                record = _Record(payload["name"], payload["node_id"],
                                 payload["base_level"])
                _RECORD.apply(record, payload)
                record.events = payload["events"]
                if payload["writer"] is not None:
                    record.writer = IncrementalXmlWriter.restore(
                        payload["writer"],
                        extractor._make_stream_sink(record),
                        chunk_size=chunk_size,
                    )
                if payload["parts"] is not None:
                    record.parts = [payload["parts"]] if payload["parts"] \
                        else []
                extractor._records[(record.name, record.node_id)] = record
            extractor._open = [extractor._records[tuple(key)]
                               for key in snapshot["open"]]
            _SNAPSHOT.apply(extractor, snapshot)
            extractor.fragments = [Fragment(*fragment)
                                   for fragment in snapshot["fragments"]]
            extractor.fragment_counts.update(snapshot["fragment_counts"])
            # Last: the tokenizer's next id is checked against the records'.
            extractor._restore_base(snapshot["base"],
                                    list(extractor.queries))
        return extractor


def _dispatch(handler, event) -> None:
    cls = event.__class__
    if cls is StartElement:
        handler.start_element(event.tag, event.level, event.node_id,
                              event.attributes)
    elif cls is EndElement:
        handler.end_element(event.tag, event.level)
    else:
        handler.characters(event.text, event.level)


def select(source, queries, **kwargs) -> list[Fragment]:
    """One-shot extraction: every match of ``queries`` over ``source``.

    Convenience wrapper over :class:`SubstreamExtractor` in collect mode;
    returns the :class:`Fragment` list.
    """
    extractor = SubstreamExtractor(queries, **kwargs)
    return extractor.evaluate(source)
