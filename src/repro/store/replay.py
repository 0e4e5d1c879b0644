"""Ingest, replay, and late-query catch-up over the durable log.

Three verbs tie the log to the evaluation stack:

* :func:`ingest` — parse XML once, tee every modified-SAX event to the
  log *and* (optionally) a live engine, with periodic checkpoints that
  embed the engine's versioned snapshot.  The engine consumes each
  event *before* the writer persists it, so a checkpoint at position
  *n* embeds an engine that has seen exactly events ``0..n-1`` — which
  is precisely what makes replay-from-checkpoint byte-identical.
* :func:`replay` — evaluate a query/engine over recorded history,
  optionally resuming from an embedded checkpoint, with exact
  index-driven segment skipping and full
  :class:`~repro.stream.recovery.ResourceLimits` enforcement on the
  (attacker-reachable) log bytes.
* :func:`catch_up` — the late-query path: backfill a brand-new query
  over history in a scratch engine, then splice its warmed machine into
  a live :class:`~repro.multiq.engine.MultiQueryEngine` at the exact
  event offset (:meth:`~repro.multiq.engine.MultiQueryEngine.attach_warm`).

Replay equivalence holds because evaluation depends only on the event
sequence: the codec round-trips events exactly, the log preserves their
order, and segment skipping only ever drops events the alphabet router
proves no registered machine can react to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.tokenizer import XmlTokenizer, iter_text_chunks
from repro.store.index import interest_for
from repro.store.log import (
    DEFAULT_SEGMENT_EVENTS,
    EventLogReader,
    EventLogWriter,
    ReplayStats,
    StoreError,
)

__all__ = ["ingest", "replay", "replay_into", "catch_up", "IngestResult",
           "CatchUpResult"]


@dataclass
class IngestResult:
    """What one :func:`ingest` run produced."""

    path: str
    events: int
    segments: int
    checkpoints: list[int] = field(default_factory=list)
    #: Live evaluation results (dict for a MultiQueryEngine, list for an
    #: XPathStream, ``None`` when ingesting without an engine).
    results: "dict | list | None" = None


class _Tee:
    """Push handler fanning one scan out to engine-then-writer.

    Engine first: the writer's auto-checkpoint fires *after* it appends
    an event, and the embedded snapshot must cover everything up to the
    checkpoint position — so the engine has to consume each event before
    the writer counts it.
    """

    __slots__ = ("_first", "_second")

    def __init__(self, first, second):
        self._first = first
        self._second = second

    def start_element(self, tag, level, node_id, attributes) -> None:
        self._first.start_element(tag, level, node_id, attributes)
        self._second.start_element(tag, level, node_id, attributes)

    def characters(self, text, level) -> None:
        self._first.characters(text, level)
        self._second.characters(text, level)

    def end_element(self, tag, level) -> None:
        self._first.end_element(tag, level)
        self._second.end_element(tag, level)


def ingest(
    source,
    path: str,
    *,
    queries: "Mapping[str, str] | None" = None,
    engine=None,
    checkpoint_interval: int = 1024,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
    sync=None,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> IngestResult:
    """Record ``source`` into the store at ``path``, evaluating as it goes.

    ``source`` is anything :func:`~repro.stream.tokenizer.iter_text_chunks`
    accepts (XML text, a file path, a file object, text chunks).  Supply
    either ``queries`` (name → XPath; a
    :class:`~repro.multiq.engine.MultiQueryEngine` is built) or a
    ready-made ``engine`` (MultiQueryEngine or
    :class:`~repro.core.processor.XPathStream`); with neither, the log
    records events and engine-less checkpoints (replay then always
    evaluates cold).  ``limits``/``policy`` guard the *text parse*,
    exactly as in live evaluation.

    A final checkpoint is always written before close, so every store
    ends with a resumable position.
    """
    from repro.multiq.engine import MultiQueryEngine

    if queries is not None and engine is not None:
        raise StoreError("pass queries or engine, not both")
    if queries is not None:
        engine = MultiQueryEngine(queries)
    writer = EventLogWriter(
        path,
        segment_events=segment_events,
        checkpoint_interval=checkpoint_interval,
        sync=sync,
        metrics=metrics,
    )
    checkpoints: list[int] = []
    original_checkpoint = writer.checkpoint

    def record_checkpoint() -> int:
        checkpoint_id = original_checkpoint()
        checkpoints.append(checkpoint_id)
        return checkpoint_id

    writer.checkpoint = record_checkpoint  # observe auto-checkpoints too
    if engine is not None:
        writer.attach(engine)
    try:
        tokenizer = XmlTokenizer(policy=policy, limits=limits, metrics=metrics)
        if engine is None:
            handler = writer
        elif isinstance(engine, MultiQueryEngine):
            handler = _Tee(engine.as_handler(), writer)
        else:
            handler = _Tee(engine.push_handler(), writer)
        for chunk in iter_text_chunks(source):
            tokenizer.feed_into(chunk, handler)
        tokenizer.close_into(handler)
        record_checkpoint()
    finally:
        writer.close()
    if engine is None:
        results = None
    elif isinstance(engine, MultiQueryEngine):
        results = engine.results()
    else:
        results = list(engine.results)
    return IngestResult(
        path=path,
        events=writer.position,
        segments=len(writer._manifest.segments),
        checkpoints=checkpoints,
        results=results,
    )


def replay(
    target=None,
    path: str = "",
    *,
    from_checkpoint: "int | None" = None,
    limits: ResourceLimits | None = None,
    skip: bool = True,
    stats: "ReplayStats | None" = None,
    metrics=None,
    on_match=None,
):
    """Evaluate over recorded history; results match live evaluation.

    ``target`` selects what evaluates:

    * ``None`` with ``from_checkpoint`` — restore the engine embedded in
      that checkpoint and resume it over the remaining events (the
      recovery path: identical results to never having stopped);
    * an XPath string, compiled query, or name → XPath mapping — cold
      evaluation of the *whole* recorded stream (a late query reading
      history), with index-driven segment skipping;
    * a live :class:`~repro.multiq.engine.MultiQueryEngine` or
      :class:`~repro.core.processor.XPathStream` — fed from
      ``from_checkpoint``'s position (default 0); the caller warrants
      its state corresponds to that position.

    ``limits`` bounds the *log bytes themselves* — depth, attribute
    count/length, text length, total events — so a hostile or corrupted
    log is as contained as hostile XML text, including on the
    checkpoint-restore fast path (the events fed after restore pass
    through the same checked decoder).  ``skip=False`` disables segment
    skipping (differential testing).  Returns the engine's results
    (dict per query for multi-query targets, list of ids otherwise).
    """
    from repro.core.processor import XPathStream
    from repro.multiq.engine import MultiQueryEngine
    from repro.xpath.querytree import QueryTree

    if not path:
        raise StoreError("replay requires a store path")
    reader = EventLogReader(path, limits=limits, metrics=metrics)
    start_event = 0
    engine = target
    if from_checkpoint is not None:
        record = reader.load_checkpoint(from_checkpoint)
        start_event = int(record["event"])
        if engine is None:
            snapshot = record.get("engine")
            if snapshot is None:
                raise StoreError(
                    f"checkpoint {from_checkpoint} has no embedded engine; "
                    "pass a query or engine to replay"
                )
            if record.get("engine_kind") == "multi":
                engine = MultiQueryEngine.restore(snapshot, metrics=metrics)
            else:
                engine = XPathStream.restore(snapshot, metrics=metrics)
    if engine is None:
        raise StoreError("replay needs a target (query/engine) or a checkpoint")
    if isinstance(engine, Mapping):
        engine = MultiQueryEngine(engine, on_match=on_match, metrics=metrics)
    elif isinstance(engine, (str, QueryTree)):
        engine = XPathStream(engine, on_match=on_match, metrics=metrics)
    interest = interest_for(engine) if skip else None
    events = reader.events(start_event, interest=interest, stats=stats)
    if isinstance(engine, MultiQueryEngine):
        engine.feed_events(events)
        return engine.results()
    engine.feed_events(events)
    try:
        return list(engine.results)
    except AttributeError:
        return []


def replay_into(
    handler,
    path: str,
    *,
    start_event: int = 0,
    from_checkpoint: "int | None" = None,
    limits: ResourceLimits | None = None,
    stats: "ReplayStats | None" = None,
    metrics=None,
    close: bool = True,
):
    """Drive any push :class:`~repro.stream.events.EventHandler` from
    recorded history — the transform-over-replay hook.

    Unlike :func:`replay`, no alphabet-driven segment skipping is
    applied: a stream *consumer* (a
    :class:`~repro.transform.extract.SubstreamExtractor`, a
    :class:`~repro.transform.rewrite.RewriteEngine`, a serializer) needs
    the content of matched subtrees, not just the events its machines
    dispatch on, so skipping segments by query alphabet would drop
    fragment content.  Events are decoded under ``limits`` exactly as in
    :func:`replay`.

    ``from_checkpoint`` positions the replay at that checkpoint's event
    offset (the handler must already carry matching state — e.g. a
    transform restored from a snapshot taken at the same offset);
    ``start_event`` positions it explicitly.  With ``close`` (default)
    the handler's ``close()`` result is returned after the last event.
    """
    reader = EventLogReader(path, limits=limits, metrics=metrics)
    start = start_event
    if from_checkpoint is not None:
        record = reader.load_checkpoint(from_checkpoint)
        start = int(record["event"])
    from repro.stream.events import events_to_handler

    events_to_handler(reader.events(start, stats=stats), handler)
    if close:
        close_handler = getattr(handler, "close", None)
        if close_handler is not None:
            return close_handler()
    return None


@dataclass
class CatchUpResult:
    """A spliced late query: what it saw and where it joined."""

    name: str
    #: Event offset at which the query joined the live stream — equal to
    #: the number of durable events it was backfilled over.
    position: int
    events_replayed: int
    stats: ReplayStats
    registration: object = None


def catch_up(
    live_engine,
    path: str,
    name: str,
    query,
    *,
    on_match=None,
    limits: ResourceLimits | None = None,
    replay_limits: ResourceLimits | None = None,
    metrics=None,
) -> CatchUpResult:
    """Attach ``query`` to a live engine *with* history, from the log.

    The query is evaluated over all recorded events in a scratch
    single-query engine (index skipping applies — a selective query
    backfills in time proportional to the segments that can matter, not
    the log size), then its warmed machine and result state are spliced
    into ``live_engine`` via
    :meth:`~repro.multiq.engine.MultiQueryEngine.attach_warm`.

    The caller must pause feeding ``live_engine`` for the duration (the
    serving layer's session worker is single-threaded, so there this is
    free) and must have teed everything it fed into the log at ``path``
    (the :func:`ingest` arrangement): the splice position is the log's
    durable event count, and correctness requires the live engine to be
    at that same offset.

    ``limits`` are the query's own admission limits (as in
    :meth:`add_query` — forcing unfiltered delivery and full-stream
    accounting); ``replay_limits`` bound the log bytes read during
    backfill, closing the hostile-log hole on this path too.
    """
    from repro.multiq.engine import MultiQueryEngine

    # The scratch engine mirrors the live engine's compilation tier so
    # the warmed machine state it snapshots has the shape attach_warm's
    # freshly-built unit expects.
    scratch = MultiQueryEngine(compiled=getattr(live_engine, "_compiled", False))
    scratch.add_query(name, query, limits=limits)
    reader = EventLogReader(path, limits=replay_limits, metrics=metrics)
    stats = ReplayStats()
    interest = scratch.interest()
    scratch.feed_events(reader.events(0, interest=interest, stats=stats))
    position = reader.position
    snapshot = scratch.snapshot()
    unit_payload = None
    for candidate in snapshot["units"]:
        if name in candidate["queries"]:
            unit_payload = candidate
            break
    if unit_payload is None:  # pragma: no cover - structural invariant
        raise StoreError(f"backfill engine lost query {name!r}")
    registration = live_engine.attach_warm(
        name,
        query,
        machine_state=unit_payload["machine"],
        sink_state=unit_payload["sinks"],
        on_match=on_match,
        limits=limits,
    )
    return CatchUpResult(
        name=name,
        position=position,
        events_replayed=stats.events_emitted,
        stats=stats,
        registration=registration,
    )
