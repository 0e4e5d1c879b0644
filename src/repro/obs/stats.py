"""One observed evaluation pass: metrics + per-chunk stage spans.

:func:`run_stats` wires the whole pipeline to one
:class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer` and streams a document through it.
A single query runs as a one-entry
:class:`~repro.multiq.engine.MultiQueryEngine`, so the machine,
tokenizer *and* dispatch metric families all populate regardless of
workload shape — ``repro stats`` always exposes the same schema.

Unlike the fused text path (which trades stage visibility for speed,
see :mod:`repro.core.textfeed`), the stats runner deliberately splits each chunk
into traceable stages:

``parse``
    tokenize the chunk into modified-SAX events;
``dispatch``
    route + dispatch the events through the multi-query engine — the
    closing span args carry the chunk's dispatched/broadcast deltas;
``emit``
    an instant marker whose args carry how many new solutions the
    chunk produced per collecting query.

The resulting tracer dumps as Chrome ``chrome://tracing`` /  Perfetto
JSON via :meth:`~repro.obs.trace.Tracer.to_chrome_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.tokenizer import DEFAULT_CHUNK_SIZE, XmlTokenizer, iter_text_chunks


@dataclass(slots=True)
class StatsRun:
    """Everything one observed pass produced."""

    #: the registry holding every populated metric family
    registry: MetricsRegistry
    #: the tracer holding the per-chunk stage spans
    tracer: Tracer
    #: per-query solution ids (collect mode)
    results: dict = field(default_factory=dict)
    #: chunks streamed (also available as ``repro_stats_chunks_total``)
    chunks: int = 0
    #: the decision-lag probe (``lag=True`` runs only); raw per-result
    #: lags on ``lag_probe.lags``, aggregates in the registry's
    #: ``repro_latency_*`` families
    lag_probe: object = None


def _event_size(event) -> int:
    """Approximate serialized size of one modified-SAX event.

    Start tags count the tag, brackets and attribute text; end tags add
    the slash; character events count their text.  An estimate — the
    byte-lag histograms trade exact byte accounting for zero coupling to
    the tokenizer internals.
    """
    cls = event.__class__
    if cls is StartElement:
        size = len(event.tag) + 2
        for key, value in event.attributes.items():
            size += len(key) + len(value) + 4  # space, =, two quotes
        return size
    if cls is EndElement:
        return len(event.tag) + 3
    return len(event.text)


def run_stats(
    queries,
    source,
    *,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    limits: ResourceLimits | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    emission: str = "default",
    lag: bool = False,
) -> StatsRun:
    """Stream ``source`` through ``queries`` with full observability.

    ``queries`` is a single XPath string or a ``{name: xpath}`` mapping;
    ``source`` is anything text-bearing (XML text, a path, a file
    object, text chunks).  A fresh registry/tracer is created unless one
    is passed in (pass your own to aggregate several runs).

    ``emission`` selects the machines' result-emission mode
    (``"default"``/``"earliest"``, see docs/LATENCY.md).  ``lag=True``
    attaches a :class:`~repro.latency.DecisionLagProbe` to every TwigM/
    BranchM query and populates the ``repro_latency_*`` families — the
    per-event clock bookkeeping makes this pass slower, so it is opt-in.
    Path-machine queries already emit at their earliest point and record
    no lag samples.
    """
    if isinstance(queries, str):
        queries = {"query": queries}
    registry = registry if registry is not None else MetricsRegistry()
    tracer = tracer if tracer is not None else Tracer()
    lag_probe = None
    clock = None
    if lag:
        from repro.latency import DecisionLagProbe, LatencyClock

        clock = LatencyClock()
        lag_probe = DecisionLagProbe(clock, registry=registry)
    engine = MultiQueryEngine(policy=policy, limits=limits,
                              metrics=registry)
    for name, query in queries.items():
        engine.add_query(name, query, emission=emission, lag_probe=lag_probe)
    tokenizer = XmlTokenizer(
        policy=RecoveryPolicy.coerce(policy),
        limits=limits,
        metrics=registry,
    )
    chunk_counter = registry.counter(
        "repro_stats_chunks_total",
        "Text chunks streamed by the stats runner.",
    )
    last_dispatched = last_broadcast = 0
    last_emitted: dict[str, int] = {}
    chunks = 0

    def dispatch(events) -> None:
        nonlocal last_dispatched, last_broadcast
        tracer.begin("dispatch", events=len(events))
        if clock is not None:
            # Lag measurement needs the stream clock at the position of
            # the event being processed, so feed one event at a time.
            handler = engine.as_handler()
            for event in events:
                clock.advance(1, _event_size(event))
                cls = event.__class__
                if cls is StartElement:
                    handler.start_element(event.tag, event.level,
                                          event.node_id, event.attributes)
                elif cls is EndElement:
                    handler.end_element(event.tag, event.level)
                else:
                    handler.characters(event.text, event.level)
        else:
            engine.feed_events(events)
        stats = engine.dispatch_stats()
        tracer.end(
            dispatched=stats.machine_events_dispatched - last_dispatched,
            broadcast=stats.machine_events_broadcast - last_broadcast,
        )
        last_dispatched = stats.machine_events_dispatched
        last_broadcast = stats.machine_events_broadcast
        emitted = engine.emitted_counts()
        fresh = {
            name: count - last_emitted.get(name, 0)
            for name, count in emitted.items()
            if count != last_emitted.get(name, 0)
        }
        tracer.instant("emit", new=sum(fresh.values()), by_query=fresh)
        last_emitted.update(emitted)

    for chunk in iter_text_chunks(source, chunk_size):
        with tracer.span("chunk", index=chunks, size=len(chunk)):
            tracer.begin("parse", size=len(chunk))
            events = list(tokenizer.feed(chunk))
            tracer.end(events=len(events))
            dispatch(events)
        chunks += 1
        chunk_counter.inc()
        registry.tick()
    with tracer.span("close"):
        tail = list(tokenizer.close())
        if tail:
            dispatch(tail)
    results = engine.close()
    registry.tick()
    return StatsRun(registry=registry, tracer=tracer, results=results,
                    chunks=chunks, lag_probe=lag_probe)
