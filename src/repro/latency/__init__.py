"""Decision-lag measurement and the earliest-emission contract.

TwigM buffers a candidate answer until the end tags that settle its
predicate flags — but the answer is often *provable* long before it is
emitted.  Gienieczko, Muñoz, Murlak & Paperman 2026 formalize *earliest
query answering*: emit each answer at the first stream event where the
input read so far already guarantees it is an answer.  This package
holds the measurement side of that story:

:class:`LatencyClock`
    a stream position counter (events and bytes) advanced by whatever
    drives the engine — the engines themselves never touch it, so the
    default hot path stays clean;

:class:`DecisionLagProbe`
    records, per result id, the earliest-provable point (reported by an
    engine constructed with ``lag_probe=probe``) and the actual emission
    point (observed by wrapping the result sink), and publishes the
    difference as the ``repro_latency_decision_lag_events`` /
    ``repro_latency_decision_lag_bytes`` histograms plus the
    ``repro_latency_results_total`` counter.

The optimisation side is the engines' ``emission="earliest"`` mode
(:class:`repro.core.twigm.TwigM` and :class:`repro.core.branchm.BranchM`,
observed or not), which flushes each candidate at
its earliest-provable event; under it the measured decision lag
collapses to (near) zero.  The contract — result-*set* equality with
the default mode, where ordering may differ, how checkpoints interact —
is documented in docs/LATENCY.md and benchmarked by
:mod:`repro.bench.latency`.
"""

from __future__ import annotations

from repro.core.results import ResultSink

#: Histogram buckets for decision lag measured in events.
EVENT_LAG_BUCKETS = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

#: Histogram buckets for decision lag measured in bytes.
BYTE_LAG_BUCKETS = (
    0, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)


class LatencyClock:
    """The driver-side stream position: events seen and bytes consumed.

    Advance it once per modified-SAX event *before* feeding the event to
    the engine, so marks and observations land on the position of the
    event that caused them.
    """

    __slots__ = ("events", "bytes")

    def __init__(self) -> None:
        self.events = 0
        self.bytes = 0

    def advance(self, events: int = 1, nbytes: int = 0) -> None:
        self.events += events
        self.bytes += nbytes


class _ProbeSink(ResultSink):
    """Sink wrapper reporting first emissions to the owning probe."""

    def __init__(self, probe: "DecisionLagProbe", inner: ResultSink):
        self._probe = probe
        self._inner = inner

    def emit(self, node_id: int) -> None:
        self._probe.observe(node_id)
        self._inner.emit(node_id)

    def emit_all(self, node_ids) -> None:
        observe = self._probe.observe
        for node_id in node_ids:
            observe(node_id)
        self._inner.emit_all(node_ids)

    def snapshot_state(self) -> dict:
        return self._inner.snapshot_state()

    def restore_state(self, state: dict) -> None:
        self._inner.restore_state(state)


class DecisionLagProbe:
    """Per-result decision lag: earliest-provable point → emission point.

    Wire-up::

        clock = LatencyClock()
        probe = DecisionLagProbe(clock, registry=registry)
        engine = TwigM(query, sink=probe.wrap_sink(sink), lag_probe=probe)
        for event, size in events_with_sizes:
            clock.advance(1, size)
            ... feed event ...

    The engine calls :meth:`mark_provable` when its provability analysis
    first proves a candidate (in default mode this is measurement only;
    in earliest mode the flush happens at the same event, so lag ≈ 0).
    The wrapped sink calls :meth:`observe` at emission.  A result
    emitted without a prior mark gets lag 0: its provable point *is* its
    emission point (e.g. a root-close emission whose proof completes at
    that very pop).
    """

    def __init__(self, clock: LatencyClock, registry=None):
        self.clock = clock
        self._marks: dict[int, tuple[int, int]] = {}
        self._observed: set[int] = set()
        #: raw records: (node_id, event_lag, byte_lag), in emission order
        self.lags: list[tuple[int, int, int]] = []
        if registry is not None:
            self._event_hist = registry.histogram(
                "repro_latency_decision_lag_events",
                "Events between a result's earliest-provable point and its emission.",
                buckets=EVENT_LAG_BUCKETS,
            )
            self._byte_hist = registry.histogram(
                "repro_latency_decision_lag_bytes",
                "Stream bytes between a result's earliest-provable point and its emission.",
                buckets=BYTE_LAG_BUCKETS,
            )
            self._emitted_counter = registry.counter(
                "repro_latency_results_total",
                "Results whose decision lag was measured.",
            )
        else:
            self._event_hist = self._byte_hist = self._emitted_counter = None

    def mark_provable(self, node_ids) -> None:
        """Record the current stream position as the provable point.

        Idempotent per id — only the *earliest* mark counts — and a
        no-op for ids already emitted.
        """
        marks = self._marks
        observed = self._observed
        position = (self.clock.events, self.clock.bytes)
        for node_id in node_ids:
            if node_id not in marks and node_id not in observed:
                marks[node_id] = position

    def observe(self, node_id: int) -> None:
        """Record an emission; measures lag on the first one per id."""
        if node_id in self._observed:
            return
        self._observed.add(node_id)
        marked = self._marks.pop(node_id, None)
        if marked is None:
            event_lag = byte_lag = 0
        else:
            event_lag = self.clock.events - marked[0]
            byte_lag = self.clock.bytes - marked[1]
        self.lags.append((node_id, event_lag, byte_lag))
        if self._event_hist is not None:
            self._event_hist.observe(event_lag)
            self._byte_hist.observe(byte_lag)
            self._emitted_counter.inc()

    def wrap_sink(self, sink: ResultSink) -> ResultSink:
        """Wrap a result sink so emissions are observed automatically."""
        return _ProbeSink(self, sink)

    # -- convenience summaries -------------------------------------------

    def event_lags(self) -> list[int]:
        return [lag for _, lag, _ in self.lags]

    def byte_lags(self) -> list[int]:
        return [lag for _, _, lag in self.lags]
