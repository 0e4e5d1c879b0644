"""The shared multi-query dispatch engine (layer 4 front door).

:class:`MultiQueryEngine` evaluates many named standing XPath queries
over one XML stream, parsing the stream once and routing each event only
to the machines that can react to it:

* identical queries (structural equality, equal limits) share one
  machine with multiplexed result sinks (:mod:`repro.multiq.canon`,
  :mod:`repro.multiq.registry`);
* events are dispatched through an inverted tag index
  (:mod:`repro.multiq.router`), so per-event work is proportional to the
  number of *interested* machines, not the number of registered queries,
  and each delivery is demand-gated: a machine whose state the event
  cannot change (its root stack is empty and the tag does not label its
  root) is not called at all, and a route whose gate label has no open
  element is not even visited (the router's open-label index);
* queries can be added and removed on a live stream, each admitted with
  its own :class:`~repro.stream.recovery.ResourceLimits`;
* :meth:`snapshot` / :meth:`restore` capture the whole dispatcher —
  every machine, every sink, the mid-parse tokenizer — as one versioned
  JSON-serializable dict, composing the per-machine checkpointing of
  :class:`~repro.core.processor.XPathStream`.

Example::

    from repro.multiq import MultiQueryEngine

    engine = MultiQueryEngine({
        "cheap":  "//book[price < 30]/title",
        "recent": "//book[@year = '2006']/title",
    })
    results = engine.evaluate("catalog.xml")
    engine.dispatch_stats().reduction   # routing win vs broadcast

Filtered dispatch is exact, not approximate: a machine only mutates
state on events whose tag its dispatch table contains, and a PathM or
TwigM with an empty root stack has every stack empty (entries nest), so
it only reacts to a start tag of its root label; skipping the rest is
provably equivalent (see :mod:`repro.multiq.router` for the end-tag,
character-data and gate arguments).  Results are byte-identical to
evaluating every query with its own :class:`XPathStream`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.checkpoint import (
    BOOL, NAT, OBJECT, STR, Fields, ListOf, MapOf, Nullable, enum, read_envelope,
    restoring)
from repro.compile.dfa import DFA_STATE, fallen_pathm_states
from repro.core.machine import CUMULATIVE_FIGURES
from repro.core.processor import EMISSION
from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.core.textfeed import TextFeed
from repro.errors import CheckpointError
from repro.multiq.canon import canonical_text
from repro.multiq.registry import (
    EvalUnit,
    QueryRegistry,
    Registration,
    SharedPathUnit,
    ShapeUnit,
)
from repro.multiq.router import AlphabetRouter, Interest, fold_interest
from repro.stream.events import EndElement, Event, EventHandler, StartElement
from repro.stream.recovery import POLICY, RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.xpath.querytree import QueryTree

#: Version of the dispatcher snapshot schema.
MULTIQ_SNAPSHOT_VERSION = 1
#: A query entry of a capture, bound to a :class:`Registration`
#: (``tracked`` and ``emission`` are absent from older releases').
_QUERY = Fields({"name": STR, "query": STR, "limits": Nullable(OBJECT), "callback": BOOL},
                {"tracked": (BOOL, False), "emission": (EMISSION, "default")},
                ("callback", "tracked", "emission"))
#: A unit entry: member names in slot order, engine, machine, member
#: sinks, and the unit's bound ``virgin`` and ``events``.
_UNIT = Fields(
    {"queries": ListOf(STR, least=1), "engine": enum("pathm", "dfa", "branchm", "twigm"),
     "machine": OBJECT, "sinks": MapOf(OBJECT)},
    {"virgin": (BOOL, False), "events": (NAT, 0), "shape": (BOOL, False)},
    ("virgin", "events"))
#: Dispatch counters, and the retired figures per engine kind (earlier
#: releases also retired ``dfa_fallbacks``, PathM swaps, which is dropped).
_STATS = Fields({"events": NAT, "dispatched": NAT, "broadcast": NAT}, {
    "retired": (MapOf(MapOf(NAT, keys=(*CUMULATIVE_FIGURES, "dfa_fallbacks"))), {})})
#: Its fields; ``compiled`` is written by older releases and ignored.
_SNAPSHOT = Fields(
    {"policy": POLICY, "limits": Nullable(OBJECT), "queries": ListOf(_QUERY),
     "units": ListOf(_UNIT), "tokenizer": Nullable(OBJECT)},
    {"compiled": (BOOL, False), "open_labels": (Nullable(MapOf(NAT)), None),
     "stats": (_STATS, {"events": 0, "dispatched": 0, "broadcast": 0, "retired": {}})})


@dataclass(frozen=True, slots=True)
class DispatchStats:
    """Routing effectiveness counters for one engine.

    ``machine_events_broadcast`` is the counterfactual cost of the
    broadcast dispatcher (every event × every registered query);
    ``machine_events_dispatched`` is what the router actually delivered
    after tag routing and demand gating (machine calls made).
    ``gate_tests`` counts the routes the dispatcher visited to make
    those deliveries (one demand-gate test each): the open-label index
    keeps it close to ``machine_events_dispatched``.  It is a cost
    measure of this engine's own run: snapshots do not carry it (a
    restored engine counts from zero, and one resumed from a capture
    without its open labels visits every gated route until the document
    element closes), so it takes no part in equality.
    """

    events: int
    queries: int
    units: int
    machine_events_dispatched: int
    machine_events_broadcast: int
    gate_tests: int = field(default=0, compare=False)

    @property
    def reduction(self) -> float:
        """Broadcast-to-dispatched ratio (≥ 1.0 is a win)."""
        if self.machine_events_dispatched == 0:
            return float("inf") if self.machine_events_broadcast else 1.0
        return self.machine_events_broadcast / self.machine_events_dispatched

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "queries": self.queries,
            "units": self.units,
            "machine_events_dispatched": self.machine_events_dispatched,
            "machine_events_broadcast": self.machine_events_broadcast,
            "gate_tests": self.gate_tests,
            "reduction": self.reduction,
        }


def _noop(_node_id: int) -> None:
    """Placeholder callback for restored callback queries (see restore)."""


class MultiQueryEngine(TextFeed):
    """Many standing queries, one parse, alphabet-routed dispatch.

    Parameters
    ----------
    queries:
        Optional initial mapping of query name → XPath string (or
        compiled :class:`~repro.xpath.querytree.QueryTree`); more can be
        added later with :meth:`add_query`, even mid-stream.
    on_match:
        Optional callback ``(name, node_id)`` fired as soon as any query
        confirms a solution.  Queries registered without a per-query
        callback inherit it; without any callback, results collect per
        query (:meth:`results`).
    policy / on_diagnostic / limits:
        Recovery configuration for the *shared text parse*
        (:meth:`feed_text` / :meth:`evaluate`), as in
        :class:`~repro.core.processor.XPathStream`.  ``limits`` here
        bounds the tokenizer; per-query machine limits are passed to
        :meth:`add_query` instead.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the shared tokenizer publishes ``repro_tokenizer_*``, and the
        engine registers one collector that runs when the registry is
        scraped.  It publishes the ``repro_multiq_*`` families
        (total/dispatched/broadcast event counts, query and unit gauges,
        the router hit ratio, per-query emitted counts labelled
        ``query="name"``) and, from the counters the units and their
        machines keep anyway, ``repro_machine_*`` and ``repro_compile_*``
        (:mod:`repro.obs.machines`).  The units are the same either way.

    Every predicate-free path query without per-query limits, tracker or
    lag probe is a member of one shared lazy DFA
    (:class:`~repro.multiq.registry.SharedPathUnit`: a single
    :class:`~repro.compile.dfa.DfaPathM` over all their trunks, so a
    start tag costs one transition lookup however many path queries are
    registered), routed on the union of the members' alphabets like any
    other unit.  Results are bit-for-bit identical to evaluating each
    query on its own machine.
    """

    def __init__(
        self,
        queries: "Mapping[str, str | QueryTree] | None" = None,
        on_match: "Callable[[str, int], None] | None" = None,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: "Callable[[StreamDiagnostic], None] | None" = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics)
        self._registry = QueryRegistry()
        self._router = AlphabetRouter()
        self._on_match = on_match
        self._handler: "_MultiQueryHandler | None" = None
        self._events = 0
        # A visited route (one gate test) either delivers or finds its
        # gate closed, so the deliveries are the visited routes minus the
        # closed ones, plus ``_unrouted``, the deliveries made otherwise
        # (limited units, or carried in by a restore): no delivery pays
        # for the count (see :attr:`_dispatched`).
        self._visited = 0
        self._closed_gates = 0
        self._unrouted = 0
        # Broadcast deliveries are events × registrations, settled into
        # ``_broadcast`` whenever the registration set changes.
        self._broadcast = 0
        self._settled_events = 0
        #: Engine kind -> the cumulative figures of units (or sharers)
        #: dropped, and of sink counts reset (see :meth:`_retire`).
        self._retired: dict[str, dict[str, int]] = {}
        if metrics is not None:
            self._bind_metrics(metrics)
        if queries:
            for name, query in queries.items():
                self.add_query(name, query)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._registry)

    @property
    def names(self) -> list[str]:
        """Registered query names, in registration order."""
        return self._registry.names

    def engine_names(self) -> dict[str, str]:
        """Which machine evaluates each query (pathm/branchm/twigm/dfa)."""
        return self._registry.engine_names()

    def unit_count(self) -> int:
        """Distinct machine instances after dedup (≤ query count)."""
        return self._registry.unit_count()

    def canonical_queries(self) -> dict[str, str]:
        """Each query's canonical XPath spelling (the dedup face)."""
        return {
            registration.name: registration.canonical
            for registration in self._registry.registrations()
        }

    def registration(self, name: str) -> Registration:
        """Look up one standing query's registration by name."""
        return self._registry.get(name)

    def interest(self) -> Interest:
        """What the registered units can react to: the
        :class:`~repro.multiq.router.Interest` of every unit
        (:func:`~repro.multiq.router.fold_interest`).

        Units with per-query :class:`~repro.stream.recovery.ResourceLimits`
        force ``wants_all`` (their accounting needs every event),
        mirroring the router's unfiltered path.  The durable log's replay
        uses this to decide which segments provably cannot matter
        (:mod:`repro.store.index`).
        """
        return fold_interest(self._registry.units())

    def dispatch_stats(self) -> DispatchStats:
        """Routing counters accumulated since construction (or reset)."""
        return DispatchStats(
            events=self._events,
            queries=len(self._registry),
            units=self._registry.unit_count(),
            machine_events_dispatched=self._dispatched,
            machine_events_broadcast=self._broadcast_total(),
            gate_tests=self._visited,
        )

    @property
    def _dispatched(self) -> int:
        """Machine-event deliveries since construction (or reset)."""
        return self._visited - self._closed_gates + self._unrouted

    def _broadcast_total(self) -> int:
        """Counterfactual broadcast deliveries: settled plus every event
        since the last settlement × the current registration count."""
        return self._broadcast + (
            (self._events - self._settled_events) * len(self._registry)
        )

    def _settle_broadcast(self) -> None:
        """Fold the running broadcast count in before registrations change."""
        self._broadcast = self._broadcast_total()
        self._settled_events = self._events

    def emitted_counts(self) -> dict[str, int]:
        """Distinct solutions emitted so far, per query (either sink kind)."""
        return {
            registration.name: registration.unit.sink.sinks[registration.name].emitted
            for registration in self._registry.registrations()
        }

    # -- metrics --------------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_events = metrics.counter(
            "repro_multiq_events_total", "Events dispatched through the router."
        )
        self._m_dispatched = metrics.counter(
            "repro_multiq_dispatched_total",
            "Machine-event deliveries the router actually made (after gating).",
        )
        self._m_broadcast = metrics.counter(
            "repro_multiq_broadcast_total",
            "Counterfactual deliveries a broadcast dispatcher would make.",
        )
        self._m_queries = metrics.gauge(
            "repro_multiq_queries", "Standing queries currently registered."
        )
        self._m_units = metrics.gauge(
            "repro_multiq_units", "Distinct machine units after dedup."
        )
        self._m_hit_ratio = metrics.gauge(
            "repro_multiq_router_hit_ratio",
            "Dispatched / broadcast: fraction of deliveries the router kept.",
        )
        self._m_emitted = metrics.counter(
            "repro_multiq_emitted_total",
            "Distinct solutions emitted, per query.",
        )
        from repro.obs.machines import MachineMetrics

        self._machine_metrics = MachineMetrics(metrics)
        #: (family, query name or None) -> the value last published.
        self._m_published: dict[tuple, int] = {}
        metrics.add_collector(self._sync_metrics)

    def _metric_values(self) -> dict[tuple, int]:
        values = {
            (self._m_events, None): self._events,
            (self._m_dispatched, None): self._dispatched,
            (self._m_broadcast, None): self._broadcast_total(),
            (self._m_queries, None): len(self._registry),
            (self._m_units, None): self._registry.unit_count(),
        }
        for name, count in self.emitted_counts().items():
            values[self._m_emitted, name] = count
        return values

    def _sync_metrics(self) -> None:
        """Publish the dispatcher's counters into the registry.

        Each family moves by its change since the previous scrape (as
        :class:`~repro.obs.machines.MachineMetrics` does), so engines
        sharing a registry add up; :meth:`reset` and :meth:`remove_query`
        publish before they clear counts.  The hit ratio is the
        registry's, over every engine.
        """
        current = self._metric_values()
        published = self._m_published
        for (family, name), value in current.items():
            change = value - published.get((family, name), 0)
            if change:
                family.inc(change, **({} if name is None else {"query": name}))
        self._m_published = current
        broadcast = self._m_broadcast.get()
        self._m_hit_ratio.set(self._m_dispatched.get() / broadcast if broadcast else 0.0)
        self._machine_metrics.publish(self.machine_figures())

    def machine_figures(self) -> dict[str, dict[str, int]]:
        """Metric figures per engine kind: every live unit's
        (:meth:`~repro.multiq.registry.EvalUnit.figures`) summed, plus
        the retired totals."""
        totals = {kind: dict(figures) for kind, figures in self._retired.items()}
        for unit in self._registry.units():
            kind = totals.setdefault(unit.engine_name, {})
            for field, value in unit.figures().items():
                kind[field] = kind.get(field, 0) + value
        return totals

    def _retire(self, kind: str, before: dict, after: dict) -> None:
        """Fold what a unit's cumulative figures lost between ``before``
        and ``after`` (a dropped unit: all of them) into the retired
        totals."""
        retired = self._retired.setdefault(kind, {})
        for field in CUMULATIVE_FIGURES:
            lost = before.get(field, 0) - after.get(field, 0)
            if lost > 0:
                retired[field] = retired.get(field, 0) + lost

    # -- lifecycle ------------------------------------------------------

    def add_query(
        self,
        name: str,
        query: "str | QueryTree",
        *,
        on_match: "Callable[[int], None] | None" = None,
        limits: ResourceLimits | None = None,
        tracker=None,
        emission: str = "default",
        lag_probe=None,
    ) -> Registration:
        """Register a standing query, possibly mid-stream.

        ``on_match`` (per-query, receives the node id) overrides the
        engine-level callback; ``limits`` admits the query's machine
        under its own :class:`ResourceLimits` (such machines see every
        event so limit accounting matches a dedicated stream).
        ``tracker`` attaches a
        :class:`~repro.core.twigm.CandidateTracker` observing the
        query's candidate lifetimes — the fragment-capture hook used by
        :mod:`repro.transform`; tracked queries run a dedicated TwigM
        (never shared) so the tracker sees exactly one query's story.

        A query added mid-stream starts cold: it evaluates the remainder
        of the stream exactly as a fresh :class:`XPathStream` started at
        this event boundary would, and never shares a warm machine.

        ``emission="earliest"`` runs the query's machine in
        earliest-emission mode (same result set, earlier delivery — see
        docs/LATENCY.md); mixed-mode engines are fine, the mode is part
        of the unit-sharing key.  ``lag_probe`` attaches a
        :class:`repro.latency.DecisionLagProbe` to a dedicated machine.
        """
        sink = self._make_sink(name, on_match)
        self._settle_broadcast()
        registration, created, gained = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            tracker=tracker,
            emission=emission,
            lag_probe=lag_probe,
        )
        if created is not None:
            self._router.add(created)
        elif registration.unit.routable:
            self._router.extend(registration.unit, gained)
        return registration

    def attach_warm(
        self,
        name: str,
        query: "str | QueryTree",
        *,
        machine_state: dict,
        sink_state: dict,
        on_match: "Callable[[int], None] | None" = None,
        limits: ResourceLimits | None = None,
    ) -> Registration:
        """Splice in a query whose machine state was computed elsewhere.

        This is the late-query catch-up hook: a backfill pass (typically
        :func:`repro.store.replay.catch_up`) evaluates the query over
        recorded history in a scratch engine, snapshots that unit's
        machine and sink state, and attaches it here so the query
        continues on the live stream as if it had been registered from
        the start.  The unit is dedicated (never shared — its history
        differs from any virgin machine) and marked non-virgin.

        ``machine_state``/``sink_state`` are one unit's ``machine`` and
        ``sinks`` entries from a :meth:`snapshot` capture; ``sink_state``
        must be keyed by this same ``name``.  The caller is responsible
        for pausing feeding while backfill runs, so the splice lands on
        an exact event boundary.
        """
        sink = self._make_sink(name, on_match)
        self._settle_broadcast()
        registration, created, _gained = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            share=False,
        )
        unit = created if created is not None else registration.unit
        try:
            unit.engine.restore_state(machine_state)
            unit.sink.restore_state(sink_state)
            if not unit.engine.epoch_open:
                unit.sink.end_epoch()
        except (CheckpointError, KeyError, TypeError, ValueError) as exc:
            self._registry.remove(name)
            raise CheckpointError(
                f"cannot attach warm state for query {name!r}: {exc}"
            ) from exc
        unit.virgin = False
        self._router.add(unit)
        # The warm machine holds entries for elements whose start tags
        # the open-label index never counted.
        self._reopen_labels()
        return registration

    def remove_query(self, name: str) -> Registration:
        """Withdraw a standing query; its machine is dropped with the
        last sharer.  Collected results for ``name`` are discarded."""
        self._settle_broadcast()
        unit = self._registry.get(name).unit
        if self._metrics is not None:
            self._sync_metrics()
        before = unit.figures()
        registration, unit_dropped = self._registry.remove(name)
        if unit_dropped:
            self._router.remove(unit)
        self._retire(unit.engine_name, before, {} if unit_dropped else unit.figures())
        return registration

    def _is_callback(self, per_query: "Callable[[int], None] | None") -> bool:
        return per_query is not None or self._on_match is not None

    def _make_sink(
        self, name: str, per_query: "Callable[[int], None] | None"
    ) -> ResultSink:
        if per_query is not None:
            return CallbackSink(per_query)
        if self._on_match is not None:
            on_match = self._on_match

            def forward(node_id: int, _name: str = name) -> None:
                on_match(_name, node_id)

            return CallbackSink(forward)
        return CollectingSink()

    # -- feeding --------------------------------------------------------

    def feed_events(self, events: Iterable[Event]) -> None:
        """Dispatch a batch of modified-SAX events through the router.

        Each event drives the same callbacks as a text feed
        (:meth:`as_handler`), so routing, gating, counters and virgin
        retirement are one code path for both.
        """
        handler = self.as_handler()
        start, characters, end = (
            handler.start_element, handler.characters, handler.end_element
        )
        for event in events:
            if isinstance(event, StartElement):
                start(event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, EndElement):
                end(event.tag, event.level)
            else:  # Characters
                characters(event.text, event.level)

    def as_handler(self) -> "_MultiQueryHandler":
        """The dispatcher as push callbacks (cached across calls).

        The tokenizer drives it directly on text feeds, and
        :meth:`feed_events` calls it once per event.
        """
        if self._handler is None:
            self._handler = _MultiQueryHandler(self)
        return self._handler

    _text_handler = as_handler

    def close(self) -> dict[str, list[int]]:
        """Finish an incremental feed; return collected results.

        Under a lenient policy the tokenizer may synthesize end events
        for a truncated document here; they are dispatched normally.
        """
        self._close_text()
        return self.results()

    # -- results --------------------------------------------------------

    def results(self) -> dict[str, list[int]]:
        """Per-query solutions collected so far.

        Covers collect-mode queries only; callback-mode queries deliver
        through their callbacks and do not appear here.
        """
        collected: dict[str, list[int]] = {}
        for registration in self._registry.registrations():
            sink = registration.unit.sink.sinks[registration.name]
            if isinstance(sink, CollectingSink):
                collected[registration.name] = list(sink.results)
        return collected

    def reset(self) -> None:
        """Prepare every machine for a fresh document.

        Machines, sinks, the tokenizer, and dispatch statistics are
        cleared; registrations survive, and all units become shareable
        again (cold state is indistinguishable from a fresh machine).
        Machine metric figures and published counters stay cumulative.
        """
        if self._metrics is not None:
            self._sync_metrics()
        for unit in self._registry.units():
            before = unit.figures()
            unit.engine.reset()
            for sink in unit.sink.sinks.values():
                sink.reset()
            unit.virgin = True
            self._retire(unit.engine_name, before, unit.figures())
        self._tokenizer = None
        self._events = self._visited = self._broadcast = 0
        self._settled_events = self._closed_gates = self._unrouted = 0
        if self._handler is not None:
            self._handler.close_all()
        if self._metrics is not None:
            self._m_published = self._metric_values()

    # -- checkpoint / resume --------------------------------------------

    def snapshot(self) -> dict:
        """Capture the whole dispatcher as a versioned, serializable dict.

        The capture spans every unit's machine stacks and multiplexed
        sink state, the query registrations (grouping included, so dedup
        survives restore exactly), the mid-parse tokenizer, and the
        dispatch counters (not ``gate_tests``).  A restored engine seeds
        the open-label index from the tokenizer's open elements; an
        event-fed capture carries the open gate labels' element counts
        instead (``open_labels``), unless the engine itself counts every
        label open (it was restored from a capture without them and the
        document element has not closed), in which case so does the
        restored one.  A shape unit's entry adds
        ``"shape": true``; its ``queries`` list the members in slot
        order, which the member masks in its machine state index (a
        return-label shape's root entries hold their candidates per
        return label, :func:`~repro.core.machine.capture_entry`).  Each
        unit's entry counts the ``events`` delivered to it, and the
        ``stats`` carry the ``retired`` metric figures once there are
        any.
        """
        snapshot = {
            "version": MULTIQ_SNAPSHOT_VERSION,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "queries": [
                {"name": registration.name, "query": registration.source, "limits": (
                    registration.limits.to_dict() if registration.limits is not None else None),
                 **_QUERY.capture(registration)}
                for registration in self._registry.registrations()
            ],
            "units": [_unit_payload(unit) for unit in self._registry.units()],
            "tokenizer": self._tokenizer_snapshot(),
            "stats": {
                "events": self._events,
                "dispatched": self._dispatched,
                "broadcast": self._broadcast_total(),
            },
        }
        if self._retired:
            snapshot["stats"]["retired"] = {
                kind: dict(figures) for kind, figures in self._retired.items()
            }
        if self._tokenizer is None and self._events:
            labels = self._handler.label_counts()
            if labels is not None:
                snapshot["open_labels"] = labels
        return snapshot

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_match: "Callable[[str, int], None] | None" = None,
        on_diagnostic: "Callable[[StreamDiagnostic], None] | None" = None,
        metrics=None,
        trackers: "Mapping[str, object] | None" = None,
    ) -> "MultiQueryEngine":
        """Rebuild a dispatcher from a :meth:`snapshot` capture.

        Callbacks are not serializable: ``on_match`` is supplied anew and
        rebinds every callback-mode query (ids emitted before the
        checkpoint will not fire again); without it, callback-mode
        queries restore onto a silent sink so their de-duplication
        state is still preserved.  The same applies to
        candidate trackers: ``trackers`` (query name →
        :class:`~repro.core.twigm.CandidateTracker`) re-attaches them to
        tracked queries — the tracker's *own* counts are the owner's to
        restore.  Passing ``metrics`` resumes with instrumentation;
        snapshot-carried counters make the registry report the same
        totals as an uninterrupted run.
        """
        snapshot = read_envelope(snapshot, "multiq snapshot",
                                 MULTIQ_SNAPSHOT_VERSION, _SNAPSHOT)
        with restoring("multiq snapshot"):
            engine = cls(
                on_match=on_match,
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot["limits"]),
                metrics=metrics,
            )
            engine._restore_queries(snapshot, trackers or {})
            stats = snapshot["stats"]
            engine._retired = {
                kind: {field: value for field, value in figures.items()
                       if field != "dfa_fallbacks"}
                for kind, figures in stats["retired"].items()
            }
            engine._events = engine._settled_events = stats["events"]
            engine._unrouted = stats["dispatched"]
            engine._broadcast = stats["broadcast"]
            engine._restore_tokenizer(snapshot["tokenizer"])
            engine._reopen_labels(snapshot["open_labels"])
        return engine

    def _held_ids(self) -> Iterable[int]:
        for unit in self._registry.units():
            yield from unit.engine.held_ids()
            yield from unit.sink.held_ids()

    def _reopen_labels(self, labels: "Mapping[str, int] | None" = None) -> None:
        """Rebuild the open-label index after a restore or warm attach.

        A text feed knows its open elements: the tokenizer's stack seeds
        the counts exactly (an empty one, before or after the document
        element, opens nothing), as does a feed with no event yet, and
        an event-fed capture's ``labels`` (open element count per gate
        label).  Otherwise every label counts as open until the document
        element closes.
        """
        handler = self.as_handler()
        if self._tokenizer is not None:
            handler.open_labels(Counter(self._tokenizer.open_elements))
        elif labels is not None:
            handler.open_labels(labels)
        elif self._events:
            handler.assume_all_open()
        else:
            handler.close_all()

    def _restore_queries(self, snapshot: dict, trackers: Mapping) -> None:
        """Rebuild units and registrations, preserving grouping and order.

        An unlimited ``dfa`` unit restores as a
        :class:`~repro.multiq.registry.SharedPathUnit` (a ``pathm`` unit
        from a release that ran path queries on PathM stays one), and an
        entry marked ``shape`` as a
        :class:`~repro.multiq.registry.ShapeUnit` of the first member's
        kind of shape (members joined in the listed order, so the
        captured member masks keep their slots; a unit captured while
        the return label was part of the shape key resumes as a
        return-label shape whose members share that label).  Captures from the
        release that ran one DFA unit per path query have no member
        lists; their units at one open tag path fold into one shared
        unit, and fallen ones (:func:`~repro.compile.dfa.fallen_pathm_states`)
        resume as one PathM unit per member.
        """
        from repro.multiq.canon import canonicalize
        from repro.xpath.querytree import compile_query

        payloads = {payload["name"]: payload for payload in snapshot["queries"]}
        pending: dict[str, tuple[Registration, bool]] = {}
        # Legacy DFA units folded together, keyed by their open tag path.
        folded: dict[tuple[str, ...], SharedPathUnit] = {}
        for unit_payload in _unit_payloads(snapshot["units"]):
            members = unit_payload["queries"]
            first = payloads[members[0]]
            limits = ResourceLimits.from_dict(first["limits"])
            for member in members[1:]:
                if ResourceLimits.from_dict(payloads[member]["limits"]) != limits:
                    raise CheckpointError(
                        f"multiq snapshot groups {member!r} with a machine "
                        f"under different limits"
                    )
            trees = {member: canonicalize(payloads[member]["query"]) for member in members}
            sinks = {
                member: self._restored_sink(member, payloads[member]["callback"])
                for member in members
            }
            tree = trees[members[0]]
            machine = unit_payload["machine"]
            shared = unit_payload["engine"] == "dfa" and limits is None
            fold_key = None
            if shared and "members" not in machine:
                fold_key = tuple(DFA_STATE(machine, "DFA snapshot")["dfa"]["tags"])
            unit = folded.get(fold_key)
            new_unit = unit is None
            if shared:
                # Joining a folded unit replays its open tag path.
                joining = members if unit else members[1:]
                unit = unit or SharedPathUnit(members[0], tree, sinks[members[0]])
                for member in joining:
                    unit.join(member, trees[member], sinks[member])
            elif unit_payload["shape"]:
                if unit_payload["engine"] != "twigm" or limits is not None:
                    raise CheckpointError(
                        "multiq snapshot shape unit is not an unlimited TwigM"
                    )
                for member in members:
                    if (payloads[member]["tracked"]
                            or payloads[member]["emission"] != "default"):
                        raise CheckpointError(
                            f"multiq snapshot groups {member!r} with a shape "
                            f"machine, which runs untracked in default mode"
                        )
                unit = ShapeUnit(tree)
                for member in members:
                    unit.join(member, trees[member], sinks[member])
            else:
                tracked = first["tracked"]
                unit = EvalUnit(tree, limits, engine_name=unit_payload["engine"],
                                tracker=trackers.get(members[0]) if tracked else None,
                                emission=first["emission"])
                unit.tracked = tracked
                for member in members[1:]:
                    if compile_query(payloads[member]["query"]) != tree:
                        raise CheckpointError(
                            f"multiq snapshot groups {member!r} with a machine "
                            f"for a different query"
                        )
                    if payloads[member]["emission"] != first["emission"]:
                        raise CheckpointError(
                            f"multiq snapshot groups {member!r} with a machine "
                            f"in a different emission mode"
                        )
                for member in members:
                    unit.join(member, tree, sinks[member])
            if new_unit:
                _UNIT.apply(unit, unit_payload)
                unit.engine.restore_state(machine)
                if fold_key is not None:
                    folded[fold_key] = unit
            unit.sink.restore_state(unit_payload["sinks"])
            if not unit.engine.epoch_open:
                # Older captures keep every id ever emitted in ``seen``.
                unit.sink.end_epoch()
            for member in members:
                payload = payloads[member]
                pending[member] = (
                    Registration(
                        name=member,
                        source=payload["query"],
                        canonical=canonical_text(trees[member]),
                        tree=trees[member],
                        limits=limits,
                        unit=unit,
                        callback=payload["callback"],
                        tracked=payload["tracked"],
                        emission=payload["emission"],
                    ),
                    new_unit and member == members[0],
                )
        if set(pending) != set(payloads):
            raise CheckpointError(
                "multiq snapshot units do not cover the registered queries"
            )
        for name in payloads:
            registration, new_unit = pending[name]
            self._registry.adopt(registration, new_unit)
            if new_unit:
                self._router.add(registration.unit)

    def _restored_sink(self, name: str, callback: bool) -> ResultSink:
        if callback and self._on_match is None:
            return CallbackSink(_noop)
        return self._make_sink(name, None) if callback else CollectingSink()


def _unit_payloads(units) -> Iterable[dict]:
    """A capture's unit entries, read; a fallen DFA unit reads as one
    PathM unit per member."""
    for payload in units:
        members = payload["queries"]
        fallen = fallen_pathm_states(payload["machine"], len(members))
        if fallen is None:
            yield payload
            continue
        for member, state in zip(members, fallen):
            yield {**payload, "queries": [member], "engine": "pathm",
                   "machine": state, "sinks": {member: payload["sinks"][member]}}


def _unit_payload(unit: EvalUnit) -> dict:
    """One unit's snapshot entry (see :meth:`MultiQueryEngine.snapshot`)."""
    payload = {"queries": unit.names, "engine": unit.engine_name, **_UNIT.capture(unit),
               "machine": unit.engine.snapshot_state(), "sinks": unit.sink.snapshot_state()}
    if isinstance(unit, ShapeUnit):
        payload["shape"] = True
    return payload


class _MultiQueryHandler(EventHandler):
    """The dispatch loop of :class:`MultiQueryEngine`: routed, gated
    delivery as push callbacks.

    Per event: bump the counters, fetch the tag's
    :class:`~repro.multiq.router.TagRecord` and visit the routes of its
    view under the open-label mask (:mod:`repro.multiq.router`),
    delivering to each whose demand gate is open (``gate is None or
    gate``); then deliver to every limited unit unfiltered, through the
    unit's own counting handler so per-query ``max_total_events``
    accounting matches a dedicated stream.  A start tag is counted open
    before delivery and an end tag uncounted after it.

    ``_mask`` has one bit per gate label with an open element.  After a
    restore it is seeded from the text feed's open elements or the
    capture's open-label counts; otherwise (a warm attach, an older
    event-fed capture) it is ``-1`` (every label open) until the
    document element closes or the engine resets.

    Each delivery adds one to the unit's ``events``, just before the
    call; that is also what ends the unit's *virginity* (accepting
    sharers).  A unit gated out of
    every event so far stays virgin and may still take sharers: that is
    sound because gating it out means its stacks are empty, which is
    exactly the state of a fresh machine.
    """

    __slots__ = (
        "_engine", "_router", "_records", "_default", "_text", "_mask",
        "_limited",
    )

    def __init__(self, engine: MultiQueryEngine):
        router = engine._router
        self._engine = engine
        self._router = router
        self._records = router.records
        self._default = router.default
        self._text = router.text
        self._mask = 0
        self._limited: list = []
        router.on_change = self._rebind
        self._rebind()

    def assume_all_open(self) -> None:
        """Visit every gated route until the document element closes."""
        self._mask = -1

    def close_all(self) -> None:
        """No element is open: zero the counts and the mask."""
        self._router.close_all()
        self._mask = 0

    def open_labels(self, counts: "Mapping[str, int]") -> None:
        """Count exactly ``counts`` (tag → open elements) as open."""
        self.close_all()
        records = self._records
        mask = 0
        for tag, count in counts.items():
            record = records.get(tag)
            if record is not None and record.bit and count > 0:
                record.count = count
                mask |= record.bit
        self._mask = mask

    def label_counts(self) -> "dict[str, int] | None":
        """The open gate labels' element counts; None while every label
        counts as open."""
        if self._mask == -1:
            return None
        return {tag: record.count for tag, record in self._records.items()
                if record.count}

    def _unfiltered(self, kind: str, *args) -> None:
        """Deliver an event to every limited unit, unfiltered."""
        for unit, handler in self._limited:
            unit.events += 1
            getattr(handler, kind)(*args)
        self._engine._unrouted += len(self._limited)

    def _rebind(self) -> None:
        """Rebuild the ``(unit, handler)`` pairs of the unfiltered path;
        the router calls this on every membership change."""
        self._limited = [
            (unit, unit.engine.as_handler()) for unit in self._router.limited_units()
        ]

    def start_element(self, tag, level, node_id, attributes) -> None:
        engine = self._engine
        engine._events += 1
        record = self._records.get(tag, self._default)
        bit = record.bit
        if bit:
            count = record.count
            if not count:
                self._mask |= bit
            record.count = count + 1
        mask = self._mask
        routes = record.views.get(mask & record.relevant)
        if routes is None:
            routes = self._router.view(record, mask)
        for gate, _end, unit in routes:
            if gate is None or gate:
                unit.events += 1
                unit.engine.start_element(tag, level, node_id, attributes)
            else:
                engine._closed_gates += 1
        if self._limited:
            self._unfiltered("start_element", tag, level, node_id, attributes)
        engine._visited += len(routes)

    def characters(self, text, level) -> None:
        engine = self._engine
        engine._events += 1
        record = self._text
        mask = self._mask
        routes = record.views.get(mask & record.relevant)
        if routes is None:
            routes = self._router.view(record, mask)
        for gate, _end, unit in routes:
            if gate is None or gate:
                unit.events += 1
                unit.engine.characters(text, level)
            else:
                engine._closed_gates += 1
        if self._limited:
            self._unfiltered("characters", text, level)
        engine._visited += len(routes)

    def end_element(self, tag, level) -> None:
        engine = self._engine
        engine._events += 1
        record = self._records.get(tag, self._default)
        mask = self._mask
        routes = record.views.get(mask & record.relevant)
        if routes is None:
            routes = self._router.view(record, mask)
        for _start, gate, unit in routes:
            if gate is None or gate:
                unit.events += 1
                unit.engine.end_element(tag, level)
            else:
                engine._closed_gates += 1
        if self._limited:
            self._unfiltered("end_element", tag, level)
        engine._visited += len(routes)
        count = record.count
        if count:
            record.count = count - 1
            if count == 1 and self._mask != -1:
                self._mask &= ~record.bit
        if level == 1:
            self.close_all()
