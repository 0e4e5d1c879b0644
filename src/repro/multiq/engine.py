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
  root) is not called at all;
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

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.core.textfeed import TextFeed
from repro.errors import CheckpointError
from repro.multiq.canon import canonical_text
from repro.multiq.registry import EvalUnit, QueryRegistry, Registration, SharedPathUnit
from repro.multiq.router import AlphabetRouter
from repro.stream.events import EndElement, Event, EventHandler, StartElement
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.xpath.querytree import QueryTree

#: Version of the dispatcher snapshot schema.
MULTIQ_SNAPSHOT_VERSION = 1


@dataclass(frozen=True, slots=True)
class DispatchStats:
    """Routing effectiveness counters for one engine.

    ``machine_events_broadcast`` is the counterfactual cost of the
    broadcast dispatcher (every event × every registered query);
    ``machine_events_dispatched`` is what the router actually delivered
    after tag routing and demand gating (machine calls made).
    """

    events: int
    queries: int
    units: int
    machine_events_dispatched: int
    machine_events_broadcast: int

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
        every unit runs an observed machine (populating the
        ``repro_machine_*`` families), the shared tokenizer publishes
        ``repro_tokenizer_*``, and the engine registers a collector for
        the ``repro_multiq_*`` families: total/dispatched/broadcast
        event counts, query and unit gauges, the router hit ratio, and
        per-query emitted counts (labelled ``query="name"``).
    compiled:
        Put predicate-free path queries into one shared lazy DFA
        (:class:`~repro.multiq.registry.SharedPathUnit`: a single
        :class:`~repro.compile.dfa.DfaPathM` with every such query as a
        member, so a start tag costs one transition lookup however many
        path queries are registered; it rides the router's wants-all
        path because the DFA's depth tracking needs every element
        event).  Queries with per-query limits, a tracker or a lag probe
        keep per-query units, and every other unit is built exactly as
        with ``compiled=False``.  Results are bit-for-bit identical to
        the interpreted engines.  When every registered unit is
        turbo-safe, text feeds (:meth:`feed_text` / :meth:`evaluate`)
        additionally engage the query-aware turbo scanner
        (:mod:`repro.compile.scan`); eligibility is re-checked per
        chunk, keyed on the router's version counter.
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
        compiled: bool = False,
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics)
        self._registry = QueryRegistry()
        self._router = AlphabetRouter()
        self._on_match = on_match
        self._compiled = bool(compiled)
        self._handler: "_MultiQueryHandler | None" = None
        self._events = 0
        self._dispatched = 0
        # Broadcast deliveries are events × registrations, settled into
        # ``_broadcast`` whenever the registration set changes.
        self._broadcast = 0
        self._settled_events = 0
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

    def interest(self) -> tuple[frozenset[str], bool, bool]:
        """Union alphabet of every registered query, router-shaped.

        Returns ``(tags, wants_all, wants_text)`` folded over all units,
        exactly the analysis :func:`~repro.multiq.router.machine_alphabet`
        computes per machine.  Units with per-query
        :class:`~repro.stream.recovery.ResourceLimits` force
        ``wants_all`` (their accounting needs every event), mirroring
        the router's unfiltered path.  The durable log's replay uses
        this to decide which segments provably cannot matter
        (:mod:`repro.store.index`).
        """
        tags: set[str] = set()
        wants_all = False
        wants_text = False
        for unit in self._registry.units():
            tags |= unit.interest
            wants_all = wants_all or unit.wants_all or not unit.routable
            wants_text = wants_text or unit.wants_text
        return frozenset(tags), wants_all, wants_text

    def dispatch_stats(self) -> DispatchStats:
        """Routing counters accumulated since construction (or reset)."""
        return DispatchStats(
            events=self._events,
            queries=len(self._registry),
            units=self._registry.unit_count(),
            machine_events_dispatched=self._dispatched,
            machine_events_broadcast=self._broadcast_total(),
        )

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
        """Distinct solutions emitted so far, per query (any sink kind)."""
        counts: dict[str, int] = {}
        for registration in self._registry.registrations():
            sink = registration.unit.sink.sinks[registration.name]
            seen = getattr(sink, "_seen", None)
            counts[registration.name] = len(seen) if seen is not None else 0
        return counts

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
        metrics.add_collector(self._sync_metrics)

    def _sync_metrics(self) -> None:
        """Publish the authoritative dispatcher counters into the registry.

        The counters live on the engine (and ride through snapshots), so
        absolute ``set`` here makes the registry report cumulative truth
        even on a checkpoint-resumed dispatcher.
        """
        broadcast = self._broadcast_total()
        self._m_events.set(self._events)
        self._m_dispatched.set(self._dispatched)
        self._m_broadcast.set(broadcast)
        self._m_queries.set(len(self._registry))
        self._m_units.set(self._registry.unit_count())
        self._m_hit_ratio.set(self._dispatched / broadcast if broadcast else 0.0)
        for name, count in self.emitted_counts().items():
            self._m_emitted.set(count, query=name)

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
        registration, created = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            metrics=self._metrics,
            tracker=tracker,
            compiled=self._compiled,
            emission=emission,
            lag_probe=lag_probe,
        )
        if created is not None:
            self._router.add(created)
        else:
            # Joined an existing unit: no new route, but the handler's
            # per-version caches (turbo safety) depend on registrations.
            self._router.invalidate()
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
        registration, created = self._registry.add(
            name,
            query,
            sink,
            limits=limits,
            callback=self._is_callback(on_match),
            share=False,
            metrics=self._metrics,
            compiled=self._compiled,
        )
        unit = created if created is not None else registration.unit
        try:
            unit.engine.restore_state(machine_state)
            unit.sink.restore_state(sink_state)
        except (KeyError, TypeError, ValueError) as exc:
            self._registry.remove(name)
            raise CheckpointError(
                f"cannot attach warm state for query {name!r}: {exc}"
            ) from exc
        unit.virgin = False
        self._router.add(unit)
        return registration

    def remove_query(self, name: str) -> Registration:
        """Withdraw a standing query; its machine is dropped with the
        last sharer.  Collected results for ``name`` are discarded."""
        self._settle_broadcast()
        registration, unit_dropped = self._registry.remove(name)
        if unit_dropped:
            self._router.remove(registration.unit)
        else:
            self._router.invalidate()  # as in add_query
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
        """
        for unit in self._registry.units():
            unit.engine.reset()
            for sink in unit.sink.sinks.values():
                sink.reset()
            unit.virgin = True
        self._tokenizer = None
        self._events = self._dispatched = self._broadcast = 0
        self._settled_events = 0

    # -- checkpoint / resume --------------------------------------------

    def snapshot(self) -> dict:
        """Capture the whole dispatcher as a versioned, serializable dict.

        The capture spans every unit's machine stacks and multiplexed
        sink state, the query registrations (grouping included, so dedup
        survives restore exactly), the mid-parse tokenizer, and the
        dispatch counters.
        """
        return {
            "version": MULTIQ_SNAPSHOT_VERSION,
            "compiled": self._compiled,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "queries": [
                {
                    "name": registration.name,
                    "query": registration.source,
                    "limits": (
                        registration.limits.to_dict()
                        if registration.limits is not None
                        else None
                    ),
                    "callback": registration.callback,
                    "tracked": registration.tracked,
                    "emission": registration.emission,
                }
                for registration in self._registry.registrations()
            ],
            "units": [
                {
                    "queries": unit.names,
                    "engine": unit.engine_name,
                    "virgin": unit.virgin,
                    "machine": unit.engine.snapshot_state(),
                    "sinks": unit.sink.snapshot_state(),
                }
                for unit in self._registry.units()
            ],
            "tokenizer": self._tokenizer_snapshot(),
            "stats": {
                "events": self._events,
                "dispatched": self._dispatched,
                "broadcast": self._broadcast_total(),
            },
        }

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
        checkpoint are remembered and will not fire again); without it,
        callback-mode queries restore onto a silent sink so their
        de-duplication state is still preserved.  The same applies to
        candidate trackers: ``trackers`` (query name →
        :class:`~repro.core.twigm.CandidateTracker`) re-attaches them to
        tracked queries — the tracker's *own* counts are the owner's to
        restore.  Passing ``metrics`` resumes with instrumentation;
        snapshot-carried counters make the registry report the same
        totals as an uninterrupted run.
        """
        version = snapshot.get("version")
        if version != MULTIQ_SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported multiq snapshot version {version!r} "
                f"(expected {MULTIQ_SNAPSHOT_VERSION})"
            )
        try:
            engine = cls(
                on_match=on_match,
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot.get("limits")),
                metrics=metrics,
                compiled=bool(snapshot.get("compiled", False)),
            )
            engine._restore_queries(snapshot, trackers or {})
            stats = snapshot.get("stats", {})
            engine._events = engine._settled_events = stats.get("events", 0)
            engine._dispatched = stats.get("dispatched", 0)
            engine._broadcast = stats.get("broadcast", 0)
            engine._restore_tokenizer(snapshot.get("tokenizer"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed multiq snapshot: {exc}") from exc
        return engine

    def _restore_queries(self, snapshot: dict, trackers: Mapping) -> None:
        """Rebuild units and registrations, preserving grouping and order.

        Under ``compiled`` an unlimited ``dfa`` unit restores as a
        :class:`~repro.multiq.registry.SharedPathUnit`.  Captures from
        the release that ran one DFA unit per path query have no member
        lists; their units still on the DFA at one open tag path fold
        into one shared unit, and fallen ones keep their PathMs.
        """
        from repro.multiq.canon import canonicalize
        from repro.xpath.querytree import compile_query

        payloads = {payload["name"]: payload for payload in snapshot["queries"]}
        pending: dict[str, tuple[Registration, bool]] = {}
        # Legacy DFA units folded together, keyed by their open tag path.
        folded: dict[tuple[str, ...], SharedPathUnit] = {}
        for unit_payload in snapshot["units"]:
            members = unit_payload["queries"]
            if not members:
                raise CheckpointError("multiq snapshot unit with no queries")
            first = payloads[members[0]]
            limits = ResourceLimits.from_dict(first.get("limits"))
            trees = {member: canonicalize(payloads[member]["query"]) for member in members}
            sinks = {
                member: self._restored_sink(member, bool(payloads[member]["callback"]))
                for member in members
            }
            tree = trees[members[0]]
            machine = unit_payload["machine"]
            shared = (self._compiled and unit_payload["engine"] == "dfa"
                      and limits is None)
            fold_key = None
            if shared and "members" not in machine and not machine.get("fallen"):
                fold_key = tuple(machine["dfa"]["tags"])
            unit = folded.get(fold_key)
            new_unit = unit is None
            if unit is not None:
                # Joining replays the open tag path for the new members.
                for member in members:
                    unit.join(member, trees[member], sinks[member])
            elif shared:
                unit = SharedPathUnit(members[0], tree, sinks[members[0]],
                                      metrics=self._metrics)
                for member in members[1:]:
                    unit.join(member, trees[member], sinks[member])
            else:
                tracked = bool(first.get("tracked", False))
                unit = EvalUnit(tree, limits, engine_name=unit_payload["engine"],
                                metrics=self._metrics,
                                tracker=trackers.get(members[0]) if tracked else None,
                                compiled=self._compiled,
                                emission=first.get("emission", "default"))
                unit.tracked = tracked
                for member in members:
                    if member != members[0] and compile_query(
                        payloads[member]["query"]
                    ) != tree:
                        raise CheckpointError(
                            f"multiq snapshot groups {member!r} with a machine "
                            f"for a different query"
                        )
                    unit.join(member, tree, sinks[member])
            if new_unit:
                unit.virgin = bool(unit_payload.get("virgin", False))
                unit.engine.restore_state(machine)
                if fold_key is not None:
                    folded[fold_key] = unit
            unit.sink.restore_state(unit_payload["sinks"])
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
                        callback=bool(payload["callback"]),
                        tracked=bool(payload.get("tracked", False)),
                        emission=payload.get("emission", "default"),
                    ),
                    new_unit and member == members[0],
                )
        if set(pending) != set(payloads):
            raise CheckpointError(
                "multiq snapshot units do not cover the registered queries"
            )
        for payload in snapshot["queries"]:
            registration, new_unit = pending[payload["name"]]
            self._registry.adopt(registration, new_unit)
            if new_unit:
                self._router.add(registration.unit)

    def _restored_sink(self, name: str, callback: bool) -> ResultSink:
        if not callback:
            return CollectingSink()
        if self._on_match is None:
            return CallbackSink(_noop)
        on_match = self._on_match

        def forward(node_id: int, _name: str = name) -> None:
            on_match(_name, node_id)

        return CallbackSink(forward)


class _MultiQueryHandler(EventHandler):
    """The dispatch loop of :class:`MultiQueryEngine`: routed, gated
    delivery as push callbacks.

    Per event: bump the counters, deliver to each routed unit whose
    demand gate is open (``gate is None or gate`` — see
    :mod:`repro.multiq.router`), then to every limited unit unfiltered,
    through the unit's own counting handler so per-query
    ``max_total_events`` accounting matches a dedicated stream.

    A unit stops being *virgin* (accepting sharers) when an event is
    actually delivered to it, just before the call.  A unit gated out of
    every event so far stays virgin and may still take sharers: that is
    sound because gating it out means its stacks are empty, which is
    exactly the state of a fresh machine.
    """

    __slots__ = (
        "_engine", "_limited", "_limited_version",
        "_turbo_safe", "_turbo_version",
    )

    def __init__(self, engine: MultiQueryEngine):
        self._engine = engine
        self._limited: list = []
        self._limited_version = -1
        self._turbo_safe = False
        self._turbo_version = -1

    def _limited_handlers(self) -> list:
        """``(unit, handler)`` pairs for the unfiltered path, rebuilt on
        registration changes (keyed on the router's version counter)."""
        router = self._engine._router
        if self._limited_version != router.version:
            self._limited = [
                (unit, unit.engine.as_handler()) for unit in router.limited_units()
            ]
            self._limited_version = router.version
        return self._limited

    @property
    def turbo_scan_safe(self) -> bool:
        """True when every registered unit tolerates the turbo scanner.

        The turbo loop (:mod:`repro.compile.scan`) elides attribute
        dicts and character-data delivery, so it is only sound when
        every unit's engine declares ``turbo_scan_safe`` (path machines
        that ignore both), no unit carries per-query limits (their
        accounting counts text events), and no registration delivers
        through a callback — user callbacks can register new,
        non-path queries *mid-chunk*, which the in-flight scan could
        not serve.  Cached per router version, like the limited-handler
        list: live add/remove re-evaluates at the next chunk boundary.
        """
        engine = self._engine
        router = engine._router
        if self._turbo_version != router.version:
            self._turbo_safe = (
                not router.limited_units()
                and all(
                    getattr(type(unit.engine), "turbo_scan_safe", False)
                    for unit in engine._registry.units()
                )
                and not any(
                    registration.callback
                    for registration in engine._registry.registrations()
                )
            )
            self._turbo_version = router.version
        return self._turbo_safe

    def start_element(self, tag, level, node_id, attributes) -> None:
        engine = self._engine
        engine._events += 1
        router = engine._router
        delivered = 0
        for gate, _end, unit in router.routes_for_tag(tag):
            if gate is None or gate:
                unit.virgin = False
                unit.engine.start_element(tag, level, node_id, attributes)
                delivered += 1
        if router.limited_units():
            for unit, handler in self._limited_handlers():
                unit.virgin = False
                handler.start_element(tag, level, node_id, attributes)
                delivered += 1
        engine._dispatched += delivered

    def characters(self, text, level) -> None:
        engine = self._engine
        engine._events += 1
        router = engine._router
        delivered = 0
        for gate, _end, unit in router.text_routes():
            if gate is None or gate:
                unit.virgin = False
                unit.engine.characters(text, level)
                delivered += 1
        if router.limited_units():
            for unit, handler in self._limited_handlers():
                unit.virgin = False
                handler.characters(text, level)
                delivered += 1
        engine._dispatched += delivered

    def end_element(self, tag, level) -> None:
        engine = self._engine
        engine._events += 1
        router = engine._router
        delivered = 0
        for _start, gate, unit in router.routes_for_tag(tag):
            if gate is None or gate:
                unit.virgin = False
                unit.engine.end_element(tag, level)
                delivered += 1
        if router.limited_units():
            for unit, handler in self._limited_handlers():
                unit.virgin = False
                handler.end_element(tag, level)
                delivered += 1
        engine._dispatched += delivered
