"""Query registry and lifecycle (layer 3): registrations, shared units.

A *registration* is one named standing query; an *evaluation unit* is
one machine instance (PathM/BranchM/TwigM, chosen per fragment as
always — or their :mod:`repro.compile` tiers when the owning engine runs
``compiled``) plus the multiplexing sink that fans its confirmed
solutions out to every registration sharing it.  The registry owns the
mapping between the two:

* ``add`` compiles and canonicalizes the query, then either joins an
  existing unit with the same :func:`~repro.multiq.canon.dedup_key`
  (structure + limits) or creates a fresh one;
* sharing is only offered while a unit has seen no events — a query
  added mid-stream gets a dedicated machine, because joining a warm
  machine would leak stream history the new query never observed;
* ``remove`` detaches a registration and drops its unit once the last
  sharer leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import ResultSink
from repro.multiq.canon import DedupKey, canonical_text, canonicalize, dedup_key
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree


class MultiplexSink(ResultSink):
    """Fan one machine's confirmed ids out to every sharing query's sink.

    Sub-sinks are keyed by query name and kept in registration order, so
    emission order across sharers is deterministic.  Each sub-sink keeps
    its own de-duplication state — exactly what the query would have had
    with a dedicated machine.
    """

    def __init__(self) -> None:
        self.sinks: dict[str, ResultSink] = {}

    def emit(self, node_id: int) -> None:
        for sink in self.sinks.values():
            sink.emit(node_id)

    def add(self, name: str, sink: ResultSink) -> None:
        self.sinks[name] = sink

    def remove(self, name: str) -> ResultSink:
        return self.sinks.pop(name)

    def snapshot_state(self) -> dict:
        return {name: sink.snapshot_state() for name, sink in self.sinks.items()}

    def restore_state(self, state: dict) -> None:
        for name, sink_state in state.items():
            self.sinks[name].restore_state(sink_state)


class EvalUnit:
    """One shared machine evaluating one canonical query.

    Carries the router-facing interest analysis
    (:func:`~repro.multiq.router.machine_alphabet`) as plain attributes
    so the dispatch hot loop touches no indirection.
    """

    __slots__ = (
        "tree", "limits", "sink", "engine", "emission",
        "interest", "wants_all", "wants_text", "routable", "virgin", "tracked",
    )

    def __init__(
        self,
        tree: QueryTree,
        limits: ResourceLimits | None = None,
        engine_name: str | None = None,
        metrics=None,
        tracker=None,
        compiled: bool = False,
        emission: str = "default",
        lag_probe=None,
    ):
        from repro.core.processor import build_engine
        from repro.multiq.router import machine_alphabet

        self.tree = tree
        self.limits = limits
        self.emission = emission
        self.sink = MultiplexSink()
        if tracker is not None:
            # Candidate-lifetime tracking is a TwigM capability; fragment
            # consumers (repro.transform) force the full machine.
            engine_name = "twigm"
        self.engine = build_engine(
            tree, self.sink, engine=engine_name, compiled=compiled,
            limits=limits, metrics=metrics, emission=emission,
            lag_probe=lag_probe, tracker=tracker,
        )
        self.interest, self.wants_all, self.wants_text = machine_alphabet(
            self.engine.machine
        )
        if self.engine.machine_name == "dfa":
            # The DFA tracks depth implicitly (one pushed state per open
            # element), which is only sound when it sees every element
            # event; filtered delivery would desynchronise it and force
            # the interpreted fallback on the first skipped tag.
            self.wants_all = True
        # Limited machines count every event and probe every depth; they
        # must stay on the dispatcher's unfiltered path (see router.py).
        self.routable = limits is None
        #: Tracked units never accept sharers, even while virgin: the
        #: tracker observes one consumer's candidate lifetimes.
        self.tracked = tracker is not None
        #: True until the unit processes its first event; only virgin
        #: units accept additional sharers (cold state ≡ fresh machine).
        self.virgin = True

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this unit: pathm, branchm or twigm.

        Instrumented subclasses report their base engine's name, so
        snapshots restore onto either variant.
        """
        return getattr(type(self.engine), "machine_name",
                       type(self.engine).__name__.lower())

    @property
    def names(self) -> list[str]:
        """Names of the registrations multiplexed onto this unit."""
        return list(self.sink.sinks)


@dataclass(slots=True)
class Registration:
    """One named standing query and the unit evaluating it."""

    name: str
    source: str
    canonical: str
    tree: QueryTree
    limits: ResourceLimits | None
    unit: EvalUnit
    #: True when results are delivered through a callback (not collected);
    #: recorded so snapshots know how to rebuild the sink.
    callback: bool
    #: True when the unit's machine runs with a candidate tracker
    #: (fragment capture); recorded so restore can re-attach one.
    tracked: bool = False
    #: The unit's emission mode ("default"/"earliest"); part of the
    #: sharing key — mixed-mode queries never share a machine.
    emission: str = "default"


class QueryRegistry:
    """Named registrations multiplexed onto deduplicated machine units."""

    def __init__(self) -> None:
        self._registrations: dict[str, Registration] = {}
        # Keyed by (structural dedup key, emission mode).
        self._units: dict[tuple[DedupKey, str], list[EvalUnit]] = {}

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._registrations)

    def __contains__(self, name: str) -> bool:
        return name in self._registrations

    @property
    def names(self) -> list[str]:
        return list(self._registrations)

    def get(self, name: str) -> Registration:
        try:
            return self._registrations[name]
        except KeyError:
            raise KeyError(f"no standing query named {name!r}") from None

    def registrations(self) -> list[Registration]:
        return list(self._registrations.values())

    def units(self) -> list[EvalUnit]:
        """Every live unit, in first-registration order (deduplicated)."""
        seen: set[int] = set()
        ordered: list[EvalUnit] = []
        for registration in self._registrations.values():
            unit = registration.unit
            if id(unit) not in seen:
                seen.add(id(unit))
                ordered.append(unit)
        return ordered

    def unit_count(self) -> int:
        return len(self.units())

    def engine_names(self) -> dict[str, str]:
        """Which machine evaluates each query (pathm/branchm/twigm)."""
        return {
            name: registration.unit.engine_name
            for name, registration in self._registrations.items()
        }

    # -- lifecycle ------------------------------------------------------

    def add(
        self,
        name: str,
        query: "str | QueryTree",
        sink: ResultSink,
        *,
        limits: ResourceLimits | None = None,
        callback: bool = False,
        share: bool = True,
        metrics=None,
        tracker=None,
        compiled: bool = False,
        emission: str = "default",
        lag_probe=None,
    ) -> tuple[Registration, EvalUnit | None]:
        """Register ``name`` → ``query``; returns ``(registration, new_unit)``.

        ``new_unit`` is ``None`` when the query joined an existing unit
        (the caller only needs to route units it has not seen).
        ``share=False`` forces a dedicated unit regardless of dedup.
        ``tracker`` attaches a :class:`~repro.core.twigm.CandidateTracker`
        to the unit's machine (forcing TwigM and a dedicated unit — a
        tracker observes exactly one consumer's candidate lifetimes).
        ``compiled`` selects the :mod:`repro.compile` engine tiers for
        any unit this call creates (joined units already have theirs).
        """
        if name in self._registrations:
            raise ValueError(f"duplicate query name {name!r}")
        if tracker is not None or lag_probe is not None:
            share = False
        tree = canonicalize(query)
        source = tree.source if isinstance(query, QueryTree) else query
        # Emission mode joins the sharing key: a default-mode sharer must
        # not receive a mixed-in earliest unit's early emissions.
        key = (dedup_key(tree, limits), emission)
        unit: EvalUnit | None = None
        created: EvalUnit | None = None
        if share:
            for candidate in self._units.get(key, ()):
                if candidate.virgin and not candidate.tracked:
                    unit = candidate
                    break
        if unit is None:
            unit = created = EvalUnit(tree, limits, metrics=metrics,
                                      tracker=tracker, compiled=compiled,
                                      emission=emission, lag_probe=lag_probe)
            self._units.setdefault(key, []).append(unit)
        unit.sink.add(name, sink)
        registration = Registration(
            name=name,
            source=source,
            canonical=canonical_text(tree),
            tree=tree,
            limits=limits,
            unit=unit,
            callback=callback,
            tracked=tracker is not None,
            emission=emission,
        )
        self._registrations[name] = registration
        return registration, created

    def adopt(self, registration: Registration, new_unit: bool) -> None:
        """Install a pre-built registration (snapshot restore path)."""
        if registration.name in self._registrations:
            raise ValueError(f"duplicate query name {registration.name!r}")
        if new_unit:
            key = (dedup_key(registration.tree, registration.limits),
                   registration.emission)
            self._units.setdefault(key, []).append(registration.unit)
        self._registrations[registration.name] = registration

    def remove(self, name: str) -> tuple[Registration, bool]:
        """Drop ``name``; returns ``(registration, unit_dropped)``."""
        registration = self.get(name)
        del self._registrations[name]
        unit = registration.unit
        unit.sink.remove(name)
        if not unit.sink.sinks:
            key = (dedup_key(registration.tree, registration.limits),
                   registration.emission)
            peers = self._units.get(key, [])
            peers[:] = [peer for peer in peers if peer is not unit]
            if not peers and key in self._units:
                del self._units[key]
            return registration, True
        return registration, False
