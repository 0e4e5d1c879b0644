"""Query registry and lifecycle (layer 3): registrations, shared units.

A *registration* is one named standing query; an *evaluation unit* is
one machine instance (chosen per fragment, or the shared lazy DFA
below) plus the multiplexing sink that fans its confirmed solutions out
to every registration sharing it.  The registry owns the mapping
between the two:

* ``add`` compiles and canonicalizes the query, then either joins an
  existing unit with the same :func:`~repro.multiq.canon.dedup_key`
  (structure + limits) or creates a fresh one;
* sharing is only offered while no event has been delivered to a unit
  — a query added mid-stream gets a dedicated machine, because joining
  a warm machine would leak stream history the new query never
  observed (a unit the router's demand gates kept every event from has
  empty stacks, a fresh machine's state, so it stays shareable);
* ``remove`` detaches a registration and drops its unit once the last
  sharer leaves.

Every predicate-free registration without limits or tracker is a
member of one :class:`SharedPathUnit` (one lazy DFA over all their
trunks, routed on the union of their alphabets).  Members join only
while it is virgin, for the same reason; a path query added later opens
a fresh one.

TwigM registrations that are equal once the constant of their one value
test is left out (:func:`~repro.multiq.canon.shape_key`) are members of
one :class:`ValueShapeUnit` (one
:class:`~repro.core.valueshape.ValueShapeTwigM` evaluating every
constant with one lookup), when the machine's scope rule admits the
shape (:func:`~repro.core.valueshape.shape_scope`) and the query runs in
default emission mode without limits, tracker or lag probe.
Members join while the unit is virgin and leave at any time, like the
shared path unit's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.machine import engine_figures
from repro.core.processor import build_engine, select_engine_class
from repro.core.results import ResultSink
from repro.core.twigm import TwigM
from repro.core.valueshape import ValueShapeTwigM
from repro.errors import UnsupportedQueryError
from repro.multiq.canon import (
    DedupKey,
    canonical_text,
    canonicalize,
    dedup_key,
    shape_key,
)
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree


class MultiplexSink(ResultSink):
    """Fan one machine's confirmed ids out to every sharing query's sink.

    Sub-sinks are keyed by query name and kept in registration order, so
    emission order across sharers is deterministic.  Released sets and
    epoch ends are forwarded too, so each sub-sink keeps its own
    de-duplication state — exactly what the query would have had with a
    dedicated machine.
    """

    def __init__(self) -> None:
        self.sinks: dict[str, ResultSink] = {}

    def emit(self, node_id: int) -> None:
        for sink in self.sinks.values():
            sink.emit(node_id)

    def emit_all(self, node_ids) -> None:
        for sink in self.sinks.values():
            sink.emit_all(node_ids)

    def end_epoch(self) -> None:
        for sink in self.sinks.values():
            sink.end_epoch()

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
    so the dispatch hot loop touches no indirection, and counts the
    events the dispatcher delivers to it (:attr:`events`).
    """

    #: True when the machine evaluates its registrations as members
    #: (``add_member``/``remove_member``) rather than multiplexing one
    #: query's solutions.
    members = False

    __slots__ = (
        "tree", "limits", "sink", "engine", "emission",
        "interest", "wants_all", "wants_text", "routable", "tracked",
        "events", "_virgin_at",
    )

    def __init__(
        self,
        tree: QueryTree,
        limits: ResourceLimits | None = None,
        engine_name: str | None = None,
        tracker=None,
        emission: str = "default",
        lag_probe=None,
        engine_sink: ResultSink | None = None,
    ):
        from repro.multiq.router import machine_alphabet

        self.tree = tree
        self.limits = limits
        self.emission = emission
        self.sink = MultiplexSink()
        if tracker is not None:
            # Candidate-lifetime tracking is a TwigM capability; fragment
            # consumers (repro.transform) force the full machine.
            engine_name = "twigm"
        self.engine = self._build_engine(
            tree, self.sink if engine_sink is None else engine_sink,
            engine=engine_name, limits=limits, emission=emission,
            lag_probe=lag_probe, tracker=tracker,
        )
        self.interest, self.wants_all, self.wants_text = machine_alphabet(
            self.engine.machine
        )
        # Limited machines count every event and probe every depth; they
        # must stay on the dispatcher's unfiltered path (see router.py).
        self.routable = limits is None
        #: Tracked units never accept sharers, even while virgin: the
        #: tracker observes one consumer's candidate lifetimes.
        self.tracked = tracker is not None
        #: Events the dispatcher delivered to the unit, ever (events the
        #: router gates away do not count).
        self.events = 0
        #: :attr:`events` when the unit last became virgin; -1 once it
        #: was made non-virgin without a delivery.
        self._virgin_at = 0

    @property
    def virgin(self) -> bool:
        """True until an event is delivered after the unit was made
        virgin (at construction or a reset).  Only virgin units accept
        additional sharers (cold state ≡ fresh machine)."""
        return self.events == self._virgin_at

    @virgin.setter
    def virgin(self, value: bool) -> None:
        self._virgin_at = self.events if value else -1

    @staticmethod
    def _build_engine(tree: QueryTree, sink: ResultSink, **options):
        return build_engine(tree, sink, **options)

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this unit: pathm, branchm, twigm or dfa."""
        return self.engine.machine_name

    def figures(self) -> dict[str, int]:
        """The unit's metric figures: deliveries, the distinct ids its
        sinks received, and the counters its machine keeps
        (:func:`~repro.core.machine.engine_figures`)."""
        figures = engine_figures(self.engine)
        figures["events"] = self.events
        figures["emitted"] = sum(sink.emitted for sink in self.sink.sinks.values())
        return figures

    @property
    def names(self) -> list[str]:
        """Names of the registrations multiplexed onto this unit."""
        return list(self.sink.sinks)

    def join(self, name: str, tree: QueryTree, sink: ResultSink) -> frozenset[str]:
        """Attach a registration whose query this unit evaluates; returns
        the tags its interest gained (none, for a plain sharer)."""
        self.sink.add(name, sink)
        return frozenset()

    def leave(self, name: str) -> bool:
        """Detach ``name``; True when it was the last registration."""
        sink = self.sink.remove(name)
        if self.sink.sinks and self.members:
            self.engine.remove_member(sink)
        return not self.sink.sinks


class SharedPathUnit(EvalUnit):
    """Many predicate-free queries as the members of one lazy DFA.

    Each registration is a :class:`~repro.compile.dfa.DfaPathM` member
    emitting straight into its own sink; :attr:`sink` only indexes those
    sinks by name (results, snapshots).  The unit is routed on the union
    of its members' alphabets (the DFA steps over the elements it is not
    shown), and sees every element only once a member has a
    materialised ``'*'`` node.  Its interest never shrinks: a departed
    member's tags are stepped like any other tag no member names.
    """

    __slots__ = ()
    members = True

    def __init__(self, name: str, tree: QueryTree, sink: ResultSink):
        super().__init__(tree, engine_name="dfa", engine_sink=sink)
        self.sink.add(name, sink)

    def join(self, name: str, tree: QueryTree, sink: ResultSink) -> frozenset[str]:
        from repro.multiq.router import machine_alphabet

        self.sink.add(name, sink)
        tags, wants_all, _text = machine_alphabet(self.engine.add_member(tree, sink))
        gained = tags - self.interest
        self.interest |= gained
        self.wants_all = self.wants_all or wants_all
        return gained


class ValueShapeUnit(EvalUnit):
    """Queries equal up to one value-test constant, as members of one
    :class:`~repro.core.valueshape.ValueShapeTwigM`.

    ``key`` is the members' :func:`~repro.multiq.canon.shape_key`; each
    member's machine slot is its position in :attr:`names` (registration
    order, closed up when a member leaves).  Raises
    :class:`~repro.errors.UnsupportedQueryError` for a shape outside the
    machine's scope.
    """

    __slots__ = ("key",)
    members = True

    def __init__(self, tree: QueryTree):
        found = shape_key(tree)
        if found is None:
            raise UnsupportedQueryError("the query has no single value test")
        self.key = found[0]
        super().__init__(tree)

    @staticmethod
    def _build_engine(tree: QueryTree, sink: ResultSink, **_options):
        return ValueShapeTwigM(tree, sink)

    def members(self) -> "list[tuple[str, str | float]]":
        """``(name, constant)`` per member, in slot order."""
        return list(zip(self.sink.sinks, self.engine.constants))

    def join(self, name: str, tree: QueryTree, sink: ResultSink) -> frozenset[str]:
        found = shape_key(tree)
        if found is None or found[0] != self.key:
            raise ValueError(f"query {name!r} does not have this unit's shape")
        self.engine.add_member(found[1], sink)
        self.sink.add(name, sink)
        return frozenset()


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
    #: (fragment extraction); recorded so restore can re-attach one.
    tracked: bool = False
    #: The query's emission mode ("default"/"earliest"); part of the
    #: sharing key — mixed-mode queries never share a per-query machine
    #: (the shared path unit emits at start tags in either mode).
    emission: str = "default"


class QueryRegistry:
    """Named registrations multiplexed onto deduplicated machine units."""

    def __init__(self) -> None:
        self._registrations: dict[str, Registration] = {}
        # Keyed by (structural dedup key, emission mode).
        self._units: dict[tuple[DedupKey, str], list[EvalUnit]] = {}
        #: The shared path unit new path queries join while it is virgin.
        self._shared: SharedPathUnit | None = None
        #: Value-shape units by shape key, in creation order.
        self._shapes: dict[DedupKey, list[ValueShapeUnit]] = {}

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
        tracker=None,
        emission: str = "default",
        lag_probe=None,
    ) -> tuple[Registration, EvalUnit | None, frozenset[str]]:
        """Register ``name`` → ``query``; returns ``(registration,
        new_unit, gained)``.

        ``new_unit`` is ``None`` when the query joined an existing unit
        (the caller only routes units it has not seen); ``gained`` holds
        the tags a joined unit's interest grew by (the caller routes the
        unit on them too).  ``share=False`` forces a dedicated unit.
        ``tracker`` attaches a :class:`~repro.core.twigm.CandidateTracker`
        to the unit's machine (forcing TwigM and a dedicated unit — a
        tracker observes exactly one consumer's candidate lifetimes).  An
        unlimited, untracked path query joins (or opens) the virgin
        :class:`SharedPathUnit`, in any emission mode (path engines emit
        at the start tag either way, and report nothing to a lag probe);
        a limited one runs a one-member lazy DFA of its own.  A shareable
        default-mode TwigM query with one value test and no limits joins
        the virgin :class:`ValueShapeUnit` of its shape, when the shape
        is in scope.
        """
        if name in self._registrations:
            raise ValueError(f"duplicate query name {name!r}")
        if tracker is not None or lag_probe is not None:
            share = False
        tree = canonicalize(query)
        source = tree.source if isinstance(query, QueryTree) else query
        unit: EvalUnit | None = None
        created: EvalUnit | None = None
        gained: frozenset[str] = frozenset()
        if limits is None and tracker is None and not tree.has_branches():
            if share and self._shared is not None and self._shared.virgin:
                unit = self._shared
                gained = unit.join(name, tree, sink)
            else:
                unit = created = SharedPathUnit(name, tree, sink)
                if share:
                    self._shared = created
        elif (share and emission == "default" and limits is None
              and (unit := self._shape_unit(tree)) is not None):
            if not unit.sink.sinks:  # opened for this registration
                created = unit
            unit.join(name, tree, sink)
        else:
            # Emission mode joins the sharing key: a default-mode sharer
            # must not receive a mixed-in earliest unit's early emissions.
            key = (dedup_key(tree, limits), emission)
            if share:
                for candidate in self._units.get(key, ()):
                    if candidate.virgin and not candidate.tracked:
                        unit = candidate
                        break
            if unit is None:
                unit = created = EvalUnit(tree, limits, tracker=tracker,
                                          emission=emission, lag_probe=lag_probe)
                self._units.setdefault(key, []).append(unit)
            unit.join(name, tree, sink)
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
        return registration, created, gained

    def _shape_unit(self, tree: QueryTree) -> "ValueShapeUnit | None":
        """The virgin value-shape unit ``tree`` joins (opened if need be),
        or ``None`` when the query has no shape, does not run on TwigM or
        its shape is out of the machine's scope."""
        found = shape_key(tree)
        if found is None or select_engine_class(tree) is not TwigM:
            return None
        for candidate in self._shapes.get(found[0], ()):
            if candidate.virgin:
                return candidate
        try:
            unit = ValueShapeUnit(tree)
        except UnsupportedQueryError:
            return None
        self._shapes.setdefault(unit.key, []).append(unit)
        return unit

    def adopt(self, registration: Registration, new_unit: bool) -> None:
        """Install a pre-built registration (snapshot restore path)."""
        if registration.name in self._registrations:
            raise ValueError(f"duplicate query name {registration.name!r}")
        unit = registration.unit
        if isinstance(unit, SharedPathUnit):
            if unit.virgin:
                self._shared = unit
        elif isinstance(unit, ValueShapeUnit):
            if new_unit:
                self._shapes.setdefault(unit.key, []).append(unit)
        elif new_unit:
            key = (dedup_key(registration.tree, registration.limits),
                   registration.emission)
            self._units.setdefault(key, []).append(unit)
        self._registrations[registration.name] = registration

    def remove(self, name: str) -> tuple[Registration, bool]:
        """Drop ``name``; returns ``(registration, unit_dropped)``."""
        registration = self.get(name)
        del self._registrations[name]
        unit = registration.unit
        if not unit.leave(name):
            return registration, False
        if unit is self._shared:
            self._shared = None
        if isinstance(unit, ValueShapeUnit):
            units, key = self._shapes, unit.key
        else:
            units = self._units
            key = (dedup_key(registration.tree, registration.limits),
                   registration.emission)
        peers = units.get(key, [])
        peers[:] = [peer for peer in peers if peer is not unit]
        if not peers and key in units:
            del units[key]
        return registration, True
