"""DfaPathM: the lazily-determinised DFA front-end for PathM.

Predicate-free XP{/,//,*} queries need no candidate bookkeeping — the
moment an element qualifies it is a solution.  PathM already exploits
that, but still walks a per-tag dispatch plan on every event.  This
engine promotes the XMLTK-style lazy DFA from the figure-7/8 baseline
into the production path: the subset construction
(:mod:`repro.compile.nfa`, shared with the baseline) materialises a DFA
state the first time a tag sequence occurs in the data, after which the
per-event work is **one dict lookup** on the current state's transition
table.

**Members.**  One automaton may evaluate many path queries (YFilter's
shared NFA): an NFA state is a set of (member, position) pairs
(:func:`~repro.compile.nfa.layout_trunks`), and each DFA state fires the
sinks of the members it accepts, so a start tag costs one lookup however
many members there are.  A one-member engine is the single-query case.
Adding or removing a member drops the transition cache and replays the
open tag path.

Two guarantees keep it bit-for-bit equivalent to interpreted PathM:

* **State-cap fallback.**  '*'-heavy queries can blow up the subset
  construction (the paper's cited XMLTK weakness).  When materialising
  a state would exceed ``state_cap``, the engine builds one interpreted
  PathM per member, replays the currently-open element path into each
  (emission suppressed — those solutions were already output when the
  elements opened), and delegates every subsequent event.  The swap is
  invisible to the caller.
* **Alignment fallback.**  The DFA tracks depth implicitly (one pushed
  state per open element), which is only sound when it sees every
  start/end from depth zero.  A machine attached mid-document (multiq
  live add) receives its first event at depth > 1; the engine detects
  the misalignment and falls back to PathM, whose explicit level
  arithmetic handles partial streams — exactly what a dedicated cold
  machine does today.

Snapshots store the member list and the NFA configuration (position
sets per open element), never the transition cache: restore rebuilds
states lazily, so the cache is reconstructible state, not checkpointed
state.
"""

from __future__ import annotations

from typing import Iterable

from repro.compile.nfa import layout_trunks, subset_step, trunk_steps
from repro.core.machine import Machine, build_machine
from repro.core.pathm import PathM
from repro.core.push import LimitCountingHandler
from repro.core.results import CollectingSink, CountingSink, ResultSink
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.stream.events import EndElement, Event, StartElement
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query

#: Default ceiling on materialised DFA states before falling back to
#: interpreted PathM.  Real predicate-free queries build a handful of
#: states per trunk step; hundreds signal wildcard blow-up.
DEFAULT_STATE_CAP = 512


class _Trunk:
    """One member: its machine (for the PathM fallback), trunk and sink."""

    __slots__ = ("machine", "steps", "sink")

    def __init__(self, machine: Machine, sink: ResultSink):
        self.machine = machine
        self.steps = trunk_steps(machine.query)
        self.sink = sink


class _DfaState:
    """One materialised DFA state: an interned NFA position set."""

    __slots__ = ("positions", "fire", "trans")

    def __init__(self, positions: frozenset[int], fire):
        self.positions = positions
        #: Emits a node id to every member this state accepts; None
        #: when it accepts none.
        self.fire = fire
        #: tag -> successor state; grows lazily, one entry per miss.
        self.trans: dict[str, _DfaState] = {}


def _fanout(emits: list):
    if len(emits) == 1:
        return emits[0]

    def fire(node_id: int) -> None:
        for emit in emits:
            emit(node_id)

    return fire


class DfaPathM:
    """Lazy-DFA evaluator for XP{/,//,*} with interpreted-PathM fallback.

    Drop-in for :class:`~repro.core.pathm.PathM`: same constructor
    shape, same sink/limits/handler protocol, interchangeable solutions.
    The constructor's query is the first member; :meth:`add_member`
    adds more.
    """

    machine_name = "dfa"
    #: Members emit at start tags, like PathM: never an id twice.
    epoch_open = False
    #: The engine ignores character data, so the tokenizer need not
    #: deliver it (the events still count), and may step the automaton
    #: itself (:meth:`inline_automaton`).
    turbo_scan_safe = True

    def __init__(
        self,
        query: "str | QueryTree | Machine",
        sink: ResultSink | None = None,
        limits: ResourceLimits | None = None,
        *,
        state_cap: int = DEFAULT_STATE_CAP,
    ):
        self._limits = limits
        self._event_count = 0
        self._state_cap = max(1, state_cap)
        self._trunks: list[_Trunk] = []
        #: The laid-out NFA (:func:`~repro.compile.nfa.layout_trunks`)
        #: and each member's ``(accept position, emit)``.
        self._nfa: list = []
        self._accepts: list[tuple[int, object]] = []
        #: Interned states: frozenset of NFA positions -> _DfaState.
        self._index: dict[frozenset[int], _DfaState] = {}
        self._initial = _DfaState(frozenset(), None)
        #: Open-element tags, maintained so a mid-document cap trip can
        #: replay the path into the interpreted fallback machines, and
        #: a membership change into the recompiled automaton.
        self._tags: list[str] = []
        #: Interpreted PathM delegates (one per member) after a cap trip
        #: or misalignment.
        self._fallback: list[PathM] | None = None
        # Lifetime counters (survive reset/restore; metrics semantics).
        self._starts = 0
        self._misses = 0
        self._fallbacks = 0
        self.add_member(query, sink if sink is not None else CollectingSink())

    # -- introspection ----------------------------------------------------

    @property
    def machine(self) -> Machine:
        """The first member's machine (the query's, for one member)."""
        return self._trunks[0].machine

    @property
    def sink(self) -> ResultSink:
        """The first member's sink (the query's, for one member)."""
        return self._trunks[0].sink

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        raise AttributeError("results are only collected by the default sink")

    @property
    def dfa_state_count(self) -> int:
        """Distinct DFA states currently materialised."""
        return len(self._index)

    @property
    def dfa_transition_count(self) -> int:
        """Cached transitions currently materialised."""
        return sum(len(state.trans) for state in self._index.values())

    @property
    def fell_back(self) -> bool:
        """True once the engine delegated to interpreted PathM."""
        return self._fallback is not None

    # -- members ----------------------------------------------------------

    def add_member(self, query: "str | QueryTree | Machine", sink: ResultSink) -> Machine:
        """Add a path query whose solutions go to ``sink``; returns its
        machine.  The member evaluates as if present since the document
        start, so cold-start callers add members before the first event.
        """
        if self._fallback is not None:
            raise ValueError("cannot add a member after the PathM fallback")
        if isinstance(query, Machine):
            machine = query
        else:
            if isinstance(query, str):
                query = compile_query(query)
            if query.has_branches():
                raise UnsupportedQueryError(
                    f"DfaPathM evaluates XP{{/,//,*}} only; "
                    f"{query.source!r} has predicates"
                )
            machine = build_machine(query)
        trunk = _Trunk(machine, sink)
        base = len(self._nfa)
        self._trunks.append(trunk)
        self._nfa += layout_trunks([trunk.steps])[0]
        self._accepts.append((base + len(trunk.steps), sink.emit))
        self._restart(self._initial.positions | {base})
        return machine

    def remove_member(self, sink: ResultSink) -> None:
        """Drop the member delivering to ``sink`` (one must remain)."""
        for index, trunk in enumerate(self._trunks):
            if trunk.sink is sink:
                break
        else:
            raise ValueError("no DfaPathM member delivers to this sink")
        if len(self._trunks) == 1:
            raise ValueError("a DfaPathM keeps at least one member")
        del self._trunks[index]
        if self._fallback is not None:
            del self._fallback[index]
        else:
            self._rebuild()

    # -- DFA construction -------------------------------------------------

    def _rebuild(self) -> None:
        """Recompile the NFA from the member list."""
        self._nfa, bases = layout_trunks(trunk.steps for trunk in self._trunks)
        self._accepts = [
            (base + len(trunk.steps), trunk.sink.emit)
            for base, trunk in zip(bases, self._trunks)
        ]
        self._restart(frozenset(bases))

    def _restart(self, initial: frozenset[int]) -> None:
        """Drop the transition cache; replay the open tag path."""
        self._index = {}
        self._initial = self._state_for(initial)
        self._replay(self._tags)

    def _replay(self, tags: list[str]) -> None:
        """Drive the automaton from its initial state down ``tags``
        (no emission)."""
        self._tags = list(tags)
        stack = [self._initial]
        for tag in tags:
            state = stack[-1]
            nxt = state.trans.get(tag) or self._materialize(state, tag)
            if nxt is None:
                self._state_stack = [self._initial]
                self._fall_back()
                return
            stack.append(nxt)
        self._state_stack = stack

    def _state_for(self, positions: frozenset[int]) -> _DfaState:
        state = self._index.get(positions)
        if state is None:
            emits = [emit for accept, emit in self._accepts if accept in positions]
            state = _DfaState(positions, _fanout(emits) if emits else None)
            self._index[positions] = state
        return state

    def _materialize(self, state: _DfaState, tag: str) -> "_DfaState | None":
        """Build and cache ``δ(state, tag)``; None when the cap trips."""
        self._misses += 1
        positions = subset_step(self._nfa, len(self._nfa), state.positions, tag)
        nxt = self._index.get(positions)
        if nxt is None:
            if len(self._index) >= self._state_cap:
                return None
            nxt = self._state_for(positions)
        state.trans[tag] = nxt
        return nxt

    def _fall_back(self) -> list[PathM]:
        """Swap in one interpreted PathM per member, replaying the
        open-element path.

        PathM only emits at start events, and every open element's start
        already happened (and emitted, if it qualified), so the replay
        drives a throwaway counting sink; the real sink is re-attached
        before live events resume.
        """
        self._fallbacks += 1
        machines = []
        for trunk in self._trunks:
            machine = PathM(trunk.machine, sink=CountingSink(), limits=self._limits)
            for depth, tag in enumerate(self._tags, start=1):
                machine.start_element(tag, depth, 0)
            machine.sink = trunk.sink
            machine._event_count = self._event_count
            machines.append(machine)
        self._fallback = machines
        self._tags = []
        return machines

    # -- transitions ------------------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        fallback = self._fallback
        if fallback is None:
            if self._limits is not None:
                self._limits.check("max_depth", level)
            stack = self._state_stack
            if level == len(stack):
                self._starts += 1
                state = stack[-1]
                nxt = state.trans.get(tag)
                if nxt is None:
                    nxt = self._materialize(state, tag)
                if nxt is not None:
                    stack.append(nxt)
                    self._tags.append(tag)
                    fire = nxt.fire
                    if fire is not None:
                        fire(node_id)
                    return
            # Cap tripped, or joined mid-document (depth-implicit
            # tracking is unsound, PathM's explicit levels are not).
            fallback = self._fall_back()
        for machine in fallback:
            machine.start_element(tag, level, node_id, attributes)

    def characters(self, text: str, level: int | None = None) -> None:
        """No-op: character data carries no information for path queries."""

    def end_element(self, tag: str, level: int) -> None:
        fallback = self._fallback
        if fallback is None:
            stack = self._state_stack
            if level == len(stack) - 1 and level > 0:
                stack.pop()
                self._tags.pop()
                return
            # An end we never saw the start of — misaligned stream.
            fallback = self._fall_back()
        for machine in fallback:
            machine.end_element(tag, level)

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Clear runtime state for a fresh run (transition cache kept)."""
        self._state_stack = [self._initial]
        self._tags = []
        self._fallback = None
        self._event_count = 0

    # -- checkpointing ----------------------------------------------------

    def _sources(self) -> list[str]:
        return [trunk.machine.query.source for trunk in self._trunks]

    def snapshot_state(self) -> dict:
        """JSON-serializable members and NFA configuration (the cache is
        rebuilt lazily)."""
        state = {
            "members": self._sources(),
            "dfa": {
                "stack": [sorted(s.positions) for s in self._state_stack],
                "tags": list(self._tags),
            },
            "event_count": self._event_count,
            "fallen": self._fallback is not None,
            "counters": {
                "starts": self._starts,
                "misses": self._misses,
                "fallbacks": self._fallbacks,
            },
        }
        if self._fallback is not None:
            state["fallback"] = [machine.snapshot_state() for machine in self._fallback]
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` capture onto the same members.

        A capture without ``members`` was written by a one-query engine;
        it restores onto any number of members running that same query
        (the per-query release shared one engine between duplicates).
        """
        try:
            members = state.get("members")
            if members is not None and members != self._sources():
                raise CheckpointError(
                    f"DFA snapshot for members {members!r} restored onto "
                    f"{self._sources()!r}"
                )
            dfa = state["dfa"]
            counters = state.get("counters", {})
            self._starts = counters.get("starts", 0)
            self._misses = counters.get("misses", 0)
            self._fallbacks = counters.get("fallbacks", 0)
            self._event_count = state.get("event_count", 0)
            self._fallback = None
            if state.get("fallen"):
                fallback = state["fallback"]
                if isinstance(fallback, dict):
                    fallback = [fallback] * len(self._trunks)
                if len(fallback) != len(self._trunks):
                    raise CheckpointError(
                        f"DFA snapshot has {len(fallback)} fallback machines "
                        f"for {len(self._trunks)} members"
                    )
                machines = []
                for trunk, machine_state in zip(self._trunks, fallback):
                    machine = PathM(trunk.machine, sink=trunk.sink, limits=self._limits)
                    machine.restore_state(machine_state)
                    machines.append(machine)
                self._fallback = machines
                self._state_stack = [self._initial]
                self._tags = []
                return
            tags = list(dfa["tags"])
            stack_positions = dfa["stack"]
            if len(stack_positions) != len(tags) + 1:
                raise CheckpointError(
                    f"DFA snapshot has {len(stack_positions)} states for "
                    f"{len(tags)} open elements"
                )
            if members is None:
                # One query's positions: re-derive every member's from
                # the open tag path instead.
                self._replay(tags)
                return
            size = len(self._nfa)
            if any(not 0 <= p < size for positions in stack_positions for p in positions):
                raise CheckpointError("DFA snapshot positions outside the NFA")
            self._tags = tags
            self._state_stack = [
                self._state_for(frozenset(positions))
                for positions in stack_positions
            ]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed DFA snapshot: {exc}") from exc

    # -- event-stream driving ---------------------------------------------

    def inline_automaton(self):
        """``(states, tags, count_starts)`` for a parser that steps the
        automaton itself, or None once it must see every event (limits,
        or the interpreted fallback).

        A step appends ``state.trans[tag]`` to ``states`` and the tag to
        ``tags``, and calls the state's ``fire`` (when not None) with the
        node id; an end pops both.  A tag with no cached transition goes
        through :meth:`start_element`.  The parser reports the starts it
        stepped through ``count_starts``.  The stacks stay valid until
        :meth:`reset`, a restore or a membership change.
        """
        if self._limits is not None or self._fallback is not None:
            return None
        return self._state_stack, self._tags, self._count_starts

    def _count_starts(self, count: int) -> None:
        self._starts += count

    def as_handler(self):
        """Push-pipeline adapter: the engine itself, or a limit-counting
        wrapper when limits are set (mirrors PathM)."""
        if self._limits is None:
            return self
        return LimitCountingHandler(self)

    def feed(self, events: Iterable[Event]) -> None:
        """Process a batch of modified-SAX events (pull driver)."""
        limits = self._limits
        for event in events:
            if limits is not None:
                self._event_count += 1
                limits.check("max_total_events", self._event_count)
            if isinstance(event, StartElement):
                self.start_element(
                    event.tag, event.level, event.node_id, event.attributes
                )
            elif isinstance(event, EndElement):
                self.end_element(event.tag, event.level)

    def run(self, events: Iterable[Event]) -> list[int]:
        """Evaluate over a complete event stream; return solution ids."""
        self.feed(events)
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        return []
