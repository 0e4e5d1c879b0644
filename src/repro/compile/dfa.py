"""DfaPathM: the lazily-determinised DFA front-end for PathM.

Predicate-free XP{/,//,*} queries need no candidate bookkeeping — the
moment an element qualifies it is a solution.  PathM already exploits
that, but still walks a per-tag dispatch plan on every event.  This
engine promotes the XMLTK-style lazy DFA from the figure-7/8 baseline
into the production path: the subset construction over a
:class:`~repro.compile.nfa.PathTrie` materialises a DFA state the first
time a tag sequence occurs in the data, after which the per-event work
is **one dict lookup** on the current state's transition table.

**Members.**  One automaton may evaluate many path queries (YFilter's
shared NFA): the trie merges their trunks, an NFA state is an int bitset
of trie positions, and each DFA state fires the sinks of the members it
accepts, so a start tag costs one lookup however many members there
are.  A one-member engine is the single-query case.  Adding or removing
a member drops the transition cache and replays the open tag path.

**Gapped delivery.**  The automaton keeps one state per open level, and
each event carries its level, so it need not see every element: a start
tag at level L that finds fewer open levels pads the missing ones by
stepping on :data:`~repro.compile.nfa.GAP` (a tag outside every member's
alphabet, admitted only by ``'*'`` steps), and a start or end at or
below the top level cuts the stack back to it; ends of elements it never
saw are not needed.  A router may therefore deliver only the members'
tags, and a machine started mid-document treats the ancestors it never
saw as gaps — which is what a cold PathM's level arithmetic does with
them.

**State cap.**  '*'-heavy queries can blow up the subset construction
(the paper's cited XMLTK weakness).  When materialising a state would
exceed ``state_cap``, the engine clears its cache (the bound Green et
al.'s lazy DFA keeps): it drops every state and cached transition,
re-interns the states of the open levels, and goes on.  At most
``state_cap`` + R + 1 states are live (R the document depth), and a
miss after a clear costs one :meth:`~repro.compile.nfa.PathTrie.step`,
as before it.

Snapshots store the member list and the NFA configuration (sorted
position lists per open level, and the open tags), never the transition
cache: restore replays the tags, so the cache is reconstructible state,
not checkpointed state.
"""

from __future__ import annotations

from repro.checkpoint import BOOL, IDS, LABELS, NAT, OBJECT, Fields, ListOf, Nullable, OneOf
from repro.compile.nfa import GAP, PathTrie, trunk_steps
from repro.core.machine import Machine, build_machine
from repro.core.push import EventDriven
from repro.core.results import CollectingSink, ResultSink
from repro.errors import CheckpointError
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query

#: Default ceiling on materialised DFA states before the cache is
#: cleared.  Real predicate-free queries build a handful of states per
#: trunk step; hundreds signal wildcard blow-up.
DEFAULT_STATE_CAP = 512


class _Trunk:
    """One member: its machine, trunk and sink."""

    __slots__ = ("machine", "steps", "sink", "accept")

    def __init__(self, machine: Machine, sink: ResultSink):
        self.machine = machine
        self.steps = trunk_steps(machine.query)
        self.sink = sink
        #: The bit of the trie position where the member accepts.
        self.accept = 0


#: The transitions of a state no tag has left yet (never written).
_NO_TRANS: dict = {}


class _Fanout:
    """Emits a node id through each of ``emits`` (the members accepting
    at one trie position, or a state's accepting positions)."""

    __slots__ = ("emits",)

    def __init__(self, emits):
        self.emits = emits

    def __call__(self, node_id: int) -> None:
        for emit in self.emits:
            emit(node_id)


class _DfaState(_Fanout):
    """One materialised DFA state: an NFA position bitset.

    A state is *provisional* (``positions`` None, not interned) until a
    tag leaves it: most states are the leaves of the document, which
    never need their positions again.  A state accepting at several trie
    positions is its own ``fire``.
    """

    __slots__ = ("positions", "fire", "trans")

    def __init__(self, positions: "int | None", emits: tuple):
        self.positions = positions
        #: tag -> successor state; grows lazily, one entry per miss.
        self.trans: dict[str, _DfaState] = _NO_TRANS
        #: Emits a node id to every member this state accepts; None
        #: when it accepts none.
        if len(emits) > 1:
            self.emits, self.fire = emits, self
        else:
            self.emits, self.fire = (), emits[0] if emits else None


#: A capture's NFA configuration: each open level's positions, and the
#: open tags.
_CONFIGURATION = Fields({"stack": ListOf(IDS), "tags": LABELS})
#: Cache counters, bound to the DFA's; ``fallbacks`` counted the PathM
#: swaps of earlier releases.
_COUNTERS = Fields(optional={
    key: (NAT, 0) for key in ("starts", "misses", "clears", "fallbacks")},
    attrs=("_starts", "_misses", "_clears"))
#: A lazy DFA's capture (:meth:`DfaPathM.snapshot_state`); one without
#: ``members`` was written by a one-query engine.
DFA_STATE = Fields({"dfa": _CONFIGURATION}, {
    "members": (Nullable(LABELS), None),
    "counters": (_COUNTERS, {"starts": 0, "misses": 0, "clears": 0, "fallbacks": 0}),
    "event_count": (NAT, 0),
    "fallen": (BOOL, False),
})
#: A capture an earlier release's DFA wrote after swapping to PathM: its
#: ``fallback`` holds the PathM states (:func:`fallen_pathm_states`).
FALLEN_STATE = Fields({"fallen": BOOL, "fallback": OneOf(OBJECT, ListOf(OBJECT))}, {
    "members": (Nullable(LABELS), None),
    "dfa": (Nullable(_CONFIGURATION), None),
    "counters": (Nullable(_COUNTERS), None),
    "event_count": (NAT, 0),
})


class DfaPathM(EventDriven):
    """Lazy-DFA evaluator for XP{/,//,*}, its cache bounded by ``state_cap``.

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
        #: The members' merged trunks, the positions where some member
        #: accepts, and each such position's emitter (by first member).
        self._nfa = PathTrie()
        self._accept_mask = 0
        self._accepts: dict[int, object] = {}
        #: The open levels' states (the initial state's first) and the
        #: open tags, which a membership change replays.  Both change
        #: only in place: a parser stepping inline holds them.
        self._state_stack: list[_DfaState] = []
        self._tags: list[str] = []
        # Lifetime counters (survive reset/restore; metrics semantics).
        self._starts = 0
        self._misses = 0
        self._clears = 0
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
    def state_cap(self) -> int:
        """The materialised-state ceiling past which the cache clears."""
        return self._state_cap

    @property
    def dfa_state_count(self) -> int:
        """Distinct DFA states currently materialised."""
        return self._states

    @property
    def dfa_transition_count(self) -> int:
        """Cached transitions currently materialised."""
        return sum(len(state.trans) for state in self._index.values())

    # -- members ----------------------------------------------------------

    def add_member(self, query: "str | QueryTree | Machine", sink: ResultSink) -> Machine:
        """Add a path query whose solutions go to ``sink``; returns its
        machine.  The member evaluates as if present since the document
        start, so cold-start callers add members before the first event.
        """
        if isinstance(query, Machine):
            machine = query
        else:
            machine = build_machine(
                compile_query(query) if isinstance(query, str) else query
            )
        trunk = _Trunk(machine, sink)
        self._trunks.append(trunk)
        self._add_trunk(trunk)
        self._restart()
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
        self._nfa = PathTrie()
        self._accept_mask = 0
        self._accepts = {}
        for trunk in self._trunks:
            self._add_trunk(trunk)
        self._restart()

    # -- DFA construction -------------------------------------------------

    def _add_trunk(self, trunk: _Trunk) -> None:
        bit = trunk.accept = 1 << self._nfa.add(trunk.steps)
        self._accept_mask |= bit
        emitter = self._accepts.get(bit)
        if emitter is None:
            self._accepts[bit] = trunk.sink.emit
        elif isinstance(emitter, _Fanout):
            emitter.emits.append(trunk.sink.emit)
        else:
            self._accepts[bit] = _Fanout([emitter, trunk.sink.emit])

    def _restart(self) -> None:
        """Drop the transition cache; replay the open tag path."""
        #: Interned states: NFA position bitset -> _DfaState; with the
        #: provisional ones, ``_states`` in all.
        self._index: dict[int, _DfaState] = {}
        self._states = 0
        self._replay(self._tags)

    def _replay(self, tags: list[str]) -> None:
        """Drive the automaton from its initial state down ``tags`` (no
        emission; the states are interned, no transition is cached)."""
        stack = [self._state_for(self._nfa.initial)]
        for tag in tags:
            stack.append(self._state_for(self._nfa.step(stack[-1].positions, tag)))
        self._state_stack[:] = stack
        self._tags[:] = tags

    def _clear(self) -> _DfaState:
        """Drop every state and cached transition but the open levels'
        (re-interned: at most R + 1); returns the new top of the stack."""
        self._clears += 1
        levels = self._stack_positions()
        self._index = {}
        self._states = 0
        stack = self._state_stack
        stack[:] = map(self._state_for, levels)
        return stack[-1]

    def _state_for(self, positions: int) -> _DfaState:
        state = self._index.get(positions)
        if state is None:
            self._states += 1
            state = self._index[positions] = _DfaState(positions, self._emits(positions))
        return state

    def _emits(self, positions: int) -> tuple:
        accepting = positions & self._accept_mask
        if not accepting:
            return ()
        return tuple(emit for bit, emit in self._accepts.items() if bit & accepting)

    def _materialize(self, state: _DfaState, tag: str) -> _DfaState:
        """Build and cache ``δ(state, tag)`` for the state on top of the
        stack, clearing the cache first when a new state would pass the
        cap.  The new state is provisional."""
        self._misses += 1
        if state.positions is None:
            state = self._intern(state)
            cached = state.trans.get(tag)
            if cached is not None:
                return cached
        positions = self._nfa.step(state.positions, tag)
        nxt = self._index.get(positions)
        if nxt is None:
            if self._states >= self._state_cap:
                state = self._clear()
            self._states += 1
            nxt = _DfaState(None, self._emits(positions))
        if state.trans is _NO_TRANS:
            state.trans = {}
        state.trans[tag] = nxt
        return nxt

    def _intern(self, state: _DfaState) -> _DfaState:
        """Give the provisional state on top of the stack its positions,
        which follow from the level below's (interned, since a tag left
        it) and the top tag; an equal interned state replaces it."""
        stack, tag = self._state_stack, self._tags[-1]
        below = stack[-2]
        positions = self._nfa.step(below.positions, tag)
        found = self._index.get(positions)
        if found is None:
            state.positions = positions
            self._index[positions] = state
            return state
        below.trans[tag] = stack[-1] = found
        self._states -= 1
        return found

    def _align(self, depth: int) -> None:
        """Bring the stack to ``depth`` open levels: cut it back, or pad
        the levels this machine was not shown by stepping on
        :data:`~repro.compile.nfa.GAP`."""
        stack, tags = self._state_stack, self._tags
        if len(stack) > depth:
            del stack[depth + 1:]
            del tags[depth:]
        while len(stack) <= depth:
            state = stack[-1]
            stack.append(state.trans.get(GAP) or self._materialize(state, GAP))
            tags.append(GAP)

    # -- transitions ------------------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        if self._limits is not None:
            self._limits.check("max_depth", level)
        stack = self._state_stack
        if level != len(stack):
            self._align(level - 1)
        self._starts += 1
        state = stack[-1]
        nxt = state.trans.get(tag) or self._materialize(state, tag)
        stack.append(nxt)
        self._tags.append(tag)
        fire = nxt.fire
        if fire is not None:
            fire(node_id)

    def characters(self, text: str, level: int | None = None) -> None:
        """No-op: character data carries no information for path queries."""

    def end_element(self, tag: str, level: int) -> None:
        stack = self._state_stack
        if level == len(stack) - 1 and level:
            stack.pop()
            self._tags.pop()
        elif 0 < level < len(stack):
            # Deeper levels were opened by starts whose ends were not
            # delivered.
            del stack[level:]
            del self._tags[level - 1:]

    # -- lifecycle --------------------------------------------------------

    def reset(self) -> None:
        """Clear runtime state for a fresh run (transition cache kept)."""
        del self._state_stack[1:]
        self._tags.clear()
        self._event_count = 0

    # -- checkpointing ----------------------------------------------------

    def _stack_positions(self) -> list[int]:
        """Each open level's positions, provisional states' included."""
        levels: list[int] = []
        for depth, state in enumerate(self._state_stack):
            found = state.positions
            if found is None:
                found = self._nfa.step(levels[-1], self._tags[depth - 1])
            levels.append(found)
        return levels

    def _sources(self) -> list[str]:
        return [trunk.machine.query.source for trunk in self._trunks]

    def snapshot_state(self) -> dict:
        """JSON-serializable members and NFA configuration (the cache is
        rebuilt lazily)."""
        return {
            "members": self._sources(),
            "dfa": {
                "stack": [[position for position in range(len(self._nfa))
                           if level >> position & 1]
                          for level in self._stack_positions()],
                "tags": list(self._tags),
            },
            "event_count": self._event_count,
            "counters": _COUNTERS.capture(self),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` capture onto the same members.

        A capture without ``members`` was written by a one-query engine;
        it restores onto any number of members running that same query
        (the per-query release shared one engine between duplicates).
        A capture that says ``fallen`` holds PathM stacks, not the DFA's
        configuration (:func:`fallen_pathm_states`), and is refused.
        """
        state = DFA_STATE(state, "DFA snapshot")
        if state["fallen"]:
            raise CheckpointError("a fallen DFA snapshot resumes on PathM, not the DFA")
        members = state["members"]
        if members is not None and members != self._sources():
            raise CheckpointError(
                f"DFA snapshot for members {members!r} restored onto "
                f"{self._sources()!r}"
            )
        stack, tags = state["dfa"]["stack"], state["dfa"]["tags"]
        if len(stack) != len(tags) + 1:
            raise CheckpointError(
                f"DFA snapshot has {len(stack)} states for {len(tags)} open elements"
            )
        _COUNTERS.apply(self, state["counters"])
        self._event_count = state["event_count"]
        # Replaying the open tags re-derives every member's positions,
        # whatever NFA layout the capture was written under.
        self._replay(tags)

    # -- event-stream driving ---------------------------------------------

    def inline_automaton(self):
        """``(states, tags, count_starts)`` for a parser that steps the
        automaton itself, or None when it must see every event (limits).

        A step appends ``state.trans[tag]`` to ``states`` and the tag to
        ``tags``, and calls the state's ``fire`` (when not None) with the
        node id; an end pops both.  A tag with no cached transition goes
        through :meth:`start_element`.  The parser reports the starts it
        stepped through ``count_starts``.  The engine changes both lists
        only in place, so they stay valid for its lifetime.
        """
        if self._limits is not None:
            return None
        return self._state_stack, self._tags, self._count_starts

    def _count_starts(self, count: int) -> None:
        self._starts += count


def fallen_pathm_states(state, members: int) -> "list[dict] | None":
    """The PathM states, one per member, of a machine capture that says
    ``fallen``; None for any other capture.

    Earlier releases swapped one PathM per member in at the state cap.
    Such captures hold their stacks (a one-query engine's as one dict,
    for every member) and no open tags, so they resume on PathM.
    """
    if not state.get("fallen"):
        return None
    fallback = FALLEN_STATE(state, "fallen DFA snapshot")["fallback"]
    if type(fallback) is dict:
        fallback = [fallback] * members
    if len(fallback) != members:
        raise CheckpointError(
            f"fallen DFA snapshot has no PathM state for each of {members} members"
        )
    return fallback
