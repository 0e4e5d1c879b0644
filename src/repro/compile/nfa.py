"""Trunk-path NFA and subset construction — the shared lazy-DFA core.

XMLTK [3] evaluates XP{/,//,*} with a DFA built *lazily* from the
query's NFA: DFA states are materialised only for tag sequences that
actually occur in the data.  This module holds the construction shared
by the figure-7/8 baseline (:class:`LazyDfa`, behind
:mod:`repro.baselines.lazydfa`) and the production DFA front-end
(:mod:`repro.compile.dfa`), so the stand-in and the real engine cannot
drift.

Many queries share one NFA (YFilter's idea): :class:`PathTrie` merges
their trunks into a prefix tree, so queries with a common prefix share
its positions, and a set of positions is one int bitset that
:meth:`PathTrie.step` advances for every member at once.  Reaching a
trunk's last position means the element is a solution; output is
immediate, as in PathM.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import UnsupportedQueryError
from repro.xpath.querytree import DESCENDANT_EDGE, QueryTree


class Step(NamedTuple):
    """One trunk step of the path query: its label (``'*'`` admits any
    tag) and whether its axis is ``//``."""

    name: str
    descendant: bool


def trunk_steps(query: QueryTree) -> list[Step]:
    """The query's trunk as NFA steps; predicates raise
    :class:`~repro.errors.UnsupportedQueryError`."""
    if query.has_branches():
        raise UnsupportedQueryError(
            f"the lazy DFA evaluates XP{{/,//,*}} only; "
            f"{query.source!r} has predicates"
        )
    steps: list[Step] = []
    qnode = query.root
    while True:
        steps.append(Step(qnode.name, qnode.axis == DESCENDANT_EDGE))
        if qnode.is_return:
            break
        qnode = next(child for child in qnode.children if child.on_trunk)
    return steps


#: A tag outside every member's alphabet: the gapped stepping of a
#: filtered stream pads the levels it was not shown with it.  It is no
#: XML name, so only ``'*'`` edges admit it.
GAP = "<gap>"
#: Edge key of a prefix's loop position (no tag is spelt like it).
_LOOP = "//"


class PathTrie:
    """Trunks merged into one prefix-shared NFA over int-bitset states.

    Position 0 is the empty prefix; every other position is the prefix
    of some trunk.  A ``/t`` step leads from a prefix's position to the
    longer prefix's through ``edges[p][t]``; a ``//t`` step leads there
    from the prefix's *loop* position, which stays active on every tag
    (descendant scope) and is entered together with the prefix
    (``closure``).  ``'*'`` edges admit every tag, :data:`GAP` included.
    A prefix that no trunk ends at and no ``/`` step leaves is entered
    as its loop alone, so a DFA state never tells "just matched" from
    "inside" where no query can.
    """

    def __init__(self) -> None:
        self.edges: list[dict[str, int]] = [{}]
        #: Per position: the bits entering it sets (its own, when a
        #: trunk ends there or a ``/`` step leaves it, and its loop's).
        self.closure: list[int] = [0]
        #: The loop positions, which every step keeps.
        self.loops = 0

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def initial(self) -> int:
        return self.closure[0]

    def add(self, steps: list[Step]) -> int:
        """Merge a trunk in; returns its last (accepting) position."""
        position = 0
        for step in steps:
            if step.descendant:
                position = self._follow(position, _LOOP)
            else:
                self.closure[position] |= 1 << position
            position = self._follow(position, step.name)
        self.closure[position] |= 1 << position
        return position

    def _follow(self, position: int, key: str) -> int:
        found = self.edges[position].get(key)
        if found is None:
            found = len(self.edges)
            self.edges[position][key] = found
            self.edges.append({})
            self.closure.append(0)
            if key == _LOOP:
                self.loops |= 1 << found
                self.closure[position] |= 1 << found
        return found

    def step(self, state: int, tag: str) -> int:
        """One uncached subset-construction transition: ``δ(state, tag)``."""
        edges, closure = self.edges, self.closure
        following = state & self.loops
        while state:
            low = state & -state
            state ^= low
            out = edges[low.bit_length() - 1]
            if out:
                found = out.get(tag)
                if found is not None:
                    following |= closure[found]
                found = out.get("*")
                if found is not None:
                    following |= closure[found]
        return following


class LazyDfa:
    """The lazily-determinised automaton for one path query.

    Keeps the XMLTK signature behaviours: per-event work is one hash
    lookup once a transition is cached, predicates are rejected, and
    '*'-heavy queries can blow up the subset construction (exposed via
    :attr:`state_count` — the weakness the paper cites).  States are
    :class:`PathTrie` bitsets; one holding :attr:`accept` is a solution.
    """

    def __init__(self, query: QueryTree):
        self._trie = PathTrie()
        self.accept = 1 << self._trie.add(trunk_steps(query))
        self.initial = self._trie.initial
        #: (state, tag) -> state transition cache; grows lazily.
        self._transitions: dict[tuple[int, str], int] = {}
        #: All distinct DFA states materialised so far.
        self._states: set[int] = {self.initial}

    @property
    def state_count(self) -> int:
        """Number of DFA states built — the lazy construction's footprint."""
        return len(self._states)

    @property
    def transition_count(self) -> int:
        return len(self._transitions)

    def step(self, state: int, tag: str) -> int:
        """The (cached) DFA transition for ``tag`` out of ``state``."""
        key = (state, tag)
        cached = self._transitions.get(key)
        if cached is None:
            cached = self._transitions[key] = self._trie.step(state, tag)
            self._states.add(cached)
        return cached
