"""Trunk-path NFA and subset construction — the shared lazy-DFA core.

XMLTK [3] evaluates XP{/,//,*} with a DFA built *lazily* from the
query's NFA: DFA states are materialised only for tag sequences that
actually occur in the data.  This module holds the construction shared
by the figure-7/8 baseline (:mod:`repro.baselines.lazydfa`) and the
production DFA front-end (:mod:`repro.compile.dfa`), so the stand-in
and the real engine cannot drift.

NFA construction: position ``i`` = "the first ``i`` trunk steps are
matched".  On an element with tag ``t``, from position-set ``S``::

    T = {i+1 | i ∈ S, step[i+1] admits t}        (advance)
      ∪ {i   | i ∈ S, step[i+1] has axis '//'}   (stay, descendant scope)

Reaching a set containing the accept position (= the number of trunk
steps) means the element is a solution; output is immediate, as in
PathM.

Many queries share one NFA (YFilter's idea): :func:`layout_trunks` lays
their trunks end to end, so an NFA state is a set of (member, position)
pairs encoded as flat positions, and one :func:`subset_step` advances
every member at once.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import UnsupportedQueryError
from repro.xpath.querytree import DESCENDANT_EDGE, QueryTree


class Step:
    """One trunk step of the path query, precompiled for the NFA."""

    __slots__ = ("name", "wildcard", "descendant")

    def __init__(self, name: str, descendant: bool):
        self.name = name
        self.wildcard = name == "*"
        self.descendant = descendant

    def admits(self, tag: str) -> bool:
        return self.wildcard or self.name == tag


def trunk_steps(query: QueryTree) -> list[Step]:
    """The query's trunk as NFA steps (predicate-free queries only)."""
    steps: list[Step] = []
    qnode = query.root
    while True:
        steps.append(Step(qnode.name, qnode.axis == DESCENDANT_EDGE))
        if qnode.is_return:
            break
        qnode = next(child for child in qnode.children if child.on_trunk)
    return steps


#: Fills a trunk's accept position in a laid-out NFA: it admits no tag
#: (tags are never empty) and does not stay, so a position that reached
#: it is dropped by the next :func:`subset_step`.
_ACCEPTED = Step("", False)


def layout_trunks(trunks: Iterable[list[Step]]) -> tuple[list[Step], list[int]]:
    """Lay trunks end to end as one NFA: ``(steps, bases)``, where pair
    ``(m, i)`` is position ``bases[m] + i`` and ``bases[m] + len(trunk)``
    (member ``m``'s accept) holds :data:`_ACCEPTED`.  Pass ``len(steps)``
    as :func:`subset_step`'s ``accept``; a lone trunk keeps base 0.
    """
    steps: list[Step] = []
    bases: list[int] = []
    for trunk in trunks:
        bases.append(len(steps))
        steps.extend(trunk)
        steps.append(_ACCEPTED)
    return steps, bases


def subset_step(
    steps: list[Step], accept: int, state: Iterable[int], tag: str
) -> frozenset[int]:
    """One uncached subset-construction transition: ``δ(state, tag)``."""
    nxt: set[int] = set()
    for position in state:
        if position < accept:
            following = steps[position]
            if following.admits(tag):
                nxt.add(position + 1)
            if following.descendant:
                nxt.add(position)
    return frozenset(nxt)


class LazyDfa:
    """The lazily-determinised automaton for one path query.

    Keeps the XMLTK signature behaviours: per-event work is one hash
    lookup once a transition is cached, predicates are rejected, and
    '*'-heavy queries can blow up the subset construction (exposed via
    :attr:`state_count` — the weakness the paper cites).
    """

    def __init__(self, query: QueryTree):
        if query.has_branches():
            raise UnsupportedQueryError(
                f"the lazy-DFA engine evaluates XP{{/,//,*}} only; "
                f"{query.source!r} has predicates"
            )
        self._steps = trunk_steps(query)
        self._accept = len(self._steps)
        self._initial = frozenset([0])
        #: (state, tag) -> state transition cache; grows lazily.
        self._transitions: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        #: All distinct DFA states materialised so far.
        self._states: set[frozenset[int]] = {self._initial}

    @property
    def initial(self) -> frozenset[int]:
        return self._initial

    @property
    def accept_position(self) -> int:
        return self._accept

    @property
    def state_count(self) -> int:
        """Number of DFA states built — the lazy construction's footprint."""
        return len(self._states)

    @property
    def transition_count(self) -> int:
        return len(self._transitions)

    def step(self, state: frozenset[int], tag: str) -> frozenset[int]:
        """The (cached) DFA transition for ``tag`` out of ``state``."""
        key = (state, tag)
        cached = self._transitions.get(key)
        if cached is not None:
            return cached
        result = subset_step(self._steps, self._accept, state, tag)
        self._transitions[key] = result
        self._states.add(result)
        return result
