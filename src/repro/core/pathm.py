"""PathM: streaming evaluation of XP{/,//,*} — paths without predicates
(section 3.1 of the paper).

Without predicates there is nothing to verify later: the moment an XML
node qualifies for the return machine node, it *is* a solution and is
output immediately — PathM is fully incremental.

Each machine node keeps a stack of the levels of active XML nodes that
solve its prefix subquery.  An XML node is pushed onto node ``v``'s stack
iff its level satisfies ζ(v) against some entry of the parent stack (or
against the document root for the machine root), so stacks never hold
non-solutions, and membership checks stay polynomial: to qualify an XML
node we inspect one stack — never the pattern matches it participates in.

The machine construction is shared with TwigM (interior ``'*'`` folding
and all), but the per-node state is a bare level stack — the branch-match
and candidate machinery of the general machine is unnecessary here.
"""

from __future__ import annotations

from typing import Iterable

from repro.checkpoint import IDS
from repro.core.machine import (
    COUNTERS,
    EDGE_EQ,
    Machine,
    MachineNode,
    StackPlans,
    build_machine,
    read_machine_state,
    restore_counters,
)
from repro.core.push import EventDriven
from repro.core.results import CollectingSink, ResultSink
from repro.errors import UnsupportedQueryError
from repro.stream.events import Event
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query


class PathM(EventDriven, StackPlans):
    """Evaluator for queries in XP{/,//,*}.

    Raises :class:`~repro.errors.UnsupportedQueryError` when the query has
    predicates (use :class:`~repro.core.twigm.TwigM` instead).

    An optional :class:`~repro.stream.recovery.ResourceLimits` bounds the
    document depth and total event count the machine will accept.
    """

    #: Stable engine identifier, used as the snapshot ``engine`` key and
    #: as the metrics ``engine`` label.
    machine_name = "pathm"
    #: Every emission is a new id (one per start tag), so an emitted id
    #: is never released again (see :mod:`repro.core.results`).
    epoch_open = False
    #: Solutions are output at once: no candidate is ever buffered.
    _candidate_count = 0

    def __init__(
        self,
        query: "str | QueryTree | Machine",
        sink: ResultSink | None = None,
        limits: ResourceLimits | None = None,
    ):
        if isinstance(query, Machine):
            self.machine = query
        else:
            if isinstance(query, str):
                query = compile_query(query)
            if query.has_branches():
                raise UnsupportedQueryError(
                    f"PathM evaluates XP{{/,//,*}} only; {query.source!r} has predicates"
                )
            self.machine = build_machine(query)
        self.sink = sink if sink is not None else CollectingSink()
        self._limits = limits
        self._event_count = 0
        # Stack entries pushed (ever), live now, and live at most
        # (:func:`~repro.core.machine.engine_figures`).
        self._pushes = self._live = self._peak = 0
        # The machine of a path query is a single chain; per-node state is
        # a stack of levels.
        self._stacks: dict[int, list[int]] = {
            id(node): [] for node in self.machine.iter_nodes()
        }
        # Compiled dispatch: per-tag (node, stack, parent_stack) records
        # resolved once so the per-event loops skip id()-keyed lookups.
        self._plans: dict[str, list] = {
            tag: self._compile_plan(nodes)
            for tag, nodes in self.machine.dispatch.items()
        }
        self._wild_plan = self._compile_plan(self.machine.wildcards)
        self._return = self.machine.return_node

    def stack_of(self, node: MachineNode) -> list[int]:
        """The level stack of a machine node (read-only use)."""
        return self._stacks[id(node)]

    @property
    def root_stack(self) -> list[int]:
        """The machine root's live level stack (read-only use).

        Entries nest — a node's stack is non-empty only while its
        parent's is — so an empty root stack means every stack is empty
        and only a start tag of the root's label can change state.  The
        list is the live one (reset/restore refill it in place), which
        is what lets the multi-query router gate delivery on it.
        """
        return self._stacks[id(self.machine.root)]

    def reset(self) -> None:
        """Clear runtime state for a fresh run."""
        for stack in self._stacks.values():
            stack.clear()
        self._event_count = 0
        self._live = 0

    # -- checkpointing ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable capture of the per-node level stacks."""
        return {
            "stacks": [
                list(self._stacks[id(node)]) for node in self.machine.iter_nodes()
            ],
            **COUNTERS.capture(self),
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture into this machine."""
        nodes = list(self.machine.iter_nodes())
        state = read_machine_state(self, state, [IDS] * len(nodes))
        for node, levels in zip(nodes, state["stacks"]):
            stack = self._stacks[id(node)]
            stack.clear()
            stack.extend(levels)
        restore_counters(self, state, sum(len(levels) for levels in state["stacks"]))

    # -- transitions ------------------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        """Push qualifying nodes; output immediately on the return node."""
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        pushed = 0
        for node, stack, parent_stack in plan:
            if parent_stack is None:
                # ζ against the document root (level 0).
                dist = node.edge_dist
                if level != dist and (level < dist or node.edge_op == EDGE_EQ):
                    continue
            elif node.edge_op == EDGE_EQ:
                if not self._edge_exists(node, parent_stack, level):
                    continue
            elif not parent_stack or parent_stack[0] > level - node.edge_dist:
                continue  # '>=': the bottom (smallest) entry decides
            stack.append(level)
            pushed += 1
            if node.is_return:
                self.sink.emit(node_id)
        if pushed:
            self._pushes += pushed
            live = self._live = self._live + pushed
            if live > self._peak:
                self._peak = live

    def characters(self, text: str, level: int | None = None) -> None:
        """No-op: character data carries no information for path queries.

        Present so the engine natively satisfies the
        :class:`~repro.stream.events.EventHandler` protocol.
        """

    def end_element(self, tag: str, level: int) -> None:
        """Pop entries whose element just closed, keeping stacks active-only."""
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
        for node, stack, parent_stack in plan:
            if stack and stack[-1] == level:
                stack.pop()
                self._live -= 1

    @staticmethod
    def _edge_exists(node: MachineNode, parent_stack: list[int], level: int) -> bool:
        if not parent_stack:
            return False
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            # Levels are strictly increasing; check from the top down.
            for entry_level in reversed(parent_stack):
                if entry_level == target:
                    return True
                if entry_level < target:
                    return False
            return False
        # '>=': the bottom (smallest) entry decides existence.
        return parent_stack[0] <= level - node.edge_dist


def evaluate_pathm(query: "str | QueryTree", events: Iterable[Event]) -> list[int]:
    """One-shot PathM evaluation: path query × event stream → ids."""
    return PathM(query).run(events)
