"""BranchM: streaming evaluation of XP{/,[]} — predicates without '//' or
'*' (section 3.2 of the paper).

With only child axes, the level of the XML node matching a machine node is
fixed (the node's depth in the query), so **at most one active XML node can
match a machine node at any moment**.  Machine nodes therefore hold a
single state slot instead of a stack:

* ``L`` — the level of the currently matched active node (``-1``: none),
* ``C`` — the candidate set of possible solutions awaiting verification,
* ``B`` — the branch-match array (here, a bitmask), one flag per child.

On a start tag, a machine node matches when its parent's slot holds the
node's parent (L = level − 1), recording L (and, for the return node, the
candidate id).  On the matching end tag, if ``B`` is complete the machine
node reports up: the root outputs ``C``; any other node sets its flag in
the parent's ``B``, merges ``C`` upward, and resets its slot.

This specialisation is exactly TwigM with stacks of depth ≤ 1; it exists
(as in the paper) to isolate the predicate-handling machinery from the
recursion-handling machinery, and as the cheaper engine for the
XP{/,[]} fragment.
"""

from __future__ import annotations

from typing import Iterable

from repro.checkpoint import IDS, INT, LABELS, NAT, Nullable, Tuple
from repro.core.machine import (
    COUNTERS, Machine, MachineNode, build_machine, capture_entry, read_machine_state,
    restore_counters, restore_entry)
from repro.core.push import EventDriven
from repro.core.results import CollectingSink, ResultSink
from repro.errors import UnsupportedQueryError
from repro.stream.events import Event
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query


class _Slot:
    """The (L, C, B) state of one BranchM machine node."""

    __slots__ = ("level", "flags", "candidates", "text_parts", "stable")

    def __init__(self) -> None:
        self.level = -1
        self.flags = 0
        self.candidates: set[int] | None = None
        self.text_parts: list[str] | None = None
        # Earliest-emission bookkeeping: the occupying element's branch
        # match is complete and value-test-free, so its condition
        # outcome can no longer change (recomputed, never snapshotted).
        self.stable = False

    def reset(self) -> None:
        self.level = -1
        self.flags = 0
        self.candidates = None
        self.text_parts = None
        self.stable = False


#: A captured slot: level (-1 when empty), flag word, candidate ids,
#: value text parts.
SLOT = Tuple(INT, NAT, Nullable(IDS), Nullable(LABELS))


class BranchM(EventDriven):
    """Evaluator for queries in XP{/,[]}.

    Raises :class:`~repro.errors.UnsupportedQueryError` for queries with
    '//' or '*' (use :class:`~repro.core.twigm.TwigM` instead).
    """

    #: Stable engine identifier, used as the snapshot ``engine`` key and
    #: as the metrics ``engine`` label.
    machine_name = "branchm"
    #: Every emission is a new id (see :meth:`_emit_ids`), so an
    #: emitted id is never released again.
    epoch_open = False

    def __init__(
        self,
        query: "str | QueryTree | Machine",
        sink: ResultSink | None = None,
        limits: ResourceLimits | None = None,
        *,
        emission: str = "default",
        lag_probe=None,
    ):
        if isinstance(query, Machine):
            self.machine = query
            query_tree = query.query
        else:
            if isinstance(query, str):
                query = compile_query(query)
            query_tree = query
            self.machine = build_machine(query)
        if query_tree.has_descendant_axis() or query_tree.has_wildcard():
            raise UnsupportedQueryError(
                f"BranchM evaluates XP{{/,[]}} only; {query_tree.source!r} "
                "uses '//' or '*'"
            )
        if query_tree.has_boolean_connectives():
            raise UnsupportedQueryError(
                f"BranchM supports conjunctive predicates only; "
                f"{query_tree.source!r} uses or/not (use TwigM)"
            )
        self.sink = sink if sink is not None else CollectingSink()
        self._limits = limits
        self._candidate_count = 0
        self._event_count = 0
        # Slot occupations (ever), occupied slots now, and occupied at
        # most (:func:`~repro.core.machine.engine_figures`).
        self._pushes = self._live = self._peak = 0
        self._slots: dict[int, _Slot] = {
            id(node): _Slot() for node in self.machine.iter_nodes()
        }
        self._value_slots = [self._slots[id(node)] for node in self.machine.value_nodes]
        self.reads_text = bool(self._value_slots)
        # Occupied slots holding a text buffer; characters() is a no-op
        # while this is zero (always, for value-free queries).
        self._open_value_slots = 0
        # Compiled dispatch: per-tag (node, slot, parent_slot) records.
        self._plans: dict[str, list] = {
            tag: self._compile_plan(nodes)
            for tag, nodes in self.machine.dispatch.items()
        }
        if emission not in ("default", "earliest"):
            raise ValueError(
                f"emission must be 'default' or 'earliest', got {emission!r}"
            )
        self.emission = emission
        self._earliest = emission == "earliest"
        self._lag_probe = lag_probe
        self._detect = self._earliest or lag_probe is not None
        self._trunk_dirty = False
        # The root → return-node chain; with child-only axes every
        # occupied trunk slot sits at its fixed level and its parent
        # slot necessarily holds the element's parent, so provability
        # is just "stable all the way up".
        trunk = []
        node = self.machine.return_node
        while node is not None:
            trunk.append(node)
            node = node.parent
        trunk.reverse()
        self._trunk = [(n, self._slots[id(n)]) for n in trunk]
        self._trunk_ids = {id(n) for n in trunk}

    def _compile_plan(self, nodes) -> list:
        return [
            (
                node,
                self._slots[id(node)],
                self._slots[id(node.parent)] if node.parent is not None else None,
            )
            for node in nodes
        ]

    def slot_of(self, node: MachineNode) -> _Slot:
        """The runtime slot of a machine node (read-only use)."""
        return self._slots[id(node)]

    def reset(self) -> None:
        """Clear runtime state for a fresh run."""
        for slot in self._slots.values():
            slot.reset()
        self._candidate_count = 0
        self._event_count = 0
        self._live = 0
        self._open_value_slots = 0
        self._trunk_dirty = False

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable capture of the per-node slots."""
        return {
            "slots": [capture_entry(self._slots[id(node)]) for node in self.machine.iter_nodes()],
            "candidate_count": self._candidate_count,
            **COUNTERS.capture(self),
        }

    def held_ids(self) -> Iterable[int]:
        """The candidate ids the slots buffer."""
        for slot in self._slots.values():
            if slot.candidates:
                yield from slot.candidates

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture into this machine."""
        nodes = list(self.machine.iter_nodes())
        state = read_machine_state(self, state, [SLOT] * len(nodes), key="slots",
                                   optional={"candidate_count": (NAT, 0)})
        slots = state["slots"]
        for node, fields in zip(nodes, slots):
            restore_entry(self._slots[id(node)], *fields).stable = False
        self._candidate_count = state["candidate_count"]
        restore_counters(self, state, sum(1 for slot in slots if slot[0] != -1))
        self._open_value_slots = sum(
            1 for slot in self._value_slots if slot.text_parts is not None
        )
        if self._detect:
            # ``stable`` is recomputed from the captured flags (captures
            # taken by any mode restore into any mode); the scheduled
            # flush catches anything a default-mode capture left
            # unemitted.
            for node in self.machine.iter_nodes():
                slot = self._slots[id(node)]
                slot.stable = False
                if slot.level != -1:
                    self._note_stable(node, slot)
            self._trunk_dirty = True

    # -- transitions -------------------------------------------------------

    def _count_candidates(self, added: int) -> None:
        self._candidate_count += added
        if added > 0 and self._limits is not None:
            self._limits.check("max_buffered_candidates", self._candidate_count)

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            return
        if attributes is None:
            attributes = {}
        for node, slot, parent_slot in plan:
            if parent_slot is None:
                if level != node.edge_dist:
                    continue
            elif parent_slot.level != level - node.edge_dist:
                continue
            if node.attribute_tests and not node.attributes_satisfied(attributes):
                continue
            if slot.candidates:
                self._candidate_count -= len(slot.candidates)
            if slot.level == -1:
                self._pushes += 1
                live = self._live = self._live + 1
                if live > self._peak:
                    self._peak = live
            slot.level = level
            slot.flags = 0
            slot.candidates = None
            slot.stable = False
            if node.value_tests:
                if slot.text_parts is None:
                    self._open_value_slots += 1
                slot.text_parts = []
            if node.is_return:
                slot.candidates = {node_id}
                self._count_candidates(1)
            if self._detect:
                self._note_stable(node, slot)
        if self._trunk_dirty:
            self._flush_trunk()

    def characters(self, text: str, level: int | None = None) -> None:
        """Accumulate string-value data for value-tested nodes.

        A no-op while no value-tested slot is occupied (always, for
        value-free queries).  ``level`` is accepted for
        :class:`~repro.stream.events.EventHandler` parity and unused.
        """
        if not self._open_value_slots:
            return
        for slot in self._value_slots:
            if slot.level != -1 and slot.text_parts is not None:
                slot.text_parts.append(text)

    def end_element(self, tag: str, level: int) -> None:
        plan = self._plans.get(tag)
        if plan is None:
            return
        for node, slot, parent_slot in plan:
            if slot.level != level:
                continue
            satisfied = slot.flags == node.complete_mask
            if satisfied and node.value_tests:
                text = "".join(slot.text_parts or ())
                satisfied = all(test.evaluate(text) for test in node.value_tests)
            if satisfied:
                if parent_slot is None:
                    if slot.candidates:
                        self._emit_ids(slot.candidates)
                else:
                    # With child-only axes the parent slot necessarily
                    # holds this node's parent element.
                    parent_slot.flags |= 1 << node.child_index
                    if slot.candidates:
                        if parent_slot.candidates is None:
                            parent_slot.candidates = set(slot.candidates)
                            self._count_candidates(len(parent_slot.candidates))
                        else:
                            before = len(parent_slot.candidates)
                            parent_slot.candidates |= slot.candidates
                            self._count_candidates(len(parent_slot.candidates) - before)
                    if self._detect:
                        if not parent_slot.stable:
                            self._note_stable(node.parent, parent_slot)
                        elif slot.candidates:
                            self._trunk_dirty = True
            if slot.candidates:
                self._candidate_count -= len(slot.candidates)
            if slot.text_parts is not None:
                self._open_value_slots -= 1
            slot.reset()
            self._live -= 1
        if self._trunk_dirty:
            self._flush_trunk()

    # -- earliest emission / decision-lag detection --------------------------
    #
    # Runs only when ``self._detect`` is set (earliest mode, or default
    # mode with a lag probe attached); see :class:`repro.core.twigm.TwigM`
    # for the shared soundness argument — BranchM is the stacks-of-depth-1
    # specialisation, so "qualifying parent entries" degenerates to "the
    # parent slot", pinned for as long as the child element is open.

    def _emit_ids(self, candidates) -> None:
        """Emit a candidate set (single override point for counting).

        Every id is new, so it goes to ``sink.emit``.  A candidate is
        created once, in the return slot at its start tag.  Uploads
        *move* a set up one slot (the child slot is reset right after),
        so a candidate lives in one slot at a time, and child-only axes
        pin that chain to the candidate's own ancestors — one root
        element.  The root pop and the earliest flush both emit a slot's
        set and drop it, so no candidate is emitted twice.
        """
        emit = self.sink.emit
        for node_id in sorted(candidates):
            emit(node_id)

    def _note_stable(self, node: MachineNode, slot: _Slot) -> None:
        """Mark a newly complete slot; set its β-flag on the parent now."""
        if slot.stable or node.value_tests or slot.flags != node.complete_mask:
            return
        slot.stable = True
        if id(node) in self._trunk_ids:
            self._trunk_dirty = True
        parent = node.parent
        if parent is None:
            return
        parent_slot = self._slots[id(parent)]
        if parent_slot.level == slot.level - node.edge_dist:
            bit = 1 << node.child_index
            if not parent_slot.flags & bit:
                parent_slot.flags |= bit
                self._note_stable(parent, parent_slot)

    def _flush_trunk(self) -> None:
        """Emit (or just mark, with only a probe) provable candidates.

        An occupied trunk slot qualified against its parent slot at push
        time and levels are fixed, so a candidate is provable exactly
        when every trunk slot from the root down to its holder is
        occupied and stable; the walk stops at the first that is not.
        """
        self._trunk_dirty = False
        probe = self._lag_probe
        earliest = self._earliest
        for node, slot in self._trunk:
            if slot.level == -1 or not slot.stable:
                break
            if not slot.candidates:
                continue
            if probe is not None:
                probe.mark_provable(slot.candidates)
            if earliest:
                self._candidate_count -= len(slot.candidates)
                self._emit_ids(slot.candidates)
                slot.candidates = None


def evaluate_branchm(query: "str | QueryTree", events: Iterable[Event]) -> list[int]:
    """One-shot BranchM evaluation: XP{/,[]} query × events → ids."""
    return BranchM(query).run(events)
