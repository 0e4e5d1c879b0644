"""TwigM: streaming evaluation of XP{/,//,*,[]} (sections 3.3 and 4).

Runtime state is one stack per machine node.  A stack element is the
paper's triple — level ``L``, branch match ``B``, candidate set ``C`` —
implemented as :class:`StackEntry` with the branch match packed into an
integer bitmask (bit β(child) set ⇔ a match for that child was found) and
the candidate set allocated lazily.

Transition functions (Algorithm 1):

``δs`` — on ``startElement(a, l, id)``, every machine node ``v`` with a
matching label qualifies when its parent-edge condition holds against the
parent stack (or against the document root when ``v`` is the machine
root).  A fresh ``⟨l, ⟨F…F⟩, ∅⟩`` is pushed; if ``v = sol`` the node id
joins the entry's candidate set.

``δe`` — on ``endElement(a, l)``, every machine node whose top-of-stack
entry has level ``l`` pops it.  If the entry's branch match is complete
(and its value tests pass), the match is *satisfied*: the root outputs
its candidates, any other node sets its β-flag on — and uploads its
candidates to — every qualifying parent entry.  If the branch match is
incomplete, the single pop discards every pattern match the entry
participates in, without enumerating them: that pruning is what makes
TwigM polynomial, ``O((|Q| + R·B)·|Q|·|D|)``.

The stacks compactly encode an exponential space of pattern matches:
for ``//a[d]//b[e]//c`` over the paper's Figure 1 data, 2n stack entries
stand in for n² matches of ``c₁``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.machine import (
    EDGE_EQ,
    TAG_CACHE_LIMIT,
    Machine,
    MachineNode,
    build_machine,
)
from repro.core.push import LimitCountingHandler
from repro.core.results import CollectingSink, ResultSink
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.stream.events import Characters, EndElement, Event, StartElement
from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import QueryTree, compile_query


class StackEntry:
    """The paper's stack element ⟨L, B, C⟩ (+ text buffer for value tests
    and attribute-leaf bits for general boolean conditions)."""

    __slots__ = ("level", "flags", "candidates", "text_parts", "attr_bits", "stable")

    def __init__(self, level: int):
        self.level = level
        self.flags = 0  # branch match B, one bit per machine child
        self.candidates: set[int] | None = None  # candidate set C, lazy
        self.text_parts: list[str] | None = None  # string-value buffer
        self.attr_bits = 0  # attribute-leaf outcomes (condition nodes)
        # Earliest-emission bookkeeping: the entry's condition outcome is
        # settled *and* true (monotone — never cleared while live).  Not
        # snapshotted: it is a pure function of (flags, attr_bits).
        self.stable = False

    def add_candidate(self, node_id: int) -> None:
        if self.candidates is None:
            self.candidates = {node_id}
        else:
            self.candidates.add(node_id)

    def upload_candidates(self, other: "StackEntry") -> int:
        """Union ``other``'s candidates into this entry (duplicate-free).

        Returns how many ids were newly added (for buffered-candidate
        accounting).
        """
        if not other.candidates:
            return 0
        if self.candidates is None:
            self.candidates = set(other.candidates)
            return len(self.candidates)
        before = len(self.candidates)
        self.candidates |= other.candidates
        return len(self.candidates) - before

    def string_value(self) -> str:
        return "".join(self.text_parts) if self.text_parts else ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StackEntry(L={self.level}, B={self.flags:b}, C={self.candidates})"


class CandidateTracker:
    """Observer of candidate lifetimes inside TwigM.

    The engine reports, per candidate id: creation (entering a
    return-node entry), retention (upload added it to one more parent
    entry's candidate set), release (a set holding it was popped), and
    emission.  A candidate whose reference count — creations plus
    retentions minus releases — reaches zero without emission can never
    be output; :class:`repro.core.fragments.FragmentCapture` uses that to
    garbage-collect buffered XML fragments as early as possible.
    """

    def created(self, node_id: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def retained(self, node_id: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def released(self, node_ids) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def emitted(self, node_ids) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class TwigM:
    """The TwigM evaluator: feed it modified-SAX events, read solutions.

    Parameters
    ----------
    query:
        An XPath string, a compiled :class:`~repro.xpath.querytree.QueryTree`,
        or a prebuilt :class:`~repro.core.machine.Machine`.
    sink:
        Destination for confirmed solutions; defaults to a
        :class:`~repro.core.results.CollectingSink` exposed as
        :attr:`results`.
    tracker:
        Optional :class:`CandidateTracker` observing candidate lifetimes
        (used by fragment capture for buffer garbage collection).
    eager:
        Eager-emission control: ``None`` (default) emits at the return
        element's end tag whenever that is sound (no predicates above
        the return node), ``False`` forces the paper's root-close
        behaviour, ``True`` asserts soundness (raising otherwise).
    limits:
        Optional :class:`~repro.stream.recovery.ResourceLimits`; the
        machine enforces ``max_depth``, ``max_buffered_candidates`` (the
        total ids held across all stack entries) and
        ``max_total_events``, raising
        :class:`~repro.errors.ResourceLimitError` when crossed.
    emission:
        ``"default"`` follows the paper (candidates buffer until their
        predicates settle at end tags); ``"earliest"`` propagates
        predicate satisfaction eagerly and flushes a candidate at the
        first event where it is provable — same result *set*, earlier
        emission points (see docs/LATENCY.md for the contract).
    lag_probe:
        Optional :class:`repro.latency.DecisionLagProbe`.  When set, the
        machine runs the provability analysis even in default mode and
        reports each candidate's earliest-provable point to the probe,
        which measures the decision lag to actual emission.

    Use :meth:`run` for one-shot evaluation, or drive :meth:`start_element`
    / :meth:`characters` / :meth:`end_element` directly for push-style
    integration with any parser.
    """

    #: Stable engine identifier — shared by instrumented subclasses, used
    #: as the snapshot ``engine`` key and as the metrics ``engine`` label.
    machine_name = "twigm"

    def __init__(
        self,
        query: "str | QueryTree | Machine",
        sink: ResultSink | None = None,
        tracker: "CandidateTracker | None" = None,
        eager: "bool | None" = None,
        limits: ResourceLimits | None = None,
        *,
        emission: str = "default",
        lag_probe=None,
    ):
        if isinstance(query, Machine):
            self.machine = query
        else:
            if isinstance(query, str):
                query = compile_query(query)
            self.machine = build_machine(query)
        self.sink = sink if sink is not None else CollectingSink()
        self._tracker = tracker
        self._limits = limits
        self._candidate_count = 0  # ids buffered across all stack entries
        self._event_count = 0
        self._stacks: dict[int, list[StackEntry]] = {}
        for node in self.machine.iter_nodes():
            self._stacks[id(node)] = []
        self._value_stacks = [self._stacks[id(node)] for node in self.machine.value_nodes]
        # Open entries holding a text buffer; characters() is a no-op
        # while this is zero (the common case for value-free queries).
        self._open_value_entries = 0
        # Compiled dispatch: per-tag records (node, stack, parent_stack)
        # resolved once, so the per-event loops do no id()-keyed dict
        # lookups.  Keys are interned (machine construction interns
        # labels; the tokenizer interns document tags).
        self._plans: dict[str, list] = {
            tag: self._compile_plan(nodes)
            for tag, nodes in self.machine.dispatch.items()
        }
        self._wild_plan = self._compile_plan(self.machine.wildcards)
        self._root = self.machine.root
        self._return = self.machine.return_node
        # Eager emission defaults to the machine's soundness analysis;
        # ``eager=False`` forces the paper's root-close behaviour (used
        # by the buffering ablation), ``eager=True`` is rejected when
        # unsound.
        if eager is None:
            self._eager = self.machine.eager_return
        elif eager and not self.machine.eager_return:
            raise UnsupportedQueryError(
                "eager emission is unsound here: a trunk ancestor of the "
                "return node carries predicates"
            )
        else:
            self._eager = eager
        if emission not in ("default", "earliest"):
            raise ValueError(
                f"emission must be 'default' or 'earliest', got {emission!r}"
            )
        self.emission = emission
        self._earliest = emission == "earliest"
        self._lag_probe = lag_probe
        # Provability analysis runs in earliest mode, and in default mode
        # when a lag probe wants the earliest-provable points measured.
        self._detect = self._earliest or lag_probe is not None
        # One flush per event at most; only detection ever sets this.
        self._trunk_dirty = False
        # The trunk: the root → return-node chain, top-down.  Candidates
        # only ever live on trunk entries (created at the return node,
        # uploaded along its ancestor chain), so provability — and
        # flushing — walks exactly this list.
        trunk: list[MachineNode] = []
        node = self._return
        while node is not None:
            trunk.append(node)
            node = node.parent
        trunk.reverse()
        self._trunk = [(n, self._stacks[id(n)]) for n in trunk]
        self._trunk_ids = {id(n) for n in trunk}

    def _compile_plan(self, nodes) -> list:
        """Bind dispatch nodes to their runtime stacks, once."""
        return [
            (
                node,
                self._stacks[id(node)],
                self._stacks[id(node.parent)] if node.parent is not None else None,
            )
            for node in nodes
        ]

    def _miss_plan(self, tag: str) -> list:
        """Resolve (and cache) the plan for a tag outside the alphabet.

        Every unknown tag dispatches to the wildcard plan; aliasing it
        into ``_plans`` under the tag on first sight makes repeated
        unknown tags cost a single dict hit instead of a miss plus the
        fallback lookup.  The cache is bounded (:data:`TAG_CACHE_LIMIT`)
        so hostile tag churn cannot grow it without limit.
        """
        plan = self._wild_plan
        if len(self._plans) < TAG_CACHE_LIMIT:
            self._plans[tag] = plan
        return plan

    # -- introspection --------------------------------------------------

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        raise AttributeError("results are only collected by the default sink")

    def stack_of(self, node: MachineNode) -> list[StackEntry]:
        """The runtime stack of a machine node (read-only use)."""
        return self._stacks[id(node)]

    def total_stack_entries(self) -> int:
        """Live entries across all stacks — the compact encoding's size."""
        return sum(len(stack) for stack in self._stacks.values())

    def buffered_candidates(self) -> int:
        """Candidate ids currently held across all stacks (with copies)."""
        return self._candidate_count

    def reset(self) -> None:
        """Clear all runtime state; the machine itself is reusable."""
        for stack in self._stacks.values():
            stack.clear()
        self._candidate_count = 0
        self._event_count = 0
        self._open_value_entries = 0
        self._trunk_dirty = False

    # -- checkpointing ---------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable capture of all runtime stacks.

        Machine nodes are identified by their position in the
        deterministic pre-order traversal of :meth:`Machine.iter_nodes`,
        so a machine rebuilt from the same query accepts the capture.
        """
        stacks = []
        for node in self.machine.iter_nodes():
            stacks.append(
                [
                    [
                        entry.level,
                        entry.flags,
                        sorted(entry.candidates) if entry.candidates else None,
                        list(entry.text_parts) if entry.text_parts is not None else None,
                        entry.attr_bits,
                    ]
                    for entry in self._stacks[id(node)]
                ]
            )
        return {
            "stacks": stacks,
            "candidate_count": self._candidate_count,
            "event_count": self._event_count,
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture into this machine."""
        nodes = list(self.machine.iter_nodes())
        stacks = state["stacks"]
        if len(stacks) != len(nodes):
            raise CheckpointError(
                f"snapshot has {len(stacks)} machine stacks, machine has {len(nodes)}"
            )
        for node, entries in zip(nodes, stacks):
            stack = self._stacks[id(node)]
            stack.clear()  # in place: _value_stacks aliases these lists
            for level, flags, candidates, text_parts, attr_bits in entries:
                entry = StackEntry(level)
                entry.flags = flags
                entry.candidates = set(candidates) if candidates else None
                entry.text_parts = list(text_parts) if text_parts is not None else None
                entry.attr_bits = attr_bits
                stack.append(entry)
        self._candidate_count = state.get("candidate_count", 0)
        self._event_count = state.get("event_count", 0)
        self._open_value_entries = sum(
            1
            for stack in self._value_stacks
            for entry in stack
            if entry.text_parts is not None
        )
        if self._detect:
            # ``stable`` is not snapshotted — it is recomputed from the
            # captured flag words, so captures taken by any mode restore
            # into any mode.  Re-running the eager cascade also restores
            # the "stable ⇒ flags propagated" invariant for captures
            # taken without detection, and the scheduled flush catches
            # anything such a capture left unemitted.
            for node in self.machine.iter_nodes():
                for entry in self._stacks[id(node)]:
                    self._note_stable(node, entry)
            self._trunk_dirty = True

    # -- transition functions --------------------------------------------

    def start_element(self, tag: str, level: int, node_id: int, attributes=None) -> None:
        """δs of Algorithm 1."""
        if self._limits is not None:
            # The depth probe runs for every start tag, interested or
            # not, so limit enforcement is independent of the query.
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        if attributes is None:
            attributes = {}
        for node, stack, parent_stack in plan:
            condition = node.compiled_condition
            if condition is None:
                if node.attribute_tests and not node.attributes_satisfied(attributes):
                    # A failed attribute branch can never become true
                    # later; the would-be entry cannot contribute a
                    # satisfied match, so it is pruned at push time.
                    continue
            elif not condition.possible(attributes):
                # Generalised prune: with the attribute leaves bound, no
                # branch/value outcome can satisfy the condition.
                continue
            if parent_stack is None:
                if not node.edge_satisfied(level):
                    continue
            elif not self._parent_edge_exists(node, parent_stack, level):
                continue
            entry = StackEntry(level)
            if node.value_tests or (condition is not None and condition.has_value_leaves):
                entry.text_parts = []
                self._open_value_entries += 1
            if condition is not None:
                entry.attr_bits = condition.attr_bits(attributes)
            if node.is_return:
                entry.add_candidate(node_id)
                self._count_candidates(1)
                if self._tracker is not None:
                    self._tracker.created(node_id)
            stack.append(entry)
            if self._detect:
                # Entries with no pending branch/value unknowns are
                # stable at creation (e.g. predicate-free trunk nodes,
                # attribute-only conditions already decided).
                self._note_stable(node, entry)
        if self._trunk_dirty:
            self._flush_trunk()

    def _count_candidates(self, added: int) -> None:
        """Track buffered candidate ids; enforce the configured bound."""
        self._candidate_count += added
        if added > 0 and self._limits is not None:
            self._limits.check("max_buffered_candidates", self._candidate_count)

    @staticmethod
    def _parent_edge_exists(node: MachineNode, parent_stack: list[StackEntry], level: int) -> bool:
        """∃ e ∈ ξ(ρ(v)) with ζ(v)[1](l − e.level, ζ(v)[2]) — Algorithm 1, δs."""
        if not parent_stack:
            return False
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            # Levels increase bottom-to-top; scan down from the top.
            for entry in reversed(parent_stack):
                if entry.level == target:
                    return True
                if entry.level < target:
                    return False
            return False
        # '>=': the bottom-most (smallest-level) entry decides existence.
        return parent_stack[0].level <= level - node.edge_dist

    def characters(self, text: str, level: int | None = None) -> None:
        """Accumulate string-value data for value-tested machine nodes.

        Every open entry of a value-tested node is an ancestor-or-self of
        the text, so the run belongs to each entry's string-value.
        With no such entry open — always, for queries without value
        tests — the call returns immediately.  ``level`` is accepted for
        :class:`~repro.stream.events.EventHandler` parity and unused.
        """
        if not self._open_value_entries:
            return
        for stack in self._value_stacks:
            for entry in stack:
                entry.text_parts.append(text)  # type: ignore[union-attr]

    def end_element(self, tag: str, level: int) -> None:
        """δe of Algorithm 1."""
        tracker = self._tracker
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        for node, stack, parent_stack in plan:
            if not stack or stack[-1].level != level:
                continue
            entry = stack.pop()
            if entry.text_parts is not None:
                self._open_value_entries -= 1
            if entry.candidates:
                # The popped entry's buffered ids are released; uploads
                # below re-count any copies that survive in parents.
                self._candidate_count -= len(entry.candidates)
            condition = node.compiled_condition
            if condition is None:
                satisfied = entry.flags == node.complete_mask
                if satisfied and node.value_tests:
                    satisfied = all(
                        test.evaluate(entry.string_value()) for test in node.value_tests
                    )
            else:
                satisfied = condition.satisfied(
                    entry.flags,
                    entry.attr_bits,
                    entry.string_value() if condition.has_value_leaves else "",
                )
            if not satisfied:
                # Incomplete branch match: this one pop discards every
                # pattern match the entry participates in.
                if tracker is not None and entry.candidates:
                    tracker.released(entry.candidates)
                continue
            if node.is_return and self._eager:
                # No predicates above the return node: a satisfied return
                # entry is already a solution (its prefix path holds by
                # the push invariant) — emit now, skip candidate uploads.
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            if node.parent is None:
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            self._propagate(node, entry, level, parent_stack)
            if tracker is not None and entry.candidates:
                tracker.released(entry.candidates)
        if self._trunk_dirty:
            self._flush_trunk()

    def _propagate(
        self,
        node: MachineNode,
        entry: StackEntry,
        level: int,
        parent_stack: list[StackEntry],
    ) -> None:
        """Set β(node) and upload candidates on every qualifying parent entry."""
        bit = 1 << node.child_index
        detect = self._detect
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            # Stack levels are strictly increasing: at most one entry at
            # ``target``; scan from the top, where recent levels live.
            for parent_entry in reversed(parent_stack):
                if parent_entry.level == target:
                    parent_entry.flags |= bit
                    self._upload(parent_entry, entry)
                    if detect:
                        self._after_propagate(node.parent, parent_entry, entry)
                    break
                if parent_entry.level < target:
                    break
        else:
            threshold = level - node.edge_dist
            # Increasing levels: qualifying entries are a prefix.
            for parent_entry in parent_stack:
                if parent_entry.level > threshold:
                    break
                parent_entry.flags |= bit
                self._upload(parent_entry, entry)
                if detect:
                    self._after_propagate(node.parent, parent_entry, entry)

    def _upload(self, parent_entry: StackEntry, entry: StackEntry) -> None:
        """Candidate upload, reporting newly-retained ids to the tracker."""
        if self._tracker is None or not entry.candidates:
            self._count_candidates(parent_entry.upload_candidates(entry))
            return
        existing = parent_entry.candidates
        if existing is None:
            added = set(entry.candidates)
        else:
            added = entry.candidates - existing
        self._count_candidates(parent_entry.upload_candidates(entry))
        for node_id in added:
            self._tracker.retained(node_id)

    # -- earliest emission / decision-lag detection ------------------------
    #
    # Everything below only runs when ``self._detect`` is set (earliest
    # mode, or default mode with a lag probe attached); the default hot
    # path pays one boolean test per transition.

    def _emit_ids(self, candidates) -> None:
        """Emit a candidate set, reporting to the tracker.

        Shared by the pop-time paths and the earliest flush so a
        counting subclass can count emissions in one place.
        """
        self.sink.emit_all(sorted(candidates))
        tracker = self._tracker
        if tracker is not None:
            tracker.emitted(candidates)
            tracker.released(candidates)

    @staticmethod
    def _entry_stable(node: MachineNode, entry: StackEntry) -> bool:
        """Condition outcome settled-and-true with the element still open.

        Conjunctive nodes: all child flags present and no value tests
        (string values are final only at the end tag).  General boolean
        conditions delegate to the monotone three-valued check.
        """
        condition = node.compiled_condition
        if condition is None:
            return not node.value_tests and entry.flags == node.complete_mask
        return condition.stable(entry.flags, entry.attr_bits)

    def _note_stable(self, node: MachineNode, entry: StackEntry) -> None:
        """Mark a newly stable entry; propagate its β-flag eagerly.

        Sound because the set of qualifying parent entries is identical
        now and at this entry's end tag: any parent entry pushed later
        sits at a deeper level (it would be a descendant), and any
        qualifying shallower entry is an open ancestor that cannot close
        before this element does.  Stability means δe *will* find the
        entry satisfied, so the flag write is merely brought forward —
        candidate uploads still happen at the pop.
        """
        if entry.stable or not self._entry_stable(node, entry):
            return
        entry.stable = True
        if id(node) in self._trunk_ids:
            self._trunk_dirty = True
        parent = node.parent
        if parent is None:
            return
        bit = 1 << node.child_index
        parent_stack = self._stacks[id(parent)]
        level = entry.level
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for parent_entry in reversed(parent_stack):
                if parent_entry.level == target:
                    if not parent_entry.flags & bit:
                        parent_entry.flags |= bit
                        self._note_stable(parent, parent_entry)
                    break
                if parent_entry.level < target:
                    break
        else:
            threshold = level - node.edge_dist
            for parent_entry in parent_stack:
                if parent_entry.level > threshold:
                    break
                if not parent_entry.flags & bit:
                    parent_entry.flags |= bit
                    self._note_stable(parent, parent_entry)

    def _after_propagate(self, parent: MachineNode, parent_entry: StackEntry, entry: StackEntry) -> None:
        """Detection hook for δe's flag-set/upload on one parent entry."""
        if not parent_entry.stable:
            self._note_stable(parent, parent_entry)
        elif entry.candidates:
            # Candidates just uploaded into an already-provable entry
            # are provable right now — schedule a flush.
            self._trunk_dirty = True

    def _flush_trunk(self) -> None:
        """Emit (or, with only a probe, mark) every provable candidate.

        Walks the trunk top-down computing the provable entries per
        node: stable, and parent-edge-qualified against some provable
        parent entry (root entries qualified at push by construction).
        In earliest mode provable candidates are emitted and purged from
        the emitting entry; copies held by other entries (``//`` uploads
        fan out) are deduplicated by the sink, exactly as duplicate
        root-match emissions are in default mode.
        """
        self._trunk_dirty = False
        probe = self._lag_probe
        earliest = self._earliest
        parent_provable: "list[StackEntry] | None" = None  # None: document root
        for node, stack in self._trunk:
            if parent_provable is None:
                provable = [entry for entry in stack if entry.stable]
            elif not parent_provable:
                provable = []
            elif node.edge_op == EDGE_EQ:
                targets = {entry.level for entry in parent_provable}
                provable = [
                    entry
                    for entry in stack
                    if entry.stable and entry.level - node.edge_dist in targets
                ]
            else:
                floor = parent_provable[0].level + node.edge_dist
                provable = [
                    entry for entry in stack if entry.stable and entry.level >= floor
                ]
            for entry in provable:
                if not entry.candidates:
                    continue
                if probe is not None:
                    probe.mark_provable(entry.candidates)
                if earliest:
                    self._candidate_count -= len(entry.candidates)
                    self._emit_ids(entry.candidates)
                    entry.candidates = None
            if not provable:
                break  # no chain can reach deeper trunk nodes
            parent_provable = provable

    # -- event-stream driving ---------------------------------------------

    def as_handler(self):
        """Push-pipeline adapter (:mod:`repro.core.push`).

        Without resource limits the engine itself is the handler — its
        transition methods *are* the callbacks, so
        :meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into` drives
        δs/δe with zero indirection.  With limits, a counting wrapper
        preserves the pull driver's per-event accounting.
        """
        if self._limits is None:
            return self
        return LimitCountingHandler(self)

    def feed(self, events: Iterable[Event]) -> None:
        """Process a batch of modified-SAX events."""
        limits = self._limits
        for event in events:
            if limits is not None:
                self._event_count += 1
                limits.check("max_total_events", self._event_count)
            if isinstance(event, StartElement):
                self.start_element(event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, EndElement):
                self.end_element(event.tag, event.level)
            elif self._value_stacks:  # Characters
                self.characters(event.text)

    def run(self, events: Iterable[Event]) -> list[int]:
        """Evaluate over a complete event stream; return solution ids."""
        self.feed(events)
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        return []


def evaluate_twigm(query: "str | QueryTree", events: Iterable[Event]) -> list[int]:
    """One-shot TwigM evaluation: query × event stream → solution ids."""
    return TwigM(query).run(events)
