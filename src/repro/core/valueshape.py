"""Shape TwigM: one machine for queries that differ in one constant or label.

Standing-query fleets repeat one pattern with many constants —
``//person[initial < 660]``, ``//person[initial < 151]``, … — and with
many branch labels — ``//open_auction[bidder]``,
``//open_auction[reserve]``, …  Each such query run alone is a TwigM
whose machines are identical except for one node, the *open node*: the
literal of its one value test (a *value shape*), or the label of a
branch leaf (a *label shape*).  :class:`ShapeTwigM` runs them all as
*members* of one machine (YFilter's shared predicate and tree-pattern
evaluation, Diao et al., TODS 2003):

* when an entry of the open node pops, it is turned into a **member
  bitmask** with one lookup.  A value shape coerces the entry's string
  value once, exactly as :meth:`ValueTest.evaluate
  <repro.xpath.querytree.ValueTest.evaluate>` does (:class:`ConstantIndex`:
  a bisect over the sorted constants for ``<``/``<=``/``>``/``>=``, a
  dict for ``=``, its complement for ``!=``); a label shape looks the
  end tag up in a dict from member label to member mask;
* a label shape's open node dispatches on the member labels, never on
  the representative query's own label for it: each member label's plan
  holds it where that member's own TwigM would.  When a member leaves
  mid-element, its label's open entries are no longer popped at their
  end tags; any later pop of the open node first drops entries deeper
  than the closing element (their elements have closed), so they never
  shadow a live entry and propagate nothing;
* on the chain from the open node up to the *emitting node*, an entry's
  ``attr_bits`` word holds the OR of the masks its chain child
  delivered — the members for which that entry's match holds.  Chain
  nodes are conjunctive, so the word is otherwise unused, and captures
  keep the plain TwigM format;
* the emitting pop delivers its ids to the sinks of its mask's members,
  in registration (slot) order.

The OR is Algorithm 1's flag propagation run per member at once: a
member's query is satisfied at a chain entry exactly when every other
child flag is set and some chain-child entry was satisfied for it.

**Scope** (:func:`shape_scope`): the open node is the one value-tested
node, with one test, or, with no value test anywhere, the one machine
node off the trunk, a concrete-labelled leaf without attribute test or
condition; the emitting node — the return node of an eager machine,
else the machine root — is the lowest common ancestor of the open node
and the return node; every node on the chain between them is
conjunctive.  The candidates then live only on the trunk, which meets
the chain at the emitting node alone, so one candidate set serves every
member.  The registry keeps everything else on per-query machines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.core.machine import (
    EDGE_EQ,
    Machine,
    MachineNode,
    build_machine,
)
from repro.core.results import ResultSink
from repro.core.twigm import TwigM
from repro.errors import UnsupportedQueryError
from repro.xpath.querytree import QueryTree

#: Memoised member-sink tuples per emitted mask (cleared on every
#: membership change); beyond this many masks, tuples are built per
#: emission and not kept.
MASK_CACHE_LIMIT = 4096


def shape_scope(machine: Machine) -> "tuple[MachineNode, MachineNode] | None":
    """``(open node, emitting node)`` when ``machine`` may run members.

    ``None`` unless the machine has an open node (its one value-tested
    node, with one test, or with no value test its one off-trunk node,
    a concrete-labelled leaf without attribute test or condition), the
    emitting node is an ancestor-or-self of it and the lowest common
    ancestor of it and the return node, and every node on the chain
    between them is conjunctive (see the module docstring).
    """
    if machine.value_nodes:
        if len(machine.value_nodes) != 1:
            return None
        shaped = machine.value_nodes[0]
        if len(shaped.value_tests) != 1:
            return None
    else:
        trunk = set()
        node = machine.return_node
        while node is not None:
            trunk.add(id(node))
            node = node.parent
        off = [node for node in machine.iter_nodes() if id(node) not in trunk]
        if len(off) != 1:
            return None
        shaped = off[0]
        if (shaped.children or shaped.label == "*" or shaped.attribute_tests
                or shaped.compiled_condition is not None):
            return None
    emitting = machine.return_node if machine.eager_return else machine.root
    chain = []
    node = shaped
    while node is not emitting:
        if node is None:
            return None  # the emitting node is not above the open node
        chain.append(node)
        node = node.parent
    chain.append(emitting)
    if any(node.compiled_condition is not None for node in chain):
        return None
    if not machine.eager_return and shaped is not emitting:
        # The trunk must meet the chain at the root only.
        trunk_node = machine.return_node
        while trunk_node.parent is not emitting:
            trunk_node = trunk_node.parent
        if trunk_node is chain[-2]:
            return None
    return shaped, emitting


class ConstantIndex:
    """Member bitmask of a string value under one op: one coercion, one lookup.

    ``constants[slot]`` is member ``slot``'s literal.  Numeric literals,
    and string literals under an ordered op, compare against
    ``float(data.strip())``; data that does not coerce, and NaN under an
    ordered op, select no member — what :meth:`ValueTest.evaluate
    <repro.xpath.querytree.ValueTest.evaluate>` answers member by member.
    A string literal under an ordered op that does not coerce itself, or
    coerces to NaN, never matches.
    """

    __slots__ = ("op", "numeric", "_keys", "_table", "_find", "_all")

    def __init__(self, op: str, constants: "list[str | float]"):
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self._all = (1 << len(constants)) - 1
        self.numeric = op not in ("=", "!=") or any(
            isinstance(constant, float) for constant in constants
        )
        if op in ("=", "!="):
            table: dict = {}
            for slot, constant in enumerate(constants):
                table[constant] = table.get(constant, 0) | (1 << slot)
            self._table = table
            self._keys = None
            self._find = None
            return
        pairs = []
        for slot, constant in enumerate(constants):
            try:
                value = float(constant)
            except ValueError:
                continue  # a non-numeric string literal: never true
            if value == value:  # a NaN literal ('nan') is never true either
                pairs.append((value, slot))
        pairs.sort()
        self._keys = [value for value, _slot in pairs]
        masks = [0]
        if op in ("<", "<="):
            # Member matches iff value < c (or <=): a suffix of the keys.
            for _value, slot in reversed(pairs):
                masks.append(masks[-1] | (1 << slot))
            masks.reverse()
            self._find = bisect_right if op == "<" else bisect_left
        else:
            # Member matches iff value > c (or >=): a prefix of the keys.
            for _value, slot in pairs:
                masks.append(masks[-1] | (1 << slot))
            self._find = bisect_left if op == ">" else bisect_right
        self._table = masks

    def mask(self, data: str) -> int:
        """The members whose test ``data`` passes, as a bitmask."""
        if self.numeric:
            try:
                value = float(data.strip())
            except ValueError:
                return 0
            find = self._find
            if find is not None:
                if value != value:
                    return 0  # NaN: every ordered comparison is false
                return self._table[find(self._keys, value)]
        else:
            value = data
        hit = self._table.get(value, 0)
        return hit if self.op == "=" else self._all & ~hit


class ShapeTwigM(TwigM):
    """TwigM over one query shape whose members differ in one constant
    or one label.

    Built from a representative query (any member's); members are added
    with :meth:`add_member` while no event has been delivered, each with
    its constant (a value shape) or label (a label shape, :attr:`labels`)
    and its own result sink, and removed at any time with
    :meth:`remove_member`.  ``sink`` receives only epoch ends (a
    :class:`~repro.multiq.registry.MultiplexSink` over the members'
    sinks); solutions go straight to the member sinks.  Raises
    :class:`~repro.errors.UnsupportedQueryError` outside
    :func:`shape_scope`.  Runs in default emission mode only, without
    limits, tracker or lag probe.
    """

    def __init__(self, query: "QueryTree | Machine", sink: ResultSink):
        machine = query if isinstance(query, Machine) else build_machine(query)
        scope = shape_scope(machine)
        if scope is None:
            raise UnsupportedQueryError(
                "shape sharing needs one value test or one branch leaf whose "
                "chain to the emitting node is conjunctive"
            )
        super().__init__(machine, sink)
        self._open, self._emitting = scope
        #: True when the members differ in the open node's label.
        self.labels = not self._open.value_tests
        chain = [self._emitting]
        node = self._open
        while node is not self._emitting:
            chain.append(node)
            node = node.parent
        self._chain = frozenset(chain)  # machine nodes hash by identity
        self._chain_stacks = [self._stacks[id(node)] for node in chain]
        self._nodes = list(machine.iter_nodes())  # pre-order, as dispatch lists are
        #: The concrete labels of the nodes the shape keeps.
        self._fixed = frozenset(
            node.label for node in self._nodes
            if node.label != "*" and not (self.labels and node is self._open)
        )
        self._keys: list = []
        self._sinks: list[ResultSink] = []
        self._index: "ConstantIndex | dict[str, int]" = {}
        self._mask_sinks: dict[int, tuple] = {}
        if self.labels:
            # The representative's own label does not dispatch the open node.
            self._replan([self._open.label])
        self._reindex()

    # -- members ----------------------------------------------------------

    @property
    def keys(self) -> list:
        """Member constants (or labels) in slot order."""
        return list(self._keys)

    def alphabet(self) -> frozenset[str]:
        """The concrete tags the machine dispatches on: a label shape's
        open node counts with its members' labels, not its own."""
        return self._fixed.union(self._index) if self.labels else self._fixed

    def add_member(self, key: "str | float", sink: ResultSink) -> None:
        """Append a member; only while no chain entry is live."""
        if any(self._chain_stacks):
            raise RuntimeError("members join a shape machine only while cold")
        self._keys.append(key)
        self._sinks.append(sink)
        self._reindex()

    def remove_member(self, sink: ResultSink) -> None:
        """Drop the member emitting into ``sink``; later slots move down
        one, and every live chain entry's mask with them."""
        slot = next(i for i, s in enumerate(self._sinks) if s is sink)
        del self._keys[slot]
        del self._sinks[slot]
        low = (1 << slot) - 1
        for stack in self._chain_stacks:
            for entry in stack:
                members = entry.attr_bits
                entry.attr_bits = (members & low) | ((members >> (slot + 1)) << slot)
        self._reindex()

    def _reindex(self) -> None:
        self._mask_sinks = {}
        if not self.labels:
            self._index = ConstantIndex(self._open.value_tests[0].op, self._keys)
            return
        index: dict[str, int] = {}
        for slot, label in enumerate(self._keys):
            index[label] = index.get(label, 0) | (1 << slot)
        changed = self._index.keys() ^ index.keys()
        self._index = index
        self._replan(changed)

    def _replan(self, tags) -> None:
        """Rebuild the plans of ``tags``: the open node joins the plan of
        each member label where that member's own TwigM would place it
        (pre-order); a tag no node dispatches on falls to the wildcard
        plan."""
        shaped, index = self._open, self._index
        for tag in tags:
            nodes = [node for node in self._nodes
                     if (node is shaped and tag in index)
                     or (node is not shaped and node.label == tag)]
            if nodes:
                self._plans[tag] = self._compile_plan(nodes + self.machine.wildcards)
            else:
                self._plans.pop(tag, None)

    def _sinks_of(self, mask: int) -> tuple:
        sinks = self._mask_sinks.get(mask)
        if sinks is None:
            sinks = tuple(
                sink for slot, sink in enumerate(self._sinks) if mask >> slot & 1
            )
            if len(self._mask_sinks) < MASK_CACHE_LIMIT:
                self._mask_sinks[mask] = sinks
        return sinks

    # -- transition functions --------------------------------------------

    def end_element(self, tag: str, level: int) -> None:
        """δe of Algorithm 1, with member masks on the open node's chain."""
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        epoch_over = False
        chain = self._chain
        shaped = self._open
        for node, stack, parent_stack in plan:
            if not stack:
                continue
            if stack[-1].level != level:
                # Only the open node's stack can hold deeper entries.
                if stack[-1].level < level or not self._drop_closed(stack, level):
                    continue
            entry = stack.pop()
            self._live -= 1
            if parent_stack is None:
                epoch_over = not stack
            if entry.text_parts is not None:
                self._open_value_entries -= 1
            if entry.candidates:
                self._candidate_count -= len(entry.candidates)
            if node not in chain:
                # Off the chain, TwigM's own test (no value test there); a
                # root off the chain sits above an eager return node and
                # holds no candidate.
                if parent_stack is None:
                    continue
                condition = node.compiled_condition
                if (entry.flags == node.complete_mask if condition is None
                        else condition.satisfied(entry.flags, entry.attr_bits, "")):
                    self._propagate(node, entry, level, parent_stack)
                continue
            if entry.flags != node.complete_mask:
                continue
            if node is shaped:
                if self.labels:
                    members = self._index.get(tag, 0)
                else:
                    members = self._index.mask(entry.string_value())
            else:
                members = entry.attr_bits
            if not members:
                continue
            if node is self._emitting:
                if entry.candidates:
                    self._emit_members(members, entry.candidates)
                continue
            self._propagate_members(node, members, level, parent_stack)
        if epoch_over and not self._eager:
            self.sink.end_epoch()

    def _drop_closed(self, stack: list, level: int) -> bool:
        """Drop the open node's entries deeper than ``level``: elements
        that closed while their label was not dispatched (their member
        left, see the module docstring).  True when the top entry is then
        ``level``'s."""
        while stack and stack[-1].level > level:
            stack.pop()
            self._live -= 1
        return bool(stack) and stack[-1].level == level

    def _propagate_members(
        self, node: MachineNode, members: int, level: int, parent_stack: list
    ) -> None:
        """Set β(node) and OR ``members`` into every qualifying parent entry.

        Chain entries below the emitting node hold no candidates (the
        trunk meets the chain at the emitting node only).
        """
        bit = 1 << node.child_index
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for parent_entry in reversed(parent_stack):
                if parent_entry.level == target:
                    parent_entry.flags |= bit
                    parent_entry.attr_bits |= members
                    break
                if parent_entry.level < target:
                    break
        else:
            threshold = level - node.edge_dist
            for parent_entry in parent_stack:
                if parent_entry.level > threshold:
                    break
                parent_entry.flags |= bit
                parent_entry.attr_bits |= members

    def _emit_members(self, members: int, candidates) -> None:
        """Deliver an emitting pop's ids to each member of ``members``.

        An eager emitting entry holds only its own id (new: ``emit``);
        a root entry releases a candidate set (``emit_all``), exactly as
        each member's own TwigM would.
        """
        ordered = sorted(candidates)
        if self._eager:
            for sink in self._sinks_of(members):
                for node_id in ordered:
                    sink.emit(node_id)
        else:
            for sink in self._sinks_of(members):
                sink.emit_all(ordered)
