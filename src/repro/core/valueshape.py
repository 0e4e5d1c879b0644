"""Shape TwigM: one machine for queries that differ in one constant or in labels.

Standing-query fleets repeat one pattern with many constants —
``//person[initial < 660]``, ``//person[initial < 151]``, … — and with
many labels — ``//open_auction[bidder]``, ``//open_auction[reserve]``,
``//open_auction[seller]//date``, ``//open_auction[bidder]/current``, …
Each such query run alone is a TwigM whose machines are identical except
for one node, the *open node*: the literal of its one value test (a
*value shape*), or the label of a branch leaf (a *label shape*) — and,
in a label shape whose return node is a plain leaf child of the root,
the return node's label too (the *open return node*).
:class:`ShapeTwigM` runs them all as *members* of one machine (YFilter's
shared predicate and tree-pattern evaluation, Diao et al., TODS 2003):

* when an entry of the open node pops, it is turned into a **member
  bitmask** with one lookup.  A value shape coerces the entry's string
  value once, exactly as :meth:`ValueTest.evaluate
  <repro.xpath.querytree.ValueTest.evaluate>` does (:class:`ConstantIndex`:
  a bisect over the sorted constants for ``<``/``<=``/``>``/``>=``, a
  dict for ``=``, its complement for ``!=``); a label shape looks the
  end tag up in a dict from member label to member mask;
* a label shape's open node (and open return node) dispatches on the
  member labels, never on the representative query's own label for it:
  each member label's plan holds it where that member's own TwigM
  would.  When a member leaves mid-element, its label's open entries
  are no longer popped at their end tags; any later pop of the node
  first drops entries deeper than the closing element (their elements
  have closed), so they never shadow a live entry and propagate nothing;
* with an open return node, a root entry keeps its candidates per return
  label (a dict from label to id set): a return entry's pop adds its id
  under the end tag's label, and the root's pop gives each satisfied
  member the sorted ids of its own return label — the ids, in the
  order, of that member's own TwigM;
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
member.  In a label shape, the return node is open too when it is a
leaf child of the emitting root over a ``/`` or ``//`` edge, with a
concrete label and no attribute test or condition (``//X[Y]//Z``); the
root's candidate sets are then kept per return label.  The registry
keeps everything else on per-query machines.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.checkpoint import IDS, LABELS, NAT, ListOf, MapOf, Nullable, OneOf, Tuple
from repro.core.machine import (
    EDGE_EQ,
    Machine,
    MachineNode,
    build_machine,
)
from repro.core.results import ResultSink
from repro.core.twigm import ENTRY, TwigM
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.xpath.querytree import QueryTree

#: Memoised member-sink tuples per emitted mask (cleared on every
#: membership change); beyond this many masks, tuples are built per
#: emission and not kept.
MASK_CACHE_LIMIT = 4096


def shape_scope(
    machine: Machine,
) -> "tuple[MachineNode, MachineNode, MachineNode | None] | None":
    """``(open node, emitting node, open return node)`` when ``machine``
    may run members.

    ``None`` unless the machine has an open node (its one value-tested
    node, with one test, or with no value test its one off-trunk node,
    a concrete-labelled leaf without attribute test or condition), the
    emitting node is an ancestor-or-self of it and the lowest common
    ancestor of it and the return node, and every node on the chain
    between them is conjunctive (see the module docstring).  The open
    return node is the return node of a label shape when it is a
    concrete-labelled leaf child of the emitting node over a ``/`` or
    ``//`` edge, with no attribute test or condition, and the emitting
    node is the query's root step; else ``None``.  It is open exactly
    when :func:`~repro.multiq.canon.shape_key` leaves its label out.
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
    tail = machine.return_node
    if (machine.value_nodes or tail.parent is not emitting or tail.edge_dist != 1
            or emitting.edge_dist != 1  # a root '*' step folded into the edge
            or tail.children or tail.label == "*" or tail.attribute_tests
            or tail.compiled_condition is not None):
        tail = None
    return shaped, emitting, tail


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


#: A root-stack entry of a shape with an open return node: its
#: candidates map return labels to ids (a plain list in captures from the
#: release that kept the return label in the shape key); empty ones are
#: captured as null.
TAIL_ENTRY = Tuple(NAT, NAT, Nullable(OneOf(ListOf(NAT, least=1), MapOf(IDS, least=1))),
                   Nullable(LABELS), NAT)


class ShapeTwigM(TwigM):
    """TwigM over one query shape whose members differ in one constant
    or in labels.

    Built from a representative query (any member's); members are added
    with :meth:`add_member` while no event has been delivered, each with
    its constant (a value shape), label (a label shape, :attr:`labels`)
    or ``(branch label, return label)`` pair (a label shape with an open
    return node, :attr:`tails`) and its own result sink, and removed at
    any time with :meth:`remove_member`.  ``sink`` receives only epoch
    ends (a :class:`~repro.multiq.registry.MultiplexSink` over the
    members' sinks); solutions go straight to the member sinks.  Raises
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
        self._open, self._emitting, self._tail = scope
        #: True when the members differ in the open node's label.
        self.labels = not self._open.value_tests
        #: True when they also differ in the return node's label.
        self.tails = self._tail is not None
        self._root_entry = TAIL_ENTRY if self.tails else ENTRY
        chain = [self._emitting]
        node = self._open
        while node is not self._emitting:
            chain.append(node)
            node = node.parent
        self._chain = frozenset(chain)  # machine nodes hash by identity
        self._chain_stacks = [self._stacks[id(node)] for node in chain]
        self._nodes = list(machine.iter_nodes())  # pre-order, as dispatch lists are
        #: The nodes whose labels come from the members.
        self._shaped = tuple(
            node for node in (self._open, self._tail) if node is not None
        ) if self.labels else ()
        #: The concrete labels of the nodes the shape keeps.
        self._fixed = frozenset(
            node.label for node in self._nodes
            if node.label != "*" and node not in self._shaped
        )
        self._keys: list = []
        self._sinks: list[ResultSink] = []
        self._index: "ConstantIndex | dict[str, int]" = {}
        #: Return label -> member mask (an open return node only).
        self._returns: dict[str, int] = {}
        self._mask_sinks: dict[int, tuple] = {}
        if self.labels:
            # The representative's own labels do not dispatch the open nodes.
            self._replan([node.label for node in self._shaped])
        self._reindex()

    # -- members ----------------------------------------------------------

    @property
    def keys(self) -> list:
        """Member constants, labels or label pairs, in slot order."""
        return list(self._keys)

    def alphabet(self) -> frozenset[str]:
        """The concrete tags the machine dispatches on: a label shape's
        open nodes count with their members' labels, not their own."""
        if not self.labels:
            return self._fixed
        return self._fixed.union(self._index, self._returns)

    def add_member(self, key: "str | float | tuple[str, str]", sink: ResultSink) -> None:
        """Append a member; only while no chain or return entry is live."""
        if any(self._chain_stacks) or (self.tails and self.stack_of(self._tail)):
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
        returns: dict[str, int] = {}
        for slot, key in enumerate(self._keys):
            if self.tails:
                key, tail = key
                returns[tail] = returns.get(tail, 0) | (1 << slot)
            index[key] = index.get(key, 0) | (1 << slot)
        changed = (self._index.keys() ^ index.keys()) | (self._returns.keys() ^ returns.keys())
        self._index = index
        self._returns = returns
        self._replan(changed)

    def _replan(self, tags) -> None:
        """Rebuild the plans of ``tags``: each open node joins the plan of
        each of its member labels where that member's own TwigM would
        place it (pre-order); a tag no node dispatches on falls to the
        wildcard plan."""
        shaped, tail = self._open, self._tail
        index, returns = self._index, self._returns
        for tag in tags:
            nodes = [node for node in self._nodes
                     if (tag in index if node is shaped
                         else tag in returns if node is tail
                         else node.label == tag)]
            if nodes:
                self._plans[tag] = self._compile_plan(nodes + self.machine.wildcards)
            else:
                self._plans.pop(tag, None)

    def _sinks_of(self, mask: int) -> tuple:
        """The sinks of ``mask``'s members in slot order; with an open
        return node, ``(return label, sink)`` pairs."""
        sinks = self._mask_sinks.get(mask)
        if sinks is None:
            sinks = tuple(
                (key[1], sink) if self.tails else sink
                for slot, (key, sink) in enumerate(zip(self._keys, self._sinks))
                if mask >> slot & 1
            )
            if len(self._mask_sinks) < MASK_CACHE_LIMIT:
                self._mask_sinks[mask] = sinks
        return sinks

    # -- checkpointing ---------------------------------------------------

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture (with an open return
        node, a root entry's candidates map return labels to ids).  A
        root entry's plain candidate list (a capture from the release that
        kept the return label in the shape key) belongs to the members'
        one return label.
        """
        super().restore_state(state)
        for entry in self.root_stack if self.tails else ():
            if type(entry.candidates) is set:
                if len(self._returns) != 1:
                    raise CheckpointError("a shape capture's candidate list needs members "
                                          "with one return label")
                entry.candidates = {next(iter(self._returns)): entry.candidates}

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
        tail = self._tail
        emitting = self._emitting
        for node, stack, parent_stack in plan:
            if not stack:
                continue
            if stack[-1].level != level:
                # Only the open nodes' stacks can hold deeper entries.
                if stack[-1].level < level or not self._drop_closed(stack, level):
                    continue
            entry = stack.pop()
            self._live -= 1
            if parent_stack is None:
                epoch_over = not stack
            if entry.text_parts is not None:
                self._open_value_entries -= 1
            candidates = entry.candidates
            if node is tail:
                # A leaf: satisfied; its one id joins the root entries.
                self._upload_tail(tag, candidates, level, parent_stack)
                continue
            if candidates:
                self._candidate_count -= (
                    sum(map(len, candidates.values())) if tail is not None
                    and node is emitting else len(candidates)
                )
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
            if node is emitting:
                if candidates:
                    self._emit_members(members, candidates)
                continue
            self._propagate_members(node, members, level, parent_stack)
        if epoch_over:
            if self._live:
                self._drop_stale()
            if not self._eager:
                self.sink.end_epoch()

    def _drop_closed(self, stack: list, level: int) -> bool:
        """Drop an open node's entries deeper than ``level``: elements
        that closed while their label was not dispatched (their member
        left, see the module docstring).  True when the top entry is then
        ``level``'s."""
        while stack and stack[-1].level > level:
            entry = stack.pop()
            self._live -= 1
            if entry.candidates:
                self._candidate_count -= len(entry.candidates)
        return bool(stack) and stack[-1].level == level

    def _drop_stale(self) -> None:
        """Drop what is left on the open nodes' stacks once the root stack
        empties: entries nest, so these are departed members' entries
        that :meth:`_drop_closed` found below a live one."""
        for node in self._shaped:
            stack = self._stacks[id(node)]
            for entry in stack:
                if entry.candidates:
                    self._candidate_count -= len(entry.candidates)
            self._live -= len(stack)
            stack.clear()

    def _upload_tail(self, tag: str, candidates: set, level: int,
                     parent_stack: list) -> None:
        """Set β(return node) on every qualifying root entry and add the
        popped return entry's id to its ``tag`` candidates.

        The root entries open at this end tag are the element's
        ancestors' and, for a return label the root admits, the
        element's own (still open when the root is a wildcard, whose
        plan slot comes last), which never qualifies.  Over ``//`` every
        ancestor's qualifies, over ``/`` the parent's.  The id is new to
        each of them (an element pushes one return entry).  A return
        entry popped for an element that pushed none (a departed
        member's, see :meth:`_drop_closed`) finds no qualifying entry:
        the element would have pushed against it.
        """
        if parent_stack and parent_stack[-1].level >= level:
            parent_stack = parent_stack[:-1]
        if self._tail.edge_op != EDGE_EQ:
            qualifying = parent_stack
        elif parent_stack and parent_stack[-1].level == level - 1:
            qualifying = parent_stack[-1:]
        else:
            qualifying = ()
        bit = 1 << self._tail.child_index
        for parent_entry in qualifying:
            parent_entry.flags |= bit
            held = parent_entry.candidates
            if held is None:
                parent_entry.candidates = {tag: set(candidates)}
            elif tag in held:
                held[tag] |= candidates
            else:
                held[tag] = set(candidates)
        self._candidate_count += len(candidates) * (len(qualifying) - 1)

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
        each member's own TwigM would: with an open return node, the
        sorted ids of the member's return label, if it holds any.
        """
        if self.tails:
            ordered: dict[str, list[int]] = {}
            for label, sink in self._sinks_of(members):
                ids = ordered.get(label)
                if ids is None:
                    held = candidates.get(label)
                    ids = ordered[label] = sorted(held) if held else []
                if ids:
                    sink.emit_all(ids)
            return
        ordered = sorted(candidates)
        if self._eager:
            for sink in self._sinks_of(members):
                for node_id in ordered:
                    sink.emit(node_id)
        else:
            for sink in self._sinks_of(members):
                sink.emit_all(ordered)
