"""TwigM machine construction (section 4.2 of the paper).

A machine ``M`` built for a query ``Q`` structurally resembles ``Q``:

* one :class:`MachineNode` per query node whose name is a tag, plus one
  per ``'*'`` query node that is *branching or a leaf*;
* **interior ``'*'`` nodes get no machine node** — a chain of ``c``
  non-branching wildcards between two materialised nodes is captured by
  the child's parent-edge label ``(op, c + 1)``, where ``op`` is ``>=``
  when any edge in the chain is ``//`` and ``=`` otherwise;
* the *parent edge function* ζ: an XML node at level ``l`` may extend a
  parent-stack entry at level ``l'`` iff ``op(l − l', dist)`` holds;
* the *child identity function* β is the child's position in its parent's
  ``children`` list — the index of its flag in the branch-match array.

The classes here are the *static* machine description; runtime state
(stacks, single-slot states) lives with the evaluators in
:mod:`repro.core.twigm` / :mod:`repro.core.pathm` / :mod:`repro.core.branchm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern as _intern
from typing import Iterator

from repro.xpath.querytree import (
    DESCENDANT_EDGE,
    AttributeTest,
    AttrRef,
    ChildRef,
    Condition,
    QueryNode,
    QueryTree,
    ValueRef,
    ValueTest,
    condition_leaves,
    evaluate_condition,
    evaluate_condition_3v,
)

#: Edge operators of ζ: exact level difference or at-least.
EDGE_EQ = "="
EDGE_GE = ">="

#: Ceiling on dispatch-plan entries cached for tags outside the query
#: alphabet.  Engines alias the wildcard plan under each miss tag so
#: repeated unknown tags cost one dict hit; the cap keeps adversarial
#: tag churn from growing the table without bound (mirrors the router's
#: cache limit).
TAG_CACHE_LIMIT = 4096


class CompiledCondition:
    """A machine node's general boolean predicate, bound to its entries.

    Leaves resolve against per-entry runtime state:

    * :class:`ChildRef`  → a bit of the entry's branch-match flags;
    * :class:`AttrRef`   → a bit of the entry's ``attr_bits`` word,
      computed once from the start tag's attributes;
    * :class:`ValueRef`  → the element's string value, final at the end
      tag.

    ``possible()`` is the push-time prune: three-valued evaluation with
    only the attribute leaves bound — entries that can never satisfy the
    condition are not created (the generalisation of the conjunctive
    failed-attribute prune).
    """

    __slots__ = ("condition", "_child_bits", "_attr_leaves", "_attr_index", "value_leaves")

    def __init__(self, condition: Condition, child_bits: dict[int, int]):
        self.condition = condition
        self._child_bits = child_bits  # id(ChildRef.node) -> flag bit
        self._attr_leaves: list[AttrRef] = []
        self.value_leaves: list[ValueTest] = []
        for leaf in condition_leaves(condition):
            if isinstance(leaf, AttrRef):
                self._attr_leaves.append(leaf)
            elif isinstance(leaf, ValueRef):
                self.value_leaves.append(leaf.test)
        self._attr_index = {
            id(leaf): index for index, leaf in enumerate(self._attr_leaves)
        }

    @property
    def has_value_leaves(self) -> bool:
        return bool(self.value_leaves)

    def possible(self, attributes) -> bool:
        """Could any future branch/value outcome satisfy the condition?"""

        def leaf(ref) -> "bool | None":
            if isinstance(ref, AttrRef):
                return ref.test.evaluate(attributes)
            return None  # branch matches and string values: unknown yet

        return evaluate_condition_3v(self.condition, leaf) is not False

    def attr_bits(self, attributes) -> int:
        """Pack the attribute-leaf outcomes for this start tag."""
        bits = 0
        for index, leaf in enumerate(self._attr_leaves):
            if leaf.test.evaluate(attributes):
                bits |= 1 << index
        return bits

    def satisfied(self, flags: int, attr_bits: int, string_value: str) -> bool:
        """Final evaluation at the element's end tag."""

        def leaf(ref) -> bool:
            if isinstance(ref, ChildRef):
                return bool(flags & (1 << self._child_bits[id(ref.node)]))
            if isinstance(ref, AttrRef):
                return bool(attr_bits & (1 << self._attr_index[id(ref)]))
            return ref.test.evaluate(string_value)

        return evaluate_condition(self.condition, leaf)

    def stable(self, flags: int, attr_bits: int) -> bool:
        """Is the condition *provably true already*, mid-element?

        Three-valued evaluation where a set branch bit is ``True``, an
        unset one unknown (a match may still arrive), attribute leaves
        are final, and string values unknown until the end tag.  A
        ``True`` verdict is permanent: branch bits only ever turn on,
        and Kleene evaluation keeps a true formula true under any
        completion of its unknowns — this is what makes earliest
        emission sound (:mod:`repro.latency`).
        """

        def leaf(ref) -> "bool | None":
            if isinstance(ref, ChildRef):
                if flags & (1 << self._child_bits[id(ref.node)]):
                    return True
                return None  # a branch match may still arrive
            if isinstance(ref, AttrRef):
                return bool(attr_bits & (1 << self._attr_index[id(ref)]))
            return None  # string values are final only at the end tag

        return evaluate_condition_3v(self.condition, leaf) is True


@dataclass(eq=False, slots=True)
class MachineNode:
    """One machine node: label, parent edge ζ, children, local tests."""

    label: str  # a tag or '*'
    edge_op: str  # EDGE_EQ or EDGE_GE
    edge_dist: int  # the positive level difference of ζ
    parent: "MachineNode | None" = None
    children: list["MachineNode"] = field(default_factory=list)
    attribute_tests: list[AttributeTest] = field(default_factory=list)
    value_tests: list[ValueTest] = field(default_factory=list)
    is_return: bool = False
    #: β(self): index of this node's flag in the parent's branch match.
    child_index: int = -1
    #: Bitmask with one bit per child; an entry is satisfied when its
    #: flag word equals this mask (and the value tests pass).
    complete_mask: int = 0
    #: General boolean predicate (or/not present); None = conjunctive
    #: fast path via complete_mask / attribute_tests / value_tests.
    compiled_condition: "CompiledCondition | None" = None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def edge_satisfied(self, level_difference: int) -> bool:
        """Apply ζ to a level difference."""
        if self.edge_op == EDGE_EQ:
            return level_difference == self.edge_dist
        return level_difference >= self.edge_dist

    def attributes_satisfied(self, attributes) -> bool:
        """Evaluate every attribute branch against a start tag's attributes."""
        return all(test.evaluate(attributes) for test in self.attribute_tests)

    def iter_subtree(self) -> Iterator["MachineNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MachineNode({self.label!r}, edge=({self.edge_op},{self.edge_dist}),"
            f" children={len(self.children)})"
        )


@dataclass(eq=False, slots=True)
class Machine:
    """The static machine: root, return node, and a label dispatch index."""

    root: MachineNode
    return_node: MachineNode
    #: Machine nodes labelled with each concrete tag.
    by_label: dict[str, list[MachineNode]]
    #: Machine nodes labelled '*': consulted for every tag.
    wildcards: list[MachineNode]
    #: Nodes carrying value tests (need string-value accumulation).
    value_nodes: list[MachineNode]
    query: QueryTree
    #: Precomputed per-tag dispatch lists (named nodes + wildcards).
    dispatch: dict[str, list[MachineNode]] = field(default_factory=dict)
    #: True when no trunk ancestor of the return node carries predicates:
    #: a satisfied return entry is then already a solution (its prefix
    #: path holds by the push invariant), so TwigM can emit at the return
    #: element's end tag instead of buffering candidates to the root.
    eager_return: bool = False

    def nodes_for_tag(self, tag: str) -> list[MachineNode]:
        """All machine nodes a start/end event for ``tag`` is sent to."""
        return self.dispatch.get(tag, self.wildcards)

    def iter_nodes(self) -> Iterator[MachineNode]:
        return self.root.iter_subtree()

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())


def _foldable(qnode: QueryNode) -> bool:
    """Interior '*' nodes disappear into the parent-edge distance."""
    return (
        qnode.is_wildcard
        and len(qnode.children) == 1
        and not qnode.is_return
        and not qnode.attribute_tests
        and not qnode.value_tests
        and qnode.condition is None
    )


def build_machine(query: QueryTree) -> Machine:
    """Construct the TwigM machine for a compiled query tree."""
    return_holder: list[MachineNode] = []

    def materialise(
        qnode: QueryNode,
        parent: MachineNode | None,
        extra_dist: int,
        any_descendant: bool,
    ) -> MachineNode:
        descendant = any_descendant or qnode.axis == DESCENDANT_EDGE
        if _foldable(qnode):
            return materialise(qnode.children[0], parent, extra_dist + 1, descendant)
        node = MachineNode(
            label=qnode.name,
            edge_op=EDGE_GE if descendant else EDGE_EQ,
            edge_dist=extra_dist + 1,
            parent=parent,
            attribute_tests=list(qnode.attribute_tests),
            value_tests=list(qnode.value_tests),
            is_return=qnode.is_return,
        )
        if parent is not None:
            node.child_index = len(parent.children)
            parent.children.append(node)
        else:
            roots.append(node)
        if qnode.is_return:
            return_holder.append(node)
        # Map each query child (branch heads and the trunk child) to the
        # bit of its materialised machine node, for condition leaves.
        child_bits: dict[int, int] = {}
        for child in qnode.children:
            machine_child = materialise(child, node, 0, False)
            child_bits[id(child)] = machine_child.child_index
        if qnode.condition is not None:
            node.compiled_condition = CompiledCondition(qnode.condition, child_bits)
        return node

    roots: list[MachineNode] = []
    materialise(query.root, None, 0, False)
    assert len(roots) == 1, "query trees have exactly one root"
    root = roots[0]
    assert return_holder, "every query has a return node"
    for node in root.iter_subtree():
        node.complete_mask = (1 << len(node.children)) - 1
    by_label: dict[str, list[MachineNode]] = {}
    wildcards: list[MachineNode] = []
    value_nodes: list[MachineNode] = []
    for node in root.iter_subtree():
        if node.label == "*":
            wildcards.append(node)
        else:
            # Interned keys: the tokenizer interns document tags, so the
            # per-event dispatch lookup compares pointers, not characters.
            node.label = _intern(node.label)
            by_label.setdefault(node.label, []).append(node)
        if node.value_tests or (
            node.compiled_condition is not None
            and node.compiled_condition.has_value_leaves
        ):
            value_nodes.append(node)
    dispatch = {tag: named + wildcards for tag, named in by_label.items()}
    return Machine(
        root=root,
        return_node=return_holder[0],
        by_label=by_label,
        wildcards=wildcards,
        value_nodes=value_nodes,
        query=query,
        dispatch=dispatch,
        eager_return=_ancestors_predicate_free(return_holder[0]),
    )


def _ancestors_predicate_free(return_node: MachineNode) -> bool:
    """No predicates above the return node: eager emission is sound."""
    node = return_node.parent
    while node is not None:
        if node.attribute_tests or node.value_tests:
            return False
        if node.compiled_condition is not None:
            return False
        if len(node.children) > 1:  # branch children besides the trunk
            return False
        node = node.parent
    return True
