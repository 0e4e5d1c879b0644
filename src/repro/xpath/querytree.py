"""The paper's query-tree form (Definition 4.1) and AST compilation.

An XP{/,//,*,[]} query is a tree ``Q(V, Σ, η, ρ, root, ζ, sol)``:

* nodes ``V`` with a *name* η(v) — an XML tag or ``'*'``;
* a *parent edge* ζ(v) ∈ {``/``, ``//``} per non-root node;
* a distinguished *return node* ``sol`` (the darkened node in the paper's
  figures) — in surface syntax, the last step of the main path;
* *branching nodes* — nodes with more than one child, or the return node.

Extensions carried on nodes (paper footnote 2 / query Q8):

* ``attribute_tests`` — `@a` / `@a='v'` predicates, decidable at the
  element's start tag;
* ``value_tests`` — comparisons against the element's string-value,
  decidable at its end tag.

:func:`compile_query` lowers a parsed :class:`~repro.xpath.ast.LocationPath`
into this form; the machines in :mod:`repro.core` are built from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from repro.errors import UnsupportedQueryError
from repro.xpath import ast as qast
from repro.xpath.parser import parse_xpath

CHILD_EDGE = "/"
DESCENDANT_EDGE = "//"

_NUMERIC_OPS: dict[str, Callable[[float, float], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True, slots=True)
class ValueTest:
    """A comparison ``op literal`` against a string (value or attribute).

    String literals compare for (in)equality on the raw string; numeric
    literals coerce the data to a float first (XPath 1.0 number
    comparison), failing the test when the data is not numeric.
    """

    op: str
    literal: "str | float"

    def evaluate(self, data: str) -> bool:
        """Apply the test to ``data`` (an attribute value or string-value)."""
        if isinstance(self.literal, float):
            try:
                number = float(data.strip())
            except ValueError:
                return False
            return _NUMERIC_OPS[self.op](number, self.literal)
        if self.op == "=":
            return data == self.literal
        if self.op == "!=":
            return data != self.literal
        # Ordered comparison against a string literal: XPath 1.0 coerces
        # both sides to numbers.
        try:
            return _NUMERIC_OPS[self.op](float(data.strip()), float(self.literal))
        except ValueError:
            return False

    def __str__(self) -> str:
        literal = f"'{self.literal}'" if isinstance(self.literal, str) else f"{self.literal:g}"
        return f"{self.op} {literal}"


@dataclass(frozen=True, slots=True)
class AttributeTest:
    """An attribute branch: existence of ``@name``, optionally with a value test."""

    name: str
    value_test: ValueTest | None = None

    def evaluate(self, attributes) -> bool:
        """True when the attribute exists (and its value passes the test)."""
        if self.name not in attributes:
            return False
        if self.value_test is None:
            return True
        return self.value_test.evaluate(attributes[self.name])

    def __str__(self) -> str:
        if self.value_test is None:
            return f"@{self.name}"
        return f"@{self.name} {self.value_test}"


# -- general boolean predicate conditions (extension; DESIGN.md §7) ----------
#
# The paper's fragment is conjunctive: a node's predicates are an AND of
# branch/attribute/value tests, recorded as the branch-match bit array.
# This library additionally supports monotone-with-negation boolean
# combinations — ``[b or c]``, ``[not(d)]``, ``[(a or b) and not(@x)]`` —
# compiled into a :data:`Condition` tree whose leaves reference branch
# subtrees (:class:`ChildRef`), attribute tests (:class:`AttrRef`) and
# string-value tests (:class:`ValueRef`).  Purely conjunctive queries
# keep ``condition = None`` and the fast bitmask path.


@dataclass(frozen=True, slots=True, eq=False)
class ChildRef:
    """Leaf: the branch subtree rooted at ``node`` has a match."""

    node: "QueryNode"

    def __str__(self) -> str:
        return f"<{self.node.name}-subtree>"


@dataclass(frozen=True, slots=True, eq=False)
class AttrRef:
    """Leaf: an attribute test on the context element."""

    test: "AttributeTest"

    def __str__(self) -> str:
        return str(self.test)


@dataclass(frozen=True, slots=True, eq=False)
class ValueRef:
    """Leaf: a string-value test on the context element."""

    test: "ValueTest"

    def __str__(self) -> str:
        return f". {self.test}"


@dataclass(frozen=True, slots=True, eq=False)
class AndCond:
    parts: tuple["Condition", ...]

    def __str__(self) -> str:
        return "(" + " and ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True, slots=True, eq=False)
class OrCond:
    parts: tuple["Condition", ...]

    def __str__(self) -> str:
        return "(" + " or ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True, slots=True, eq=False)
class NotCond:
    part: "Condition"

    def __str__(self) -> str:
        return f"not({self.part})"


Condition = Union[ChildRef, AttrRef, ValueRef, AndCond, OrCond, NotCond]


def evaluate_condition(condition: Condition, leaf_fn) -> bool:
    """Evaluate a condition tree; ``leaf_fn`` decides each leaf."""
    if isinstance(condition, AndCond):
        return all(evaluate_condition(part, leaf_fn) for part in condition.parts)
    if isinstance(condition, OrCond):
        return any(evaluate_condition(part, leaf_fn) for part in condition.parts)
    if isinstance(condition, NotCond):
        return not evaluate_condition(condition.part, leaf_fn)
    return leaf_fn(condition)


def evaluate_condition_3v(condition: Condition, leaf_fn) -> "bool | None":
    """Three-valued evaluation (``None`` = unknown), for push-time pruning.

    ``leaf_fn`` may return ``None`` for leaves not yet decidable (branch
    matches, string values); the result is ``False`` only when no
    assignment of the unknowns can make the condition true.
    """
    if isinstance(condition, AndCond):
        result: "bool | None" = True
        for part in condition.parts:
            value = evaluate_condition_3v(part, leaf_fn)
            if value is False:
                return False
            if value is None:
                result = None
        return result
    if isinstance(condition, OrCond):
        result = False
        for part in condition.parts:
            value = evaluate_condition_3v(part, leaf_fn)
            if value is True:
                return True
            if value is None:
                result = None
        return result
    if isinstance(condition, NotCond):
        value = evaluate_condition_3v(condition.part, leaf_fn)
        return None if value is None else not value
    return leaf_fn(condition)


def condition_leaves(condition: Condition):
    """Yield every leaf of a condition tree, left to right."""
    if isinstance(condition, (AndCond, OrCond)):
        for part in condition.parts:
            yield from condition_leaves(part)
    elif isinstance(condition, NotCond):
        yield from condition_leaves(condition.part)
    else:
        yield condition


def condition_structure(condition: Condition) -> tuple:
    """Hashable structural fingerprint of a condition tree.

    :class:`ChildRef` leaves are fingerprinted by the *structure* of the
    branch subtree they reference, so two independently compiled queries
    with identical predicates produce identical fingerprints.
    """
    if isinstance(condition, AndCond):
        return ("and", tuple(condition_structure(part) for part in condition.parts))
    if isinstance(condition, OrCond):
        return ("or", tuple(condition_structure(part) for part in condition.parts))
    if isinstance(condition, NotCond):
        return ("not", condition_structure(condition.part))
    if isinstance(condition, ChildRef):
        return ("child", condition.node.structure())
    if isinstance(condition, AttrRef):
        return ("attr", condition.test)
    assert isinstance(condition, ValueRef)
    return ("value", condition.test)


@dataclass(eq=False, slots=True)
class QueryNode:
    """One node of the query tree.

    ``children`` holds *all* element children: branch (predicate) subtrees
    and, for trunk nodes, the next trunk step (always last, when present).
    """

    name: str  # an XML tag or '*'
    axis: str  # CHILD_EDGE or DESCENDANT_EDGE (meaningless on the root)
    node_id: int
    parent: "QueryNode | None" = None
    children: list["QueryNode"] = field(default_factory=list)
    attribute_tests: list[AttributeTest] = field(default_factory=list)
    value_tests: list[ValueTest] = field(default_factory=list)
    is_return: bool = False
    #: True for the trunk child edge (main path), False for branches.
    on_trunk: bool = False
    #: General boolean predicate (or/not present); None = conjunctive,
    #: in which case attribute_tests/value_tests/branch children apply.
    condition: "Condition | None" = None

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"

    @property
    def is_branching(self) -> bool:
        """The paper's definition: >1 child, or the return node."""
        return len(self.children) > 1 or self.is_return

    def iter_subtree(self) -> Iterator["QueryNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def matches_tag(self, tag: str) -> bool:
        """Name test: does this node's label admit ``tag``?"""
        return self.name == "*" or self.name == tag

    # -- structural identity (multi-query dedup) ----------------------
    #
    # Two query subtrees are equal when they test the same thing the
    # same way: node ids (arbitrary compile-time counters) and parent
    # links (redundant and cyclic) are excluded; child order is kept
    # because β-indices follow it.  This is what lets the multi-query
    # engine share one machine among identical standing queries.

    def structure(self, *abstract: "QueryNode") -> tuple:
        """Hashable structural fingerprint of this subtree.

        ``abstract`` names the nodes a query *shape* leaves open
        (:func:`repro.multiq.canon.shape_key`): a node's value-test
        constants are left out (each test keeps its op and literal kind),
        or, when it has no value test, its name.
        """
        name = self.name
        if abstract and any(node is self for node in abstract):
            value_tests = tuple(
                (test.op, type(test.literal).__name__) for test in self.value_tests
            )
            if not value_tests:
                name = None
        else:
            value_tests = tuple(self.value_tests)
        return (
            name,
            self.axis,
            self.is_return,
            self.on_trunk,
            tuple(self.attribute_tests),
            value_tests,
            None if self.condition is None else condition_structure(self.condition),
            tuple(child.structure(*abstract) for child in self.children),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryNode):
            return NotImplemented
        return self is other or self.structure() == other.structure()

    def __hash__(self) -> int:
        return hash(self.structure())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryNode({self.name!r}, id={self.node_id}, axis={self.axis!r})"


@dataclass(eq=False, slots=True)
class QueryTree:
    """A compiled query: the tree, its root, and the return node.

    Equality and hashing are *structural* (see :meth:`QueryNode.structure`):
    two independently compiled trees are equal iff they describe the same
    query, regardless of surface spelling — ``//a[b]//c`` equals
    ``//a[./b]//c`` but not ``//a[c]//b``.  The ``source`` text does not
    participate.  ``unparse → parse`` round-trips to an equal tree, which
    the test suite uses as the equality oracle.
    """

    root: QueryNode
    return_node: QueryNode
    source: str

    def structure(self) -> tuple:
        """Hashable structural fingerprint of the whole query."""
        return self.root.structure()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryTree):
            return NotImplemented
        return self.root.structure() == other.root.structure()

    def __hash__(self) -> int:
        return hash(self.root.structure())

    def iter_nodes(self) -> Iterator[QueryNode]:
        """All query nodes, pre-order."""
        return self.root.iter_subtree()

    def size(self) -> int:
        """|Q| — the number of query nodes (attribute tests excluded)."""
        return sum(1 for _ in self.iter_nodes())

    # -- fragment classification (section 2 of the paper) -------------

    def has_branches(self) -> bool:
        """Any predicate structure: branch children, attribute or value
        tests, or a general boolean condition."""
        for node in self.iter_nodes():
            if node.attribute_tests or node.value_tests or node.condition:
                return True
            if any(not child.on_trunk for child in node.children):
                return True
        return False

    def has_boolean_connectives(self) -> bool:
        """True when any node carries an or/not condition (the extension
        beyond the paper's conjunctive fragment)."""
        return any(node.condition is not None for node in self.iter_nodes())

    def has_descendant_axis(self) -> bool:
        return any(
            node.axis == DESCENDANT_EDGE for node in self.iter_nodes() if node.parent
        ) or self.root.axis == DESCENDANT_EDGE

    def has_wildcard(self) -> bool:
        return any(node.is_wildcard for node in self.iter_nodes())

    def fragment(self) -> str:
        """Smallest paper fragment containing this query.

        One of ``"XP{/,//,*}"`` (no predicates — PathM),
        ``"XP{/,[]}"`` (no // and no * — BranchM), or
        ``"XP{/,//,*,[]}"`` (everything — TwigM).
        """
        if not self.has_branches():
            return "XP{/,//,*}"
        if not self.has_descendant_axis() and not self.has_wildcard():
            return "XP{/,[]}"
        return "XP{/,//,*,[]}"

    def __str__(self) -> str:
        return self.source


def compile_query(
    query: "str | qast.LocationPath",
    namespaces: "dict[str, str] | None" = None,
) -> QueryTree:
    """Compile an XPath string or AST into a :class:`QueryTree`.

    ``namespaces`` binds query prefixes to URIs for namespace-resolved
    streams (:func:`repro.stream.namespaces.resolve_namespaces`):
    ``p:name`` tests compile to Clark names ``{uri}name``; unprefixed
    tests match no-namespace names (XPath 1.0 semantics).

    Raises :class:`~repro.errors.XPathSyntaxError` on parse errors and
    :class:`~repro.errors.UnsupportedQueryError` for constructs outside
    the supported fragment (e.g. selecting attributes as results).
    """
    if isinstance(query, str):
        source = query
        path = parse_xpath(query)
    else:
        path = query
        source = str(path)
    counter = itertools.count(1)
    builder = _TreeBuilder(counter, namespaces)
    root = builder.build_trunk(path)
    return_node = builder.return_node
    assert return_node is not None
    return QueryTree(root=root, return_node=return_node, source=source)


def _has_connectives(predicate: qast.PredicateExpr) -> bool:
    """Does this predicate's *own* boolean structure use or/not?

    Connectives nested deeper (inside a step of a predicate path) are
    handled at that step's node and do not force the general path here.
    """
    if isinstance(predicate, (qast.OrPredicate, qast.NotPredicate)):
        return True
    if isinstance(predicate, qast.AndPredicate):
        return any(_has_connectives(term) for term in predicate.terms)
    return False


def _conjuncts(conditions) -> Iterator[Condition]:
    """The leaves of a conjunction of ``conditions``, in query order."""
    for condition in conditions:
        if isinstance(condition, AndCond):
            yield from _conjuncts(condition.parts)
        else:
            yield condition


class _TreeBuilder:
    """Lowers AST paths into query-tree nodes."""

    def __init__(
        self,
        counter: Iterator[int],
        namespaces: "dict[str, str] | None" = None,
    ):
        self._counter = counter
        self._namespaces = namespaces
        self.return_node: QueryNode | None = None

    def _name(self, qname: str) -> str:
        """Resolve a query name test (namespace prefixes → Clark names).

        Without a ``namespaces`` binding, prefixed names stay opaque
        strings (the paper's behaviour, matching unresolved streams).
        """
        if self._namespaces is None or ":" not in qname:
            return qname
        from repro.stream.namespaces import translate_name

        return translate_name(qname, self._namespaces)

    def build_trunk(self, path: qast.LocationPath) -> QueryNode:
        nodes = [self._make_node(step) for step in path.steps]
        for parent, child in zip(nodes, nodes[1:]):
            child.parent = parent
            child.on_trunk = True
            parent.children.append(child)
        nodes[-1].is_return = True
        self.return_node = nodes[-1]
        # Child order only feeds the branch-match index β; the trunk child
        # sits at index 0, branch subtrees follow in query order.
        for node, step in zip(nodes, path.steps):
            self._attach_predicates(node, step)
        root = nodes[0]
        root.on_trunk = True
        return root

    def _make_node(self, step: qast.Step) -> QueryNode:
        axis = DESCENDANT_EDGE if step.axis == qast.DESCENDANT else CHILD_EDGE
        if isinstance(step.test, qast.NameTest):
            name = self._name(step.test.name)
        elif isinstance(step.test, qast.WildcardTest):
            name = "*"
        else:
            raise UnsupportedQueryError(
                f"{step.test} cannot appear on the main path; only element "
                "steps can be selected as results"
            )
        return QueryNode(name=name, axis=axis, node_id=next(self._counter))

    def _attach_predicates(self, node: QueryNode, step: qast.Step) -> None:
        """Lower ``step``'s brackets onto ``node``.

        Path leaves become branch subtrees of ``node`` either way.  With
        an or/not anywhere in the brackets, the whole list becomes one
        condition tree (an implicit AND across brackets); otherwise the
        conjunction's attribute and value leaves fold into the node's
        local tests, the paper's conjunctive fragment.
        """
        conditions = [
            self._compile_predicate(node, predicate) for predicate in step.predicates
        ]
        if any(_has_connectives(predicate) for predicate in step.predicates):
            node.condition = (
                conditions[0] if len(conditions) == 1 else AndCond(tuple(conditions))
            )
            return
        for leaf in _conjuncts(conditions):
            if isinstance(leaf, AttrRef):
                node.attribute_tests.append(leaf.test)
            elif isinstance(leaf, ValueRef):
                node.value_tests.append(leaf.test)

    def _compile_predicate(self, node: QueryNode, predicate: qast.PredicateExpr) -> Condition:
        """Lower one predicate expression into a condition tree, creating
        branch subtrees under ``node`` for its path leaves."""
        if isinstance(predicate, qast.AndPredicate):
            return AndCond(
                tuple(self._compile_predicate(node, term) for term in predicate.terms)
            )
        if isinstance(predicate, qast.OrPredicate):
            return OrCond(
                tuple(self._compile_predicate(node, term) for term in predicate.terms)
            )
        if isinstance(predicate, qast.NotPredicate):
            return NotCond(self._compile_predicate(node, predicate.term))
        if isinstance(predicate, qast.PathPredicate):
            return self._compile_branch_leaf(node, predicate.path, value_test=None)
        assert isinstance(predicate, qast.ComparisonPredicate)
        value_test = ValueTest(predicate.op, predicate.value)
        if not predicate.path.steps:
            return ValueRef(value_test)
        return self._compile_branch_leaf(node, predicate.path, value_test=value_test)

    def _compile_branch_leaf(
        self,
        node: QueryNode,
        path: qast.LocationPath,
        value_test: ValueTest | None,
    ) -> Condition:
        """A branch-path leaf: attribute-only tests stay local; element
        paths become branch subtrees referenced by a :class:`ChildRef`."""
        last_test = path.steps[-1].test
        if isinstance(last_test, qast.AttributeTest):
            element_steps = path.steps[:-1]
            attribute = AttributeTest(self._name(last_test.name), value_test)
            if not element_steps:
                return AttrRef(attribute)
            head, leaf = self._build_branch_chain(node, element_steps)
            leaf.attribute_tests.append(attribute)
            return ChildRef(head)
        head, leaf = self._build_branch_chain(node, path.steps)
        if value_test is not None:
            leaf.value_tests.append(value_test)
        return ChildRef(head)

    def _build_branch_chain(
        self, node: QueryNode, steps
    ) -> tuple[QueryNode, QueryNode]:
        """Build the chain of element nodes for a predicate path under
        ``node``; returns its head and its leaf."""
        assert steps, "branch paths have at least one step"
        head: QueryNode | None = None
        current = node
        for step in steps:
            child = self._make_node(step)
            child.parent = current
            current.children.append(child)
            self._attach_predicates(child, step)
            if head is None:
                head = child
            current = child
        assert head is not None
        return head, current
