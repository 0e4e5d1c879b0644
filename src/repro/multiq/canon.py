"""Query canonicalization and dedup keys (layer 1 of the dispatch engine).

Large standing-query sets repeat themselves: monitoring fleets template
their queries, users copy-paste, and surface spelling varies
(``//a[./b]`` vs ``//a[b]``).  The multi-query engine therefore keys its
shared machines on the *structure* of the compiled
:class:`~repro.xpath.querytree.QueryTree` — the structural
``__eq__``/``__hash__`` of the query-tree types — not on query text, so
every distinct spelling of one query shares one machine.

Two queries may only share a machine when they would also share runtime
behaviour, which additionally requires identical
:class:`~repro.stream.recovery.ResourceLimits` (limits are enforced
inside the machine); :func:`dedup_key` folds both into one hashable key.

Queries that differ only in one node share a *shape*, in two kinds:

* a *value shape* leaves out the constant of the one value test:
  ``//person[initial < 660]`` and ``//person[initial < 151]`` are one
  structure evaluated against two constants;
* a *label shape* leaves out the label of the one branch leaf:
  ``//open_auction[bidder]`` and ``//open_auction[reserve]`` are one
  structure evaluated against two labels.  When the return node is a
  plain leaf child of the root (``//X[Y]//Z``, ``//X[Y]/Z``), its label
  is left out too: ``//open_auction[bidder]//date`` and
  ``//open_auction[seller]/current`` are one structure evaluated against
  two ``(branch label, return label)`` pairs.

:func:`shape_key` keys both with that part left out, so the registry
can run them as the members of one shape machine
(:class:`~repro.core.valueshape.ShapeTwigM`).
"""

from __future__ import annotations

from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import (
    QueryNode,
    QueryTree,
    ValueRef,
    compile_query,
    condition_leaves,
)

#: A hashable machine-sharing key: (query structure, resource limits).
DedupKey = tuple


def canonicalize(query: "str | QueryTree") -> QueryTree:
    """Compile ``query`` (if textual) into its canonical tree form."""
    if isinstance(query, QueryTree):
        return query
    return compile_query(query)


def canonical_text(query: "str | QueryTree") -> str:
    """The canonical XPath spelling of ``query``.

    Derived from the tree itself (:mod:`repro.xpath.unparse`), so any two
    structurally equal queries canonicalize to the same text — the
    human-readable face of :func:`dedup_key`, used in logs and the CLI's
    ``--explain`` output.
    """
    from repro.xpath.unparse import unparse_query

    return unparse_query(canonicalize(query))


def dedup_key(tree: QueryTree, limits: ResourceLimits | None = None) -> DedupKey:
    """The machine-sharing key for ``tree`` under ``limits``.

    Structurally equal queries with equal limits — and only those — may
    be multiplexed onto one machine instance.
    """
    return (tree.structure(), limits)


#: How :func:`shape_text` spells the constant a value shape leaves out.
SHAPE_CONSTANT = "$c"

#: How :func:`shape_text` spells the branch label a label shape leaves out.
SHAPE_LABEL = "$l"

#: How :func:`shape_text` spells the return label a label shape leaves out.
SHAPE_RETURN = "$r"


def shape_text(tree: QueryTree) -> str:
    """The canonical spelling of ``tree``'s shape: its canonical text
    with the value-test literal printed as :data:`SHAPE_CONSTANT`, or
    the left-out labels as :data:`SHAPE_LABEL` and :data:`SHAPE_RETURN`."""
    from repro.xpath.unparse import unparse_query

    found = _shape_node(tree)
    if found is None or found[0].value_tests:
        return unparse_query(tree, SHAPE_CONSTANT)
    node, tail = found
    rename = ((node, SHAPE_LABEL),) if tail is None else (
        (node, SHAPE_LABEL), (tail, SHAPE_RETURN))
    return unparse_query(tree, rename=rename)


def _shape_node(tree: QueryTree) -> "tuple[QueryNode, QueryNode | None] | None":
    """The node ``tree``'s shape leaves open, and its return node when a
    label shape leaves that label open too (see :func:`shape_key`)."""
    tested = None
    off_trunk = []
    pending = [tree.root]
    while pending:
        node = pending.pop()
        pending.extend(node.children)
        if node.condition is not None and any(
            isinstance(leaf, ValueRef) for leaf in condition_leaves(node.condition)
        ):
            return None
        if node.value_tests:
            if tested is not None or len(node.value_tests) > 1:
                return None
            tested = node
        if not node.on_trunk:
            off_trunk.append(node)
    if tested is not None:
        return tested, None
    if len(off_trunk) != 1:
        return None
    leaf = off_trunk[0]
    if (leaf.children or leaf.is_wildcard or leaf.attribute_tests
            or leaf.condition is not None):
        return None
    tail = tree.return_node
    if (tail.parent is not tree.root or tail.children or tail.is_wildcard
            or tail.attribute_tests or tail.condition is not None):
        tail = None
    return leaf, tail


def shape_key(
    tree: QueryTree, limits: ResourceLimits | None = None
) -> "tuple[DedupKey, str | float | tuple[str, str]] | None":
    """The shape key of ``tree`` and the constant or labels it leaves out.

    A *value key* is defined when exactly one query node carries value
    tests, it carries exactly one, and no boolean condition compares a
    string value: ``(structure without the constant, op, literal kind,
    limits)``, with the constant.  A *label key* is defined when no node
    carries a value test and exactly one node is off the trunk, a leaf
    with a concrete label and no attribute test or condition:
    ``(structure without that label, limits)``, with the label.  When
    the return node is also such a leaf, a child of the root over a
    ``/`` or ``//`` edge, the key leaves its label out as well and comes
    with the pair ``(branch label, return label)``.  Otherwise ``None``.
    Equal keys mean equal machines up to that constant or those labels;
    whether the registry may share one machine among them is the
    machine's scope rule (:func:`~repro.core.valueshape.shape_scope`).
    """
    found = _shape_node(tree)
    if found is None:
        return None
    node, tail = found
    if tail is not None:
        return (tree.root.structure(node, tail), limits), (node.name, tail.name)
    if not node.value_tests:
        return (tree.root.structure(node), limits), node.name
    test = node.value_tests[0]
    key = (tree.root.structure(node), test.op, type(test.literal).__name__, limits)
    return key, test.literal
