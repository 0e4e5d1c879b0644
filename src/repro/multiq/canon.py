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

Queries that differ only in the constant of their one value test share
a *shape*: ``//person[initial < 660]`` and ``//person[initial < 151]``
are one structure evaluated against two constants.  :func:`shape_key`
keys them with the constant left out, so the registry can run them as
the members of one value-shape machine
(:class:`~repro.core.valueshape.ValueShapeTwigM`).
"""

from __future__ import annotations

from repro.stream.recovery import ResourceLimits
from repro.xpath.querytree import (
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


#: How :func:`shape_text` spells the constant a shape leaves out.
SHAPE_CONSTANT = "$c"


def shape_text(tree: QueryTree) -> str:
    """The canonical spelling of ``tree``'s value shape: its canonical
    text with the value-test literal printed as :data:`SHAPE_CONSTANT`."""
    from repro.xpath.unparse import unparse_query

    return unparse_query(tree, SHAPE_CONSTANT)


def shape_key(
    tree: QueryTree, limits: ResourceLimits | None = None
) -> "tuple[DedupKey, str | float] | None":
    """The value-shape key of ``tree`` and the constant it leaves out.

    Defined when exactly one query node carries value tests, it carries
    exactly one, and no boolean condition compares a string value: the
    key is ``(structure without the constant, op, literal kind,
    limits)``.  Otherwise ``None``.  Equal keys mean equal machines up
    to that one constant; whether the registry may share one machine
    among them is the machine's scope rule
    (:func:`~repro.core.valueshape.shape_scope`).
    """
    tested = None
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
    if tested is None:
        return None
    test = tested.value_tests[0]
    key = (tree.root.structure(tested), test.op, type(test.literal).__name__, limits)
    return key, test.literal
