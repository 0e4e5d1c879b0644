"""Unparsing: query trees back to canonical XPath text.

``compile_query`` keeps the original source string; this module derives
the query text *from the tree itself*, giving the library a canonical
form — stable spacing, one bracket per predicate child, fully nested
predicate style — useful for cache keys, logging, and for testing that
compilation is faithful: ``compile(unparse(t))`` must be semantically
identical to ``t`` (the equivalence is property-tested differentially).

Canonical choices:

* predicate *paths* print in nested form: ``[b/c]`` → ``[b[c]]`` (the
  two are equivalent existentials; the tree stores them identically);
* each conjunct gets its own bracket: ``[a and b]`` → ``[a][b]``;
* comparison operators are spaced, string literals single-quoted
  (double-quoted when they hold a ``'``), numeric literals drop a
  trailing ``.0``, and a literal compared on the left moves right with
  the operator mirrored (``[5 > b]`` → ``[b[. < 5]]``);
* a leading descendant step inside a predicate prints as ``.//x``;
* boolean conditions keep one bracket with minimal parentheses.
"""

from __future__ import annotations

from decimal import Decimal

from repro.xpath.querytree import (
    AndCond,
    AttrRef,
    AttributeTest,
    ChildRef,
    Condition,
    DESCENDANT_EDGE,
    NotCond,
    OrCond,
    QueryNode,
    QueryTree,
    ValueRef,
    ValueTest,
)


def literal_text(value: "str | float") -> str:
    """A literal as canonical text prints it: ``'x'``, ``5``, ``-2.5``.

    Strings holding a single quote print double-quoted, and numbers
    print positionally (never ``1e-07``): the lexer reads both back.
    """
    if isinstance(value, str):
        return f'"{value}"' if "'" in value else f"'{value}'"
    if value == int(value):
        return str(int(value))
    return format(Decimal(repr(value)), "f")


def _value_test(test: ValueTest, constant: "str | None" = None) -> str:
    return f"{test.op} {literal_text(test.literal) if constant is None else constant}"


def _attribute_test(test: AttributeTest) -> str:
    if test.value_test is None:
        return f"@{test.name}"
    return f"@{test.name} {_value_test(test.value_test)}"


#: Nodes whose names print as other text: ``((node, text), ...)``.
Rename = "tuple[tuple[QueryNode, str], ...]"


def _name(node: QueryNode, rename: Rename) -> str:
    for target, text in rename:
        if target is node:
            return text
    return node.name


def _branch_step(node: QueryNode, constant: "str | None" = None,
                 rename: Rename = ()) -> str:
    """One branch node as it appears inside a bracket: ``.//name[...]``."""
    prefix = ".//" if node.axis == DESCENDANT_EDGE else ""
    return f"{prefix}{_name(node, rename)}{_suffix(node, constant, rename)}"


def _suffix(node: QueryNode, constant: "str | None" = None,
            rename: Rename = ()) -> str:
    """Everything bracketed onto a node: children, tests, or condition.

    ``constant`` replaces the literal of every string-value test, and
    ``rename`` the names of the nodes it lists.
    """
    if node.condition is not None:
        return f"[{_condition_text(node.condition, top=True)}]"
    parts = [
        f"[{_branch_step(child, constant, rename)}]"
        for child in node.children
        if not child.on_trunk
    ]
    parts += [f"[{_attribute_test(test)}]" for test in node.attribute_tests]
    parts += [f"[. {_value_test(test, constant)}]" for test in node.value_tests]
    return "".join(parts)


def _condition_text(condition: Condition, top: bool = False) -> str:
    if isinstance(condition, AndCond):
        inner = " and ".join(_condition_text(part) for part in condition.parts)
        return inner if top else f"({inner})"
    if isinstance(condition, OrCond):
        inner = " or ".join(_condition_text(part) for part in condition.parts)
        return inner if top else f"({inner})"
    if isinstance(condition, NotCond):
        return f"not({_condition_text(condition.part, top=True)})"
    if isinstance(condition, ChildRef):
        return _branch_step(condition.node)
    if isinstance(condition, AttrRef):
        return _attribute_test(condition.test)
    assert isinstance(condition, ValueRef)
    return f". {_value_test(condition.test)}"


def unparse_query(tree: "QueryTree | QueryNode", constant: "str | None" = None,
                  rename: Rename = ()) -> str:
    """Render a compiled query (sub)tree as canonical XPath text.

    With ``constant`` (say ``"$c"``) the literals of string-value tests
    outside boolean conditions print as that text instead: the spelling
    of a value shape (:func:`repro.multiq.canon.shape_text`).  With
    ``rename`` (say ``((node, "$l"),)``) each listed node's name prints
    as its text: the spelling of a label shape.
    """
    node: QueryNode | None = tree.root if isinstance(tree, QueryTree) else tree
    parts: list[str] = []
    while node is not None:
        parts.append("//" if node.axis == DESCENDANT_EDGE else "/")
        parts.append(_name(node, rename))
        parts.append(_suffix(node, constant, rename))
        trunk = [child for child in node.children if child.on_trunk]
        node = trunk[0] if trunk else None
    return "".join(parts)


def canonical_query(query: str) -> str:
    """Parse ``query`` and return its canonical text."""
    from repro.xpath.querytree import compile_query

    return unparse_query(compile_query(query))
