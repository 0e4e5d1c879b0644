"""Abstract syntax for the supported XPath fragment.

The surface syntax is the paper's XP{/,//,*,[]} — child axis, descendant
axis, wildcards, branches — extended with the features the paper's
implementation had (footnote 2 and query Q8): attribute tests and value
comparisons.

An absolute query is a :class:`LocationPath` of :class:`Step` objects.
Each step carries an axis (``child`` for ``/``, ``descendant`` for ``//``),
a node test, and zero or more predicates.  Predicate expressions are
conjunctions of path-existence tests and value comparisons; ``[p][q]`` and
``[p and q]`` are both conjunctions.

These classes are pure data; compilation to the paper's query-tree form
(Definition 4.1) lives in :mod:`repro.xpath.querytree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

CHILD = "child"
DESCENDANT = "descendant"

#: Comparison operators supported in value tests.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class NameTest:
    """Select elements with a specific tag."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class WildcardTest:
    """Select elements with any tag ('*')."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True, slots=True)
class AttributeTest:
    """Select an attribute of the context element ('@name')."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True, slots=True)
class TextTest:
    """The ``text()`` node test (only meaningful in value comparisons)."""

    def __str__(self) -> str:
        return "text()"


@dataclass(frozen=True, slots=True)
class SelfTest:
    """The '.' step (context node itself)."""

    def __str__(self) -> str:
        return "."


NodeTest = Union[NameTest, WildcardTest, AttributeTest, TextTest, SelfTest]


@dataclass(frozen=True, slots=True)
class Step:
    """One location step: axis + node test + predicates."""

    axis: str  # CHILD or DESCENDANT
    test: NodeTest
    predicates: tuple["PredicateExpr", ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{pred}]" for pred in self.predicates)
        return f"{self.test}{preds}"


@dataclass(frozen=True, slots=True)
class LocationPath:
    """A sequence of steps; ``absolute`` paths start at the document root."""

    steps: tuple[Step, ...]
    absolute: bool = True

    def __str__(self) -> str:
        parts: list[str] = []
        for index, step in enumerate(self.steps):
            sep = "//" if step.axis == DESCENDANT else "/"
            if index == 0 and not self.absolute:
                sep = "" if step.axis == CHILD else ".//"
            parts.append(f"{sep}{step}")
        return "".join(parts)


@dataclass(frozen=True, slots=True)
class PathPredicate:
    """Existence test: the relative path has at least one match."""

    path: LocationPath

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True, slots=True)
class ComparisonPredicate:
    """Value test: ``path op literal`` (e.g. ``price <= 30``).

    ``path`` may be empty-stepped (a bare ``.`` or ``text()``), in which
    case the comparison applies to the context node's string-value.
    """

    path: LocationPath
    op: str
    value: "str | float"

    def __str__(self) -> str:
        # Imported here: repro.xpath.unparse builds on this module.
        from repro.xpath.unparse import literal_text

        literal = literal_text(self.value)
        prefix = f"{self.path} " if self.path.steps else ". "
        return f"{prefix}{self.op} {literal}"


@dataclass(frozen=True, slots=True)
class AndPredicate:
    """Conjunction of predicate expressions."""

    terms: tuple["PredicateExpr", ...]

    def __str__(self) -> str:
        return " and ".join(_group(term) for term in self.terms)


@dataclass(frozen=True, slots=True)
class OrPredicate:
    """Disjunction of predicate expressions (extension beyond the paper's
    conjunctive fragment; see DESIGN.md §7)."""

    terms: tuple["PredicateExpr", ...]

    def __str__(self) -> str:
        return " or ".join(_group(term) for term in self.terms)


@dataclass(frozen=True, slots=True)
class NotPredicate:
    """Negation ``not(expr)`` of a predicate expression."""

    term: "PredicateExpr"

    def __str__(self) -> str:
        return f"not({self.term})"


def _group(term: "PredicateExpr") -> str:
    if isinstance(term, (AndPredicate, OrPredicate)):
        return f"({term})"
    return str(term)


PredicateExpr = Union[
    PathPredicate, ComparisonPredicate, AndPredicate, OrPredicate, NotPredicate
]


def walk_steps(path: LocationPath) -> Sequence[Step]:
    """All steps reachable from ``path`` including inside predicates."""
    result: list[Step] = []

    def visit_path(p: LocationPath) -> None:
        for step in p.steps:
            result.append(step)
            for pred in step.predicates:
                visit_pred(pred)

    def visit_pred(pred: PredicateExpr) -> None:
        if isinstance(pred, (AndPredicate, OrPredicate)):
            for term in pred.terms:
                visit_pred(term)
        elif isinstance(pred, NotPredicate):
            visit_pred(pred.term)
        else:
            visit_path(pred.path)

    visit_path(path)
    return result


def has_predicates(path: LocationPath) -> bool:
    """True when any step of ``path`` (recursively) carries a predicate."""
    return any(step.predicates for step in path.steps) or any(
        step.predicates for step in walk_steps(path)
    )


def has_descendant_axis(path: LocationPath) -> bool:
    """True when any step (recursively) uses '//'."""
    return any(step.axis == DESCENDANT for step in walk_steps(path))


def has_wildcard(path: LocationPath) -> bool:
    """True when any step (recursively) is a '*' test."""
    return any(isinstance(step.test, WildcardTest) for step in walk_steps(path))
