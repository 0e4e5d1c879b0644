"""Recursive-descent parser for XP{/,//,*,[]} (+ attributes, value tests).

Grammar (EBNF; whitespace insignificant)::

    query       ::= ("/" | "//") step (("/" | "//") step)*
    step        ::= nodetest predicate*
    nodetest    ::= NAME | "*"
    predicate   ::= "[" or-less-expr "]"
    expr        ::= term ("and" term)*
    term        ::= relpath (compop literal)?
                  | "." compop literal
                  | "text()" compop literal
                  | "@" NAME (compop literal)?
                  | literal compop (relpath | "." | "text()" | "@" NAME)
    relpath     ::= relstep (("/" | "//") relstep)*
                  | ".//" relstep (("/" | "//") relstep)*
    relstep     ::= nodetest predicate* | "@" NAME | "text()"
    compop      ::= "=" | "!=" | "<" | "<=" | ">" | ">="
    literal     ::= STRING | NUMBER

A literal on the left is stored with the operator mirrored, so
``[5 > b]`` parses to the same predicate as ``[b < 5]``.

Attribute and ``text()`` tests may only appear as the *last* step of a
predicate path; the paper's fragment has no attribute or text steps on the
trunk, and we reject them there with a clear error.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    CHILD,
    DESCENDANT,
    AndPredicate,
    AttributeTest,
    ComparisonPredicate,
    LocationPath,
    NameTest,
    NotPredicate,
    OrPredicate,
    PathPredicate,
    PredicateExpr,
    Step,
    TextTest,
    WildcardTest,
)
from repro.xpath.lexer import END, Token, tokenize

_COMPARISONS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}
#: ``literal op path`` ≡ ``path mirrored[op] literal``.
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self._tokens = tokens
        self._index = 0
        self._source = source

    # -- token helpers --------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _accept(self, kind: str) -> Token | None:
        if self._current.kind == kind:
            return self._advance()
        return None

    def _expect(self, kind: str, what: str) -> Token:
        token = self._accept(kind)
        if token is None:
            raise XPathSyntaxError(
                f"expected {what}, found {self._current.text or 'end of query'!r}",
                self._current.position,
            )
        return token

    def _fail(self, message: str) -> XPathSyntaxError:
        raise XPathSyntaxError(message, self._current.position)

    # -- grammar --------------------------------------------------------

    def parse_query(self) -> LocationPath:
        axis = self._leading_axis(required=True)
        steps = [self._parse_step(axis, trunk=True)]
        while self._current.kind in ("SLASH", "DSLASH"):
            axis = DESCENDANT if self._advance().kind == "DSLASH" else CHILD
            steps.append(self._parse_step(axis, trunk=True))
        if self._current.kind != END:
            self._fail(f"trailing input {self._current.text!r}")
        return LocationPath(tuple(steps), absolute=True)

    def _leading_axis(self, required: bool) -> str:
        if self._accept("DSLASH"):
            return DESCENDANT
        if self._accept("SLASH"):
            return CHILD
        if required:
            self._fail("query must start with '/' or '//'")
        return CHILD

    def _parse_step(self, axis: str, trunk: bool) -> Step:
        token = self._current
        if token.kind == "NAME":
            if token.text == "and":
                self._fail("'and' is a keyword, not a name")
            self._advance()
            test = NameTest(token.text)
        elif token.kind == "STAR":
            self._advance()
            test = WildcardTest()
        elif token.kind in ("AT", "TEXT") and trunk:
            self._fail(
                "attribute and text() steps are only supported inside predicates"
            )
        else:
            self._fail(f"expected a step, found {token.text or 'end of query'!r}")
        predicates: list[PredicateExpr] = []
        while self._accept("LBRACKET"):
            predicates.append(self._parse_predicate_expr())
            self._expect("RBRACKET", "']'")
        return Step(axis, test, tuple(predicates))

    def _parse_predicate_expr(self) -> PredicateExpr:
        """Boolean predicate grammar: ``or`` over ``and`` over unary."""
        terms = [self._parse_predicate_and()]
        while self._current.kind == "NAME" and self._current.text == "or":
            self._advance()
            terms.append(self._parse_predicate_and())
        if len(terms) == 1:
            return terms[0]
        return OrPredicate(tuple(terms))

    def _parse_predicate_and(self) -> PredicateExpr:
        terms = [self._parse_predicate_unary()]
        while self._current.kind == "NAME" and self._current.text == "and":
            self._advance()
            terms.append(self._parse_predicate_unary())
        if len(terms) == 1:
            return terms[0]
        return AndPredicate(tuple(terms))

    def _parse_predicate_unary(self) -> PredicateExpr:
        token = self._current
        if self._index + 1 < len(self._tokens):
            following = self._tokens[self._index + 1]
        else:
            following = self._tokens[-1]  # the END sentinel
        if token.kind == "NAME" and token.text == "not" and following.kind == "LPAREN":
            self._advance()  # not
            self._advance()  # (
            inner = self._parse_predicate_expr()
            self._expect("RPAREN", "')'")
            return NotPredicate(inner)
        if token.kind == "LPAREN":
            self._advance()
            inner = self._parse_predicate_expr()
            self._expect("RPAREN", "')'")
            return inner
        return self._parse_predicate_term()

    def _parse_predicate_term(self) -> PredicateExpr:
        if self._current.kind in ("STRING", "NUMBER"):
            value = self._parse_literal()
            op = self._maybe_comparison()
            if op is None:
                self._fail("a literal predicate needs a comparison")
            op = _MIRRORED[op]
            path = self._parse_relative_path()
        else:
            path = self._parse_relative_path()
            op = self._maybe_comparison()
            if op is None:
                if not path.steps:
                    self._fail("a bare '.' or 'text()' predicate needs a comparison")
                if isinstance(path.steps[-1].test, TextTest):
                    self._fail("a text() step needs a comparison")
                return PathPredicate(path)
            value = self._parse_literal()
        # A comparison on a trailing text() step compares the parent
        # element's string-value, which is what dropping the step gives us.
        if path.steps and isinstance(path.steps[-1].test, TextTest):
            path = LocationPath(path.steps[:-1], absolute=False)
        return ComparisonPredicate(path, op, value)

    def _parse_relative_path(self) -> LocationPath:
        steps: list[Step] = []
        axis = CHILD
        if self._accept("DOT"):
            # '.', './x', './/x', or a bare '.' comparison.
            if self._accept("DSLASH"):
                axis = DESCENDANT
            elif self._accept("SLASH"):
                axis = CHILD
            else:
                return LocationPath((), absolute=False)
        elif self._accept("DSLASH"):
            axis = DESCENDANT
        elif self._accept("SLASH"):
            self._fail("predicate paths are relative; use './x', 'x' or './/x'")
        steps.append(self._parse_predicate_step(axis))
        while True:
            if isinstance(steps[-1].test, (AttributeTest, TextTest)):
                break  # attribute/text() must be the final step
            if self._accept("DSLASH"):
                steps.append(self._parse_predicate_step(DESCENDANT))
            elif self._accept("SLASH"):
                steps.append(self._parse_predicate_step(CHILD))
            else:
                break
        return LocationPath(tuple(steps), absolute=False)

    def _parse_predicate_step(self, axis: str) -> Step:
        token = self._current
        if token.kind == "AT":
            self._advance()
            name = self._expect("NAME", "an attribute name").text
            if axis == DESCENDANT:
                self._fail("descendant axis to an attribute ('//@a') is not supported")
            return Step(axis, AttributeTest(name))
        if token.kind == "TEXT":
            self._advance()
            return Step(axis, TextTest())
        return self._parse_step(axis, trunk=False)

    def _maybe_comparison(self) -> str | None:
        op = _COMPARISONS.get(self._current.kind)
        if op is not None:
            self._advance()
        return op

    def _parse_literal(self) -> str | float:
        token = self._current
        if token.kind == "STRING":
            self._advance()
            return token.text
        if token.kind == "NUMBER":
            self._advance()
            return float(token.text)
        self._fail(f"expected a literal, found {token.text or 'end of query'!r}")
        raise AssertionError("unreachable")


def parse_xpath(query: str) -> LocationPath:
    """Parse ``query`` into a :class:`~repro.xpath.ast.LocationPath`.

    Raises :class:`~repro.errors.XPathSyntaxError` with a character
    position on malformed input.
    """
    if not query or not query.strip():
        raise XPathSyntaxError("empty query")
    return _Parser(tokenize(query), query).parse_query()
