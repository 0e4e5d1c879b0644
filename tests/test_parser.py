"""Tests for the XPath parser (repro.xpath.parser)."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    CHILD,
    DESCENDANT,
    AndPredicate,
    AttributeTest,
    ComparisonPredicate,
    NameTest,
    PathPredicate,
    WildcardTest,
)
from repro.xpath.parser import parse_xpath


class TestTrunkParsing:
    def test_child_steps(self):
        path = parse_xpath("/a/b/c")
        assert [s.axis for s in path.steps] == [CHILD, CHILD, CHILD]
        assert [str(s.test) for s in path.steps] == ["a", "b", "c"]

    def test_descendant_steps(self):
        path = parse_xpath("//a//b")
        assert [s.axis for s in path.steps] == [DESCENDANT, DESCENDANT]

    def test_mixed_axes(self):
        path = parse_xpath("/a//b/c")
        assert [s.axis for s in path.steps] == [CHILD, DESCENDANT, CHILD]

    def test_wildcard_step(self):
        path = parse_xpath("//a/*/c")
        assert isinstance(path.steps[1].test, WildcardTest)

    def test_wildcard_return_node(self):
        path = parse_xpath("//a//*")
        assert isinstance(path.steps[-1].test, WildcardTest)

    def test_str_round_trip(self):
        for query in ("/a/b", "//a//b", "//a/*/c", "//a[b]/c"):
            assert str(parse_xpath(query)) == query


class TestPredicateParsing:
    def test_single_child_predicate(self):
        path = parse_xpath("//a[b]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred, PathPredicate)
        assert str(pred.path) == "b"

    def test_multiple_predicates_on_one_step(self):
        path = parse_xpath("//a[b][c]")
        assert len(path.steps[0].predicates) == 2

    def test_and_conjunction(self):
        path = parse_xpath("//a[b and c]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred, AndPredicate)
        assert len(pred.terms) == 2

    def test_nested_predicates(self):
        path = parse_xpath("//a[b[c]]")
        (outer,) = path.steps[0].predicates
        inner_step = outer.path.steps[0]
        assert len(inner_step.predicates) == 1

    def test_predicate_path_with_descendant(self):
        path = parse_xpath("//a[.//e]")
        (pred,) = path.steps[0].predicates
        assert pred.path.steps[0].axis == DESCENDANT

    def test_predicate_relative_child_dot_slash(self):
        path = parse_xpath("//a[./b]")
        (pred,) = path.steps[0].predicates
        assert pred.path.steps[0].axis == CHILD
        assert isinstance(pred.path.steps[0].test, NameTest)

    def test_predicate_multi_step_path(self):
        path = parse_xpath("//a[b/c//d]")
        (pred,) = path.steps[0].predicates
        assert [s.axis for s in pred.path.steps] == [CHILD, CHILD, DESCENDANT]

    def test_attribute_predicate(self):
        path = parse_xpath("//a[@id]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred.path.steps[-1].test, AttributeTest)

    def test_attribute_at_end_of_path(self):
        path = parse_xpath("//a[b/@id]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred.path.steps[-1].test, AttributeTest)
        assert str(pred.path.steps[0].test) == "b"

    def test_wildcard_in_predicate(self):
        path = parse_xpath("//a[*/c]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred.path.steps[0].test, WildcardTest)


class TestComparisonParsing:
    def test_string_comparison(self):
        (pred,) = parse_xpath("//a[b = 'x']").steps[0].predicates
        assert isinstance(pred, ComparisonPredicate)
        assert pred.op == "="
        assert pred.value == "x"

    def test_numeric_comparison(self):
        (pred,) = parse_xpath("//a[b < 30]").steps[0].predicates
        assert pred.op == "<"
        assert pred.value == 30.0

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_all_operators(self, op):
        (pred,) = parse_xpath(f"//a[b {op} 1]").steps[0].predicates
        assert pred.op == op

    def test_attribute_comparison(self):
        (pred,) = parse_xpath("//a[@id = '7']").steps[0].predicates
        assert isinstance(pred.path.steps[-1].test, AttributeTest)
        assert pred.value == "7"

    def test_dot_comparison(self):
        (pred,) = parse_xpath("//a[. = 'x']").steps[0].predicates
        assert isinstance(pred, ComparisonPredicate)
        assert pred.path.steps == ()

    def test_text_comparison_drops_text_step(self):
        (pred,) = parse_xpath("//a[text() = 'x']").steps[0].predicates
        assert pred.path.steps == ()

    def test_path_then_text_comparison(self):
        (pred,) = parse_xpath("//a[b/text() = 'x']").steps[0].predicates
        assert [str(s.test) for s in pred.path.steps] == ["b"]

    def test_comparison_on_multi_step_path(self):
        (pred,) = parse_xpath("//a[b/c >= 10]").steps[0].predicates
        assert len(pred.path.steps) == 2

    @pytest.mark.parametrize("literal, value", [
        ("-3", -3.0), ("-2.5", -2.5), ("-.5", -0.5), ("5.", 5.0), (".5", 0.5),
        ("-5.", -5.0),
    ])
    def test_xpath_numbers(self, literal, value):
        (pred,) = parse_xpath(f"//a[b = {literal}]").steps[0].predicates
        assert pred.value == value

    @pytest.mark.parametrize("op, mirrored", [
        ("=", "="), ("!=", "!="), ("<", ">"), ("<=", ">="), (">", "<"),
        (">=", "<="),
    ])
    def test_literal_on_the_left_mirrors_the_operator(self, op, mirrored):
        left = parse_xpath(f"//a[5 {op} b]")
        assert left == parse_xpath(f"//a[b {mirrored} 5]")

    @pytest.mark.parametrize("query, same_as", [
        ("//a['x' = @k]", "//a[@k = 'x']"),
        ("//a[-1 < .]", "//a[. > -1]"),
        ("//a[2 >= text()]", "//a[. <= 2]"),
        ("//a[7 != .//b/c]", "//a[.//b/c != 7]"),
    ])
    def test_literal_on_the_left_of_any_term(self, query, same_as):
        assert parse_xpath(query) == parse_xpath(same_as)


class TestParseErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "",
            "   ",
            "a/b",              # must start with / or //
            "/",
            "//",
            "/a[",
            "/a[]",
            "/a[b",
            "/a]b",
            "//a[/b]",          # absolute path in predicate
            "//a[.]",           # bare dot without comparison
            "//a[text()]",      # text() without comparison
            "//a[b =]",
            "//a[= 'x']",
            "//a[b!]",
            "//@id",            # attribute on the trunk
            "//a/@id",          # attribute as result
            "//a[//@x]",        # descendant-to-attribute
            "//a[and]",
            "//a b",
            "//a[5]",           # literal without comparison
            "//a[5 = 6]",       # literal on both sides
            "//a[b - 3]",       # no arithmetic
            "//a[b = -x]",
        ],
    )
    def test_rejected(self, query):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(query)

    def test_error_position(self):
        with pytest.raises(XPathSyntaxError) as info:
            parse_xpath("//a[b")
        assert info.value.position is not None
