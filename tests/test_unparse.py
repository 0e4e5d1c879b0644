"""Tests for query unparsing (repro.xpath.unparse)."""

import pytest
from hypothesis import given, settings

from repro.baselines.navigational import NavigationalDomEngine
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query
from repro.xpath.parser import parse_xpath
from repro.xpath.unparse import canonical_query, literal_text, unparse_query
from tests.test_equivalence_properties import xml_trees, xpath_queries


class TestCanonicalForms:
    @pytest.mark.parametrize(
        "query, canonical",
        [
            ("/a/b", "/a/b"),
            ("//a//b", "//a//b"),
            ("//a/*/c", "//a/*/c"),
            ("//a[b]", "//a[b]"),
            ("//a[b/c]", "//a[b[c]]"),
            ("//a[.//b]", "//a[.//b]"),
            ("//a[b and c]", "//a[b][c]"),
            ("//a[@id]", "//a[@id]"),
            ("//a[@id = '7']", "//a[@id = '7']"),
            ("//a[b/@k]", "//a[b[@k]]"),
            # Value tests on a predicate path render in nested form too.
            ("//a[price < 30]", "//a[price[. < 30]]"),
            ("//a[price < 30.5]", "//a[price[. < 30.5]]"),
            ("//a[. = 'x']", "//a[. = 'x']"),
            ("//a[text() = 'x']", "//a[. = 'x']"),
            ("//a[b or c]", "//a[b or c]"),
            ("//a[not(b)]", "//a[not(b)]"),
            ("//a[(b or c) and d]", "//a[(b or c) and d]"),
            ("//a[b or c and d]", "//a[b or (c and d)]"),
            ("//a[not(b or c)]", "//a[not(b or c)]"),
            ("//a[b = -3]", "//a[b[. = -3]]"),
            ("//a[b < 5.]", "//a[b[. < 5]]"),
            ("//a[5 > b]", "//a[b[. < 5]]"),
            ("//a[-2.5 <= @k]", "//a[@k >= -2.5]"),
            ("//a[b = 0.0000001]", "//a[b[. = 0.0000001]]"),
            ('//a[. = "it\'s"]', '//a[. = "it\'s"]'),
        ],
    )
    def test_canonical_text(self, query, canonical):
        assert canonical_query(query) == canonical

    def test_canonical_is_idempotent(self):
        for query in ("//a[b/c][d]", "//a[b or not(c)]/e", "/x/*//y[@k]",
                      "//a[b = -3]", "//a[b < 5.]", "//a[5 > b]"):
            once = canonical_query(query)
            assert canonical_query(once) == once

    @pytest.mark.parametrize("value, text", [
        (-3.0, "-3"), (5.0, "5"), (-2.5, "-2.5"), (1e-07, "0.0000001"),
        ("x", "'x'"), ("it's", '"it\'s"'),
    ])
    def test_literal_text(self, value, text):
        assert literal_text(value) == text
        (pred,) = parse_xpath(f"//a[. = {text}]").steps[0].predicates
        assert pred.value == value

    @pytest.mark.parametrize("query, text", [
        ("//a[b = 1234567]", "//a[b = 1234567]"),
        ("//a[b = 0.0000001]", "//a[b = 0.0000001]"),
        ("//a[b < 5.]", "//a[b < 5]"),
        ("//a[5 > b]", "//a[b < 5]"),
        ("//a[@k >= -2.5]", "//a[@k >= -2.5]"),
        ('//a[. = "it\'s"]', '//a[. = "it\'s"]'),
    ])
    def test_ast_str_round_trips(self, query, text):
        """The parsed AST prints its literals exactly, so it parses back."""
        tree = parse_xpath(query)
        assert str(tree) == text
        assert parse_xpath(str(tree)) == tree


class TestRoundTripSemantics:
    ORACLE = NavigationalDomEngine()

    DOCUMENTS = [
        "<a><b><c/></b><d/></a>",
        "<a k='1'><b/><a><c/><b/></a></a>",
        "<x><y>1</y><z>2</z></x>",
    ]

    @pytest.mark.parametrize(
        "query",
        [
            "//a[b/c]/d",
            "//a[.//c][@k]/b",
            "//a[b or c]/d",
            "//a[not(b)]//c",
            "/a/*[c]",
            "//y[. = '1']",
            "//x[y > -3]",
            "//x[2 > z]",
            "//x[y < 1.]",
        ],
    )
    def test_compile_unparse_compile_is_equivalent(self, query):
        original = compile_query(query)
        rebuilt = compile_query(unparse_query(original))
        for xml in self.DOCUMENTS:
            events = list(parse_string(xml))
            first = self.ORACLE.run(original, iter(events))
            second = self.ORACLE.run(rebuilt, iter(events))
            assert first == second, (query, xml)

    @settings(max_examples=150, deadline=None)
    @given(query=xpath_queries(), xml=xml_trees())
    def test_round_trip_property(self, query, xml):
        original = compile_query(query)
        rebuilt = compile_query(unparse_query(original))
        events = list(parse_string(xml))
        assert self.ORACLE.run(original, iter(events)) == self.ORACLE.run(
            rebuilt, iter(events)
        )

    def test_subtree_unparse(self):
        tree = compile_query("//a[x]/b")
        assert unparse_query(tree.return_node) == "/b"
