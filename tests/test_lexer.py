"""Tests for the XPath lexer (repro.xpath.lexer)."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.lexer import tokenize


def kinds(query):
    return [token.kind for token in tokenize(query)]


def texts(query):
    return [token.text for token in tokenize(query)][:-1]  # drop END


class TestTokenKinds:
    def test_slashes(self):
        assert kinds("/a//b") == ["SLASH", "NAME", "DSLASH", "NAME", "END"]

    def test_star_and_brackets(self):
        assert kinds("//*[b]") == ["DSLASH", "STAR", "LBRACKET", "NAME", "RBRACKET", "END"]

    def test_attribute(self):
        assert kinds("//a[@id]") == [
            "DSLASH", "NAME", "LBRACKET", "AT", "NAME", "RBRACKET", "END",
        ]

    def test_text_function(self):
        assert "TEXT" in kinds("//a[text() = 'x']")

    def test_name_called_text_without_parens(self):
        tokens = tokenize("//text")
        assert tokens[1].kind == "NAME"
        assert tokens[1].text == "text"

    @pytest.mark.parametrize(
        "op, kind",
        [("=", "EQ"), ("!=", "NE"), ("<", "LT"), ("<=", "LE"), (">", "GT"), (">=", "GE")],
    )
    def test_comparison_operators(self, op, kind):
        assert kind in kinds(f"//a[b {op} 1]")

    def test_string_literals_both_quotes(self):
        tokens = tokenize("//a[b = \"x\"][c = 'y']")
        strings = [t.text for t in tokens if t.kind == "STRING"]
        assert strings == ["x", "y"]

    def test_number_literal(self):
        tokens = tokenize("//a[b = 3.25]")
        numbers = [t.text for t in tokens if t.kind == "NUMBER"]
        assert numbers == ["3.25"]

    def test_integer_literal(self):
        tokens = tokenize("//a[b = 42]")
        assert [t.text for t in tokens if t.kind == "NUMBER"] == ["42"]

    @pytest.mark.parametrize("literal", ["-3", "5.", ".5", "-.5", "-2.5"])
    def test_xpath_1_numbers(self, literal):
        tokens = tokenize(f"//a[b={literal}]")
        assert [t.text for t in tokens if t.kind == "NUMBER"] == [literal]

    def test_hyphen_inside_a_name_is_not_a_sign(self):
        tokens = tokenize("//a[x-1 = 2]")
        assert [t.text for t in tokens if t.kind == "NAME"] == ["a", "x-1"]

    def test_dot_token(self):
        assert kinds("//a[. = '1']")[3] == "DOT"

    def test_name_with_hyphen_and_dots(self):
        tokens = tokenize("//seq-rev_date")
        assert tokens[1].text == "seq-rev_date"

    def test_whitespace_ignored(self):
        assert kinds("// a [ b ]") == kinds("//a[b]")

    def test_positions_recorded(self):
        tokens = tokenize("//abc")
        assert tokens[0].position == 0
        assert tokens[1].position == 2

    def test_end_sentinel(self):
        assert tokenize("//a")[-1].kind == "END"


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(XPathSyntaxError, match="unterminated"):
            tokenize("//a[b = 'x]")

    def test_bare_bang(self):
        with pytest.raises(XPathSyntaxError, match="!="):
            tokenize("//a[b ! 1]")

    def test_unexpected_character(self):
        with pytest.raises(XPathSyntaxError, match="unexpected character"):
            tokenize("//a[b # c]")

    def test_error_carries_position(self):
        with pytest.raises(XPathSyntaxError) as info:
            tokenize("//a$")
        assert info.value.position == 3
