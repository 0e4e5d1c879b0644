"""Lexer for the XP{/,//,*,[]} fragment (plus attributes and value tests).

Token kinds:

``SLASH`` (/), ``DSLASH`` (//), ``STAR`` (*), ``LBRACKET`` ([),
``RBRACKET`` (]), ``LPAREN`` / ``RPAREN`` (boolean grouping and
``not(...)``), ``AT`` (@), ``DOT`` (.), ``NAME`` (XML names, including
``and``/``or``/``not`` which the parser contextualises), ``TEXT`` (the
literal ``text()``), ``STRING`` (quoted literal), ``NUMBER`` (XPath 1.0
``Number`` — ``5``, ``5.``, ``.5``, ``2.5`` — with an optional leading
``-``, so ``-3`` is one negative literal), and comparison operators
``EQ NE LT LE GT GE``.

The lexer is a straightforward single-pass scanner producing a list of
:class:`Token` objects with positions for error reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import XPathSyntaxError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789.-") | {":"}
#: XPath 1.0 ``Number`` (``5``, ``5.``, ``2.5``, ``.5``), optionally negated.
_NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)")


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token: ``kind``, source ``text``, and char ``position``."""

    kind: str
    text: str
    position: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.position}"


#: Sentinel kind marking end of input, always appended by :func:`tokenize`.
END = "END"


def tokenize(query: str) -> list[Token]:
    """Scan ``query`` into tokens; raise :class:`XPathSyntaxError` on junk."""
    tokens: list[Token] = []
    index = 0
    length = len(query)
    while index < length:
        char = query[index]
        if char in " \t\r\n":
            index += 1
            continue
        if char == "/":
            if query.startswith("//", index):
                tokens.append(Token("DSLASH", "//", index))
                index += 2
            else:
                tokens.append(Token("SLASH", "/", index))
                index += 1
            continue
        if char == "*":
            tokens.append(Token("STAR", "*", index))
            index += 1
            continue
        if char == "[":
            tokens.append(Token("LBRACKET", "[", index))
            index += 1
            continue
        if char == "]":
            tokens.append(Token("RBRACKET", "]", index))
            index += 1
            continue
        if char == "@":
            tokens.append(Token("AT", "@", index))
            index += 1
            continue
        if char == "(":
            tokens.append(Token("LPAREN", "(", index))
            index += 1
            continue
        if char == ")":
            tokens.append(Token("RPAREN", ")", index))
            index += 1
            continue
        if char == "=":
            tokens.append(Token("EQ", "=", index))
            index += 1
            continue
        if char == "!":
            if query.startswith("!=", index):
                tokens.append(Token("NE", "!=", index))
                index += 2
                continue
            raise XPathSyntaxError("expected '!=' after '!'", index)
        if char == "<":
            if query.startswith("<=", index):
                tokens.append(Token("LE", "<=", index))
                index += 2
            else:
                tokens.append(Token("LT", "<", index))
                index += 1
            continue
        if char == ">":
            if query.startswith(">=", index):
                tokens.append(Token("GE", ">=", index))
                index += 2
            else:
                tokens.append(Token("GT", ">", index))
                index += 1
            continue
        if char in "\"'":
            end = query.find(char, index + 1)
            if end == -1:
                raise XPathSyntaxError("unterminated string literal", index)
            tokens.append(Token("STRING", query[index + 1:end], index))
            index = end + 1
            continue
        if char in _NAME_START or char.isalpha():
            start = index
            while index < length and (query[index] in _NAME_CHARS or query[index].isalnum()):
                index += 1
            name = query[start:index]
            # A trailing '.' or '-' never belongs to a name in this grammar.
            while name and name[-1] in ".-":
                name = name[:-1]
                index -= 1
            if name == "text" and query.startswith("()", index):
                tokens.append(Token("TEXT", "text()", start))
                index += 2
            else:
                tokens.append(Token("NAME", name, start))
            continue
        number = _NUMBER.match(query, index) if char.isdigit() or char in "-." else None
        if number is not None:
            tokens.append(Token("NUMBER", number.group(), index))
            index = number.end()
            continue
        if char == ".":
            tokens.append(Token("DOT", ".", index))
            index += 1
            continue
        raise XPathSyntaxError(f"unexpected character {char!r}", index)
    tokens.append(Token(END, "", length))
    return tokens

