"""Shared fixtures: the paper's running examples and small corpora."""

from __future__ import annotations

import pytest

from repro.stream.document import build_document
from repro.stream.tokenizer import parse_string


def chain_xml(n: int, with_predicates: bool = True) -> str:
    """The paper's figure 1 document: a₁/…/aₙ/b₁/…/bₙ/c₁.

    All ``a``s nest above all ``b``s, so every ``(aᵢ, bⱼ)`` pair embeds
    ``//a//b`` — the n² pattern matches of the introduction.  ``a₁`` has
    child ``d`` and ``b₁`` child ``e`` (the only nodes satisfying Q1's
    predicates); ``c₁`` sits under ``bₙ``.
    """
    parts = []
    for i in range(1, n + 1):
        parts.append("<a>")
        if with_predicates and i == 1:
            parts.append("<d/>")
    for j in range(1, n + 1):
        parts.append("<b>")
        if with_predicates and j == 1:
            parts.append("<e/>")
    parts.append("<c/>")
    parts.append("</b>" * n)
    parts.append("</a>" * n)
    return "".join(parts)


def chain_c1_id(n: int, with_predicates: bool = True) -> int:
    """Pre-order id of c₁ in :func:`chain_xml`."""
    per_pair = 2  # a and b per level
    extra = 2 if with_predicates else 0  # d and e
    return n * per_pair + extra + 1


@pytest.fixture
def figure1_xml() -> str:
    """Figure 1(a) with n = 4."""
    return chain_xml(4)


@pytest.fixture
def figure1_c1() -> int:
    return chain_c1_id(4)


@pytest.fixture
def figure2_xml() -> str:
    """Figure 2(a): nested a…a/b…b chain with c₁ at the bottom."""
    return chain_xml(3, with_predicates=False)


@pytest.fixture
def book_catalog_xml() -> str:
    """A small hand-written catalogue used across engine tests."""
    return (
        "<catalog>"
        "<book year='2003'>"
        "<title>Streams</title>"
        "<author><last>Chen</last><first>Yi</first></author>"
        "<price>25</price>"
        "<section id='1'><title>Intro</title>"
        "<section id='2'><title>Deep</title><p>text</p></section>"
        "</section>"
        "</book>"
        "<book year='1999'>"
        "<title>Automata</title>"
        "<author><last>Hopcroft</last><first>John</first></author>"
        "<price>60</price>"
        "<section id='3'><title>Machines</title></section>"
        "</book>"
        "</catalog>"
    )


@pytest.fixture
def book_catalog_document(book_catalog_xml):
    return build_document(parse_string(book_catalog_xml))


def ids_of(xml: str, tag: str) -> list[int]:
    """Pre-order ids of all elements with ``tag`` (test bookkeeping)."""
    from repro.stream.events import StartElement

    return [
        event.node_id
        for event in parse_string(xml)
        if isinstance(event, StartElement) and event.tag == tag
    ]
