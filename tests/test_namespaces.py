"""Tests for XML namespace support (repro.stream.namespaces)."""

from xml.parsers import expat

import pytest

from repro.core.processor import XPathStream, evaluate
from repro.errors import XmlSyntaxError, XPathSyntaxError
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.namespaces import (
    XML_NAMESPACE,
    clark,
    resolve_namespaces,
    split_clark,
    translate_name,
)
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query

BOOKS = "http://example.org/books"
META = "http://example.org/meta"

XML = (
    f"<b:catalog xmlns:b='{BOOKS}' xmlns:m='{META}'>"
    "<b:book m:lang='en'>"
    "<b:title>One</b:title>"
    "<plain>raw</plain>"
    "</b:book>"
    "</b:catalog>"
)


def resolved(xml):
    return list(resolve_namespaces(parse_string(xml)))


def expat_parse_string(xml):
    """Events from Expat's own namespace processing, names in Clark
    notation (the oracle for :func:`resolve_namespaces`)."""
    parser = expat.ParserCreate(namespace_separator="\x1f")
    events, text, depth, next_id = [], [], 0, 1

    def name(raw):
        uri, sep, local = raw.rpartition("\x1f")
        return clark(uri, local) if sep else raw

    def flush():
        if text and "".join(text).strip():
            events.append(Characters("".join(text), depth))
        text.clear()

    def start(tag, attributes):
        nonlocal depth, next_id
        flush()
        depth += 1
        attributes = {name(key): value for key, value in attributes.items()}
        events.append(StartElement(name(tag), depth, next_id, attributes))
        next_id += 1

    def end(tag):
        nonlocal depth
        flush()
        events.append(EndElement(name(tag), depth))
        depth -= 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.Parse(xml, True)
    return events


class TestClarkNames:
    def test_build_and_split(self):
        name = clark("http://x", "a")
        assert name == "{http://x}a"
        assert split_clark(name) == ("http://x", "a")

    def test_bare_names(self):
        assert clark(None, "a") == "a"
        assert split_clark("a") == (None, "a")

    def test_malformed(self):
        with pytest.raises(ValueError):
            split_clark("{unclosed")


class TestResolution:
    def test_element_names_resolved(self):
        tags = [e.tag for e in resolved(XML) if isinstance(e, StartElement)]
        assert tags[0] == f"{{{BOOKS}}}catalog"
        assert tags[1] == f"{{{BOOKS}}}book"
        assert tags[3] == "plain"  # no default namespace declared

    def test_end_tags_resolved_consistently(self):
        events = resolved(XML)
        opens = [e.tag for e in events if isinstance(e, StartElement)]
        closes = [e.tag for e in events if type(e).__name__ == "EndElement"]
        assert sorted(opens) == sorted(closes)

    def test_xmlns_attributes_dropped(self):
        (root, *_rest) = resolved(XML)
        assert root.attributes == {}

    def test_prefixed_attribute_resolved(self):
        book = resolved(XML)[1]
        assert book.attributes == {f"{{{META}}}lang": "en"}

    def test_unprefixed_attributes_stay_bare(self):
        events = resolved("<a xmlns='http://d' id='1'><b k='2'/></a>")
        assert events[0].attributes == {"id": "1"}
        assert events[1].attributes == {"k": "2"}

    def test_default_namespace_applies_to_elements(self):
        events = resolved("<a xmlns='http://d'><b/></a>")
        assert events[0].tag == "{http://d}a"
        assert events[1].tag == "{http://d}b"

    def test_default_namespace_undeclared_by_empty(self):
        events = resolved("<a xmlns='http://d'><b xmlns=''><c/></b></a>")
        assert events[1].tag == "b"
        assert events[2].tag == "c"

    def test_scoping_restores_outer_binding(self):
        xml = "<p:a xmlns:p='http://one'><p:b xmlns:p='http://two'/><p:c/></p:a>"
        events = resolved(xml)
        assert events[0].tag == "{http://one}a"
        assert events[1].tag == "{http://two}b"
        # after </p:b>, p reverts to http://one
        tags = [e.tag for e in events if isinstance(e, StartElement)]
        assert tags[2] == "{http://one}c"

    def test_xml_prefix_is_builtin(self):
        events = resolved("<a xml:lang='de'/>")
        assert events[0].attributes == {f"{{{XML_NAMESPACE}}}lang": "de"}

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError, match="undeclared"):
            resolved("<q:a/>")

    def test_undeclared_attribute_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError, match="undeclared"):
            resolved("<a q:k='1'/>")

    def test_characters_pass_through(self):
        events = resolved("<a xmlns='http://d'>text</a>")
        assert events[1].text == "text"


class TestNamespaceQueries:
    def test_prefixed_query(self):
        query = compile_query("//b:book/b:title", namespaces={"b": BOOKS})
        events = resolved(XML)
        assert XPathStream(query).evaluate(iter(events)) == [3]

    def test_unprefixed_test_matches_no_namespace_only(self):
        query = compile_query("//plain")
        assert XPathStream(query).evaluate(iter(resolved(XML))) == [4]
        # 'title' without binding does not match {BOOKS}title
        assert XPathStream(compile_query("//title")).evaluate(iter(resolved(XML))) == []

    def test_prefixed_attribute_predicate(self):
        query = compile_query(
            "//b:book[@m:lang = 'en']/b:title",
            namespaces={"b": BOOKS, "m": META},
        )
        assert XPathStream(query).evaluate(iter(resolved(XML))) == [3]

    def test_wildcard_crosses_namespaces(self):
        query = compile_query("//b:book/*", namespaces={"b": BOOKS})
        assert XPathStream(query).evaluate(iter(resolved(XML))) == [3, 4]

    def test_unbound_prefix_rejected_at_compile(self):
        # A prefix is only checked once a namespaces mapping is given;
        # without one, prefixes are opaque (backwards compatible).
        with pytest.raises(XPathSyntaxError, match="not bound"):
            compile_query("//p:a", namespaces={"q": "http://x"})
        compile_query("//p:a")  # opaque-mode: fine

    def test_translate_name(self):
        assert translate_name("p:x", {"p": "http://u"}) == "{http://u}x"
        assert translate_name("x", None) == "x"
        assert translate_name("*", None) == "*"

    def test_without_resolution_prefixes_are_opaque(self):
        """Backwards compatibility: no resolve pass, prefixed tags match
        literally (the paper's behaviour)."""
        assert evaluate("//b:title", XML) == [3]


class TestExpatNamespaceCrossCheck:
    """Expat's native namespace handling is an independent oracle for
    our resolver: both must produce identical Clark-name streams."""

    DOCUMENTS = [
        XML,
        "<a xmlns='http://d'><b/><c xmlns=''/></a>",
        "<p:a xmlns:p='http://one'><p:b xmlns:p='http://two' p:k='v'/></p:a>",
        "<a><b xmlns='http://late'>text</b><b/></a>",
        "<a xml:lang='en'/>",
    ]

    @pytest.mark.parametrize("xml", DOCUMENTS, ids=range(len(DOCUMENTS)))
    def test_resolver_agrees_with_expat(self, xml):
        assert resolved(xml) == expat_parse_string(xml)

    def test_resolver_agrees_with_expat_random_documents(self):
        from hypothesis import given, settings, strategies as st

        uris = ("http://one", "http://two", "")
        prefixes = ("", "p", "q")

        @st.composite
        def ns_trees(draw, depth=0, bound=frozenset(["p0"])):
            tag_prefix = draw(st.sampled_from(prefixes))
            declarations = []
            now_bound = set(bound)
            for prefix in prefixes:
                if draw(st.integers(0, 3)) == 0:
                    uri = draw(st.sampled_from(uris))
                    if prefix == "":
                        declarations.append(f" xmlns='{uri}'")
                        now_bound.add("")
                    elif uri:  # prefixed xmlns cannot be empty
                        declarations.append(f" xmlns:{prefix}='{uri}'")
                        now_bound.add(prefix)
            if tag_prefix and tag_prefix not in now_bound:
                tag_prefix = ""
            name = f"{tag_prefix}:e" if tag_prefix else "e"
            if depth >= 3:
                children = []
            else:
                children = draw(
                    st.lists(ns_trees(depth=depth + 1, bound=frozenset(now_bound)),
                             max_size=2)
                )
            return f"<{name}{''.join(declarations)}>{''.join(children)}</{name}>"

        @settings(max_examples=150, deadline=None)
        @given(xml=ns_trees())
        def check(xml):
            assert resolved(xml) == expat_parse_string(xml)

        check()
