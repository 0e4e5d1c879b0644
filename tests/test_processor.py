"""Tests for the public API (repro.core.processor)."""

import pytest

from repro.compile.dfa import DfaPathM
from repro.core.branchm import BranchM
from repro.core.processor import XPathStream, evaluate, select_engine_class
from repro.core.twigm import TwigM
from repro.errors import XPathSyntaxError
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query


class TestFragmentDispatch:
    @pytest.mark.parametrize(
        "query, engine_class",
        [
            ("//a//b", DfaPathM),
            ("/a/*/b", DfaPathM),
            ("/a[b]/c", BranchM),
            ("/a[@id]/c", BranchM),
            ("//a[b]", TwigM),
            ("//a[b]//*", TwigM),
        ],
    )
    def test_cheapest_machine_selected(self, query, engine_class):
        assert select_engine_class(compile_query(query)) is engine_class
        assert isinstance(XPathStream(query).engine, engine_class)

    def test_engine_name(self):
        assert XPathStream("//a//b").engine_name == "dfa"
        assert XPathStream("//a//b", engine="pathm").engine_name == "pathm"
        assert XPathStream("//a[b]").engine_name == "twigm"

    def test_engine_override(self):
        stream = XPathStream("//a//b", engine="twigm")
        assert isinstance(stream.engine, TwigM)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            XPathStream("//a", engine="warp")

    def test_override_must_support_fragment(self):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            XPathStream("//a[b]", engine="pathm")


class TestEvaluation:
    def test_evaluate_from_xml_text(self):
        assert evaluate("//b", "<a><b/></a>") == [2]

    def test_evaluate_from_path(self, tmp_path):
        path = tmp_path / "d.xml"
        path.write_text("<a><b/><b/></a>")
        assert evaluate("//b", str(path)) == [2, 3]

    def test_evaluate_from_events(self):
        events = parse_string("<a><b/></a>")
        assert evaluate("//b", events) == [2]

    def test_all_three_engines_agree(self, book_catalog_xml):
        for query in ("//book//title", "/catalog/book[price]/title"):
            results = {
                engine: XPathStream(query, engine=engine).evaluate(book_catalog_xml)
                for engine in ("twigm",)
            }
            auto = XPathStream(query).evaluate(book_catalog_xml)
            assert all(sorted(r) == sorted(auto) for r in results.values())


class TestPushStyle:
    def test_feed_text_chunks(self):
        stream = XPathStream("//b[c]")
        xml = "<a><b><c/></b><b/></a>"
        for index in range(0, len(xml), 4):
            stream.feed_text(xml[index:index + 4])
        assert stream.close() == [2]

    def test_on_match_callback(self):
        seen = []
        stream = XPathStream("//b", on_match=seen.append)
        stream.feed_text("<a><b/><b/>")
        assert seen == [2, 3]
        stream.feed_text("</a>")
        stream.close()

    def test_results_unavailable_with_callback(self):
        stream = XPathStream("//b", on_match=lambda i: None)
        with pytest.raises(AttributeError):
            stream.results

    def test_reset_allows_new_document(self):
        stream = XPathStream("//b[c]")
        assert stream.evaluate("<a><b><c/></b></a>") == [2]
        stream.reset()
        assert stream.evaluate("<a><x/><b><c/></b></a>") == [3]

    def test_reset_rearms_callback_sink(self):
        seen = []
        stream = XPathStream("//b[c]", on_match=seen.append)
        doc = "<a><b><c/></b></a>"
        for _ in range(2):
            stream.feed_text(doc)
            stream.close()
            stream.reset()
        assert seen == [2, 2]

    def test_close_without_feeding_is_safe(self):
        assert XPathStream("//a").close() == []


class TestErrors:
    def test_bad_query_raises_at_construction(self):
        with pytest.raises(XPathSyntaxError):
            XPathStream("//a[")

    def test_query_tree_accepted(self):
        tree = compile_query("//b")
        assert XPathStream(tree).evaluate("<a><b/></a>") == [2]
