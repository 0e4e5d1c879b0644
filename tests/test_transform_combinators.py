"""Tests for stream combinators (repro.transform.combinators)."""

import pytest

from repro.stream.tokenizer import XmlTokenizer
from repro.transform.combinators import (
    FragmentMerger,
    Tee,
    filter_stream,
    merge,
    split,
    tee,
)
from repro.transform.extract import SubstreamExtractor

DOC = (
    "<r><a>one</a><b><c>x</c></b><a>two</a><d>skip</d>"
    "<b><c>y</c></b></r>"
)


class TestTee:
    def test_branches_each_extract(self):
        left = SubstreamExtractor("//a")
        right = SubstreamExtractor("//c")
        fan = tee(left, right)
        XmlTokenizer().feed_into(DOC, fan)
        left_texts, right_texts = [
            [f.text for f in result] for result in fan.close()
        ]
        assert left_texts == ["<a>one</a>", "<a>two</a>"]
        assert right_texts == ["<c>x</c>", "<c>y</c>"]

    def test_results_match_solo_evaluation(self):
        solo = SubstreamExtractor("//a").evaluate(DOC)
        teed = SubstreamExtractor("//a")
        fan = tee(teed)
        fan.feed_text(DOC, XmlTokenizer())
        assert fan.close()[0] == solo

    def test_dead_branches_skip(self):
        fan = tee(SubstreamExtractor("//a"), SubstreamExtractor("//c"))
        XmlTokenizer().feed_into(DOC, fan)
        fan.close()
        assert fan.skipped > 0
        assert 0.0 < fan.skip_ratio < 1.0

    def test_plain_handler_gets_everything(self):
        from repro.stream.events import EventCollector

        collector = EventCollector()
        fan = Tee(collector)
        XmlTokenizer().feed_into(DOC, fan)
        assert fan.skipped == 0
        assert collector.events[0].tag == "r"


class TestSplit:
    def test_routes_by_name(self):
        hits = []
        fan = split(
            {"as": "//a", "cs": "//c"},
            on_fragment=lambda name, node_id, text: hits.append((name, text)),
        )
        XmlTokenizer().feed_into(DOC, fan)
        fan.close()
        assert ("as", "<a>one</a>") in hits
        assert ("cs", "<c>y</c>") in hits
        assert len(hits) == 4


class TestMerge:
    def test_merge_wraps_fragments(self):
        out = merge(["<a>1</a>", "<b/>"], root="all")
        assert out == "<all><a>1</a><b/></all>"

    def test_empty_merge_self_closes(self):
        assert merge([], root="all") == "<all/>"

    def test_attributes_escaped(self):
        out = merge(["<x/>"], root="all", attributes={"k": 'a"b'})
        assert out == '<all k="a&quot;b"><x/></all>'

    def test_incremental_chunks(self):
        chunks = []
        merger = FragmentMerger("all", on_chunk=chunks.append)
        merger.add("<x/>")
        merger.add("<y/>")
        merger.close()
        assert "".join(chunks) == "<all><x/><y/></all>"
        assert merger.count == 2

    def test_add_after_close_rejected(self):
        merger = FragmentMerger()
        merger.close()
        with pytest.raises(ValueError):
            merger.add("<x/>")


class TestFilterStream:
    def test_drop_mode(self):
        out = filter_stream(DOC, "//b")
        assert out == "<r><a>one</a><a>two</a><d>skip</d></r>"

    def test_keep_mode(self):
        out = filter_stream(DOC, "//a", mode="keep", root="kept")
        assert out == "<kept><a>one</a><a>two</a></kept>"

    def test_keep_mode_no_matches(self):
        assert filter_stream(DOC, "//zz", mode="keep") == "<results/>"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            filter_stream(DOC, "//a", mode="invert")
