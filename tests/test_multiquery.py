"""Tests for multi-query evaluation: the basic public API and callback
semantics of :class:`repro.multiq.MultiQueryEngine` (routing, sharing
and live add/remove are covered by ``tests/test_multiq*.py``).
"""

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.tokenizer import parse_string


XML = (
    "<catalog>"
    "<book year='2006'><price>25</price><title>A</title></book>"
    "<book year='1999'><price>60</price><title>B</title></book>"
    "</catalog>"
)

QUERIES = {
    "cheap": "//book[price < 30]/title",
    "recent": "//book[@year = '2006']/title",
    "titles": "//title",
}


class TestEvaluation:
    def test_one_pass_matches_individual_runs(self):
        combined = MultiQueryEngine(QUERIES).evaluate(XML)
        for name, query in QUERIES.items():
            alone = XPathStream(query).evaluate(XML)
            assert sorted(combined[name]) == sorted(alone), name

    def test_engine_dispatch_per_query(self):
        engines = MultiQueryEngine(QUERIES).engine_names()
        assert engines["titles"] == "pathm"
        assert engines["cheap"] == "twigm"

    def test_names(self):
        assert MultiQueryEngine(QUERIES).names == list(QUERIES)

    def test_empty_query_set_starts_idle(self):
        # Queries may be added live, so an empty set is a valid start.
        engine = MultiQueryEngine({})
        assert engine.names == []
        assert engine.evaluate(XML) == {}


class TestIncremental:
    def test_feed_text_chunks(self):
        feed = MultiQueryEngine(QUERIES)
        for index in range(0, len(XML), 16):
            feed.feed_text(XML[index:index + 16])
        results = feed.close()
        assert results["titles"] == [4, 7]

    def test_callback_mode(self):
        seen = []
        feed = MultiQueryEngine(QUERIES, on_match=lambda name, i: seen.append((name, i)))
        feed.feed_events(parse_string(XML))
        assert ("titles", 4) in seen
        assert ("cheap", 4) in seen
        assert ("recent", 4) in seen
        assert feed.close() == {}

    def test_results_unavailable_in_callback_mode(self):
        # Callback queries deliver through their callbacks only.
        feed = MultiQueryEngine(QUERIES, on_match=lambda n, i: None)
        assert feed.results() == {}
        assert feed.evaluate(XML) == {}

    def test_reset(self):
        feed = MultiQueryEngine({"t": "//title"})
        feed.evaluate(XML)
        feed.reset()
        assert feed.evaluate("<catalog><title/></catalog>")["t"] == [2]
