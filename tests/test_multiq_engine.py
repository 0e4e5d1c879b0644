"""MultiQueryEngine (repro.multiq.engine): the dispatcher front door."""

from __future__ import annotations

import pytest

from repro.core.processor import XPathStream
from repro.errors import ResourceLimitError
from repro.multiq import MultiQueryEngine
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string

from tests.conftest import chain_xml

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
    "dup": "//title",
}


class TestEvaluation:
    def test_one_pass_matches_individual_runs(self):
        combined = MultiQueryEngine(QUERIES).evaluate(XML)
        for name, query in QUERIES.items():
            assert combined[name] == XPathStream(query).evaluate(XML), name

    def test_figure1_queries(self, figure1_xml):
        queries = {"q1": "//a[d]//b[e]//c", "ab": "//a//b", "rooted": "/a/a"}
        combined = MultiQueryEngine(queries).evaluate(figure1_xml)
        for name, query in queries.items():
            assert combined[name] == XPathStream(query).evaluate(figure1_xml)

    def test_engine_dispatch_per_query(self):
        engines = MultiQueryEngine(QUERIES).engine_names()
        assert engines["titles"] == "dfa"
        assert engines["cheap"] == "twigm"

    def test_names_and_len(self):
        engine = MultiQueryEngine(QUERIES)
        assert engine.names == list(QUERIES)
        assert len(engine) == len(QUERIES)

    def test_duplicate_name_rejected(self):
        engine = MultiQueryEngine({"q": "//a"})
        with pytest.raises(ValueError, match="duplicate"):
            engine.add_query("q", "//b")

    def test_remove_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            MultiQueryEngine({"q": "//a"}).remove_query("other")

    def test_empty_engine_is_usable(self):
        engine = MultiQueryEngine()
        assert engine.evaluate(XML) == {}


class TestCallbacks:
    def test_engine_level_callback(self):
        seen = []
        engine = MultiQueryEngine(
            QUERIES, on_match=lambda name, i: seen.append((name, i))
        )
        engine.feed_events(parse_string(XML))
        assert ("titles", 4) in seen and ("dup", 4) in seen
        assert ("cheap", 4) in seen and ("recent", 4) in seen
        assert engine.results() == {}  # callback mode collects nothing

    def test_per_query_callback_overrides(self):
        cheap_ids, rest = [], []
        engine = MultiQueryEngine(on_match=lambda name, i: rest.append((name, i)))
        engine.add_query("cheap", QUERIES["cheap"], on_match=cheap_ids.append)
        engine.add_query("titles", "//title")
        engine.feed_events(parse_string(XML))
        assert cheap_ids == [4]
        assert ("titles", 4) in rest and ("titles", 7) in rest
        assert all(name != "cheap" for name, _ in rest)

    def test_mixed_collect_and_callback(self):
        fired = []
        engine = MultiQueryEngine()
        engine.add_query("collected", "//title")
        engine.add_query("called", "//title", on_match=fired.append)
        engine.feed_events(parse_string(XML))
        assert engine.results() == {"collected": [4, 7]}
        assert fired == [4, 7]


class TestDispatchStats:
    def test_broadcast_counterfactual(self):
        events = list(parse_string(XML))
        engine = MultiQueryEngine(QUERIES)
        engine.feed_events(events)
        stats = engine.dispatch_stats()
        assert stats.events == len(events)
        assert stats.queries == len(QUERIES)
        assert stats.units == 3  # dup shares titles' machine
        assert stats.machine_events_broadcast == len(events) * len(QUERIES)
        assert 0 < stats.machine_events_dispatched < stats.machine_events_broadcast
        assert stats.reduction > 1.0
        assert stats.to_dict()["reduction"] == stats.reduction

    def test_broadcast_matches_brute_force_across_changes(self):
        """Broadcast is settled lazily (events × registrations at each
        registration change); it must equal a per-event count across live
        add/remove, a callback adding a query mid-event, and restore."""
        events = list(parse_string(XML))
        added = []

        def on_match(name, node_id):
            if name == "titles" and not added:
                added.append(node_id)
                engine.add_query("from-callback", "//price")

        engine = MultiQueryEngine(QUERIES, on_match=on_match)
        broadcast = 0
        for index, event in enumerate(events):
            if index == 3:
                engine.add_query("late", "//book")
            if index == 6:
                engine.remove_query("dup")
            if index == 9:
                snapshot = engine.snapshot()
                assert snapshot["stats"]["events"] == index
                assert snapshot["stats"]["broadcast"] == broadcast
                engine = MultiQueryEngine.restore(
                    snapshot, on_match=on_match
                )
            broadcast += len(engine)
            engine.feed_events([event])
        assert added
        stats = engine.dispatch_stats()
        assert stats.events == len(events)
        assert stats.machine_events_broadcast == broadcast
        assert engine.snapshot()["stats"]["broadcast"] == broadcast

    def test_disjoint_alphabets_route_sharply(self):
        """Queries over disjoint tag sets only ever pay for their own."""
        engine = MultiQueryEngine({"left": "//x//y", "right": "//a//b"})
        engine.feed_events(parse_string(chain_xml(4, with_predicates=False)))
        stats = engine.dispatch_stats()
        # 'left' never fires: dispatched is (roughly) one machine's share
        assert stats.machine_events_dispatched <= stats.machine_events_broadcast / 2


class TestResourceLimits:
    def test_limited_query_enforces_like_a_dedicated_stream(self):
        engine = MultiQueryEngine()
        engine.add_query("capped", "//a", limits=ResourceLimits(max_total_events=3))
        with pytest.raises(ResourceLimitError) as info:
            engine.feed_events(parse_string(chain_xml(4, with_predicates=False)))
        assert info.value.limit == "max_total_events"

    def test_limited_query_sees_every_event(self):
        """Limit accounting counts all events, not just routed ones — the
        limited unit must ride the unfiltered path."""
        xml = "<r><x/><x/><x/><a/></r>"
        engine = MultiQueryEngine()
        # '//a' never routes on 'x', but max_total_events counts them.
        engine.add_query("capped", "//a", limits=ResourceLimits(max_total_events=4))
        with pytest.raises(ResourceLimitError):
            engine.feed_events(parse_string(xml))

    def test_generous_limits_do_not_change_results(self):
        engine = MultiQueryEngine()
        engine.add_query("capped", "//a//b", limits=ResourceLimits(max_depth=1000))
        engine.add_query("free", "//a//b")
        results = engine.evaluate(chain_xml(3, with_predicates=False))
        assert results["capped"] == results["free"]
        assert engine.unit_count() == 2  # limits key the dedup apart


class TestIncrementalAndReset:
    def test_feed_text_chunks(self):
        engine = MultiQueryEngine(QUERIES)
        for index in range(0, len(XML), 16):
            engine.feed_text(XML[index:index + 16])
        assert engine.close()["titles"] == [4, 7]

    def test_reset_reruns_cleanly(self):
        engine = MultiQueryEngine({"t": "//title"})
        assert engine.evaluate(XML)["t"] == [4, 7]
        engine.reset()
        assert engine.dispatch_stats().events == 0
        assert engine.evaluate("<catalog><title/></catalog>")["t"] == [2]

    def test_reset_restores_sharing(self):
        engine = MultiQueryEngine({"one": "//a"})
        engine.feed_events(parse_string("<a/>"))
        engine.reset()
        engine.add_query("two", "//a")  # cold again -> may share
        assert engine.unit_count() == 1

    def test_remove_discards_collected_results(self):
        engine = MultiQueryEngine({"t": "//title", "p": "//price"})
        engine.feed_events(parse_string(XML))
        engine.remove_query("t")
        assert engine.results() == {"p": [3, 6]}
