"""repro.obs.machines: figures read from the plain engines' own counters."""

from __future__ import annotations

import pytest

from repro.bench.complexity import CountingTwigM, WorkCounts
from repro.core.branchm import BranchM
from repro.core.machine import engine_figures
from repro.core.pathm import PathM
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.twigm import TwigM
from repro.core.valueshape import ShapeTwigM
from repro.multiq import MultiQueryEngine
from repro.multiq.registry import ShapeUnit
from repro.obs.metrics import MetricsRegistry
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query

CASES = [
    ("//a//b", "<a><b/><c><b/></c></a>"),
    ("/a/*/c", "<a><b><c/></b><d><c/></d></a>"),
    ("//a[b]", "<a><b/></a><!---->"),
    ("/a[b]/c", "<a><b/><c/><c/></a>"),
    ("//item[quantity < 2]/name",
     "<site><item><quantity>1</quantity><name>x</name></item>"
     "<item><quantity>5</quantity><name>y</name></item></site>"),
]


def feed(engine, xml):
    engine.feed(parse_string(xml))


def machine_values(registry: MetricsRegistry) -> dict:
    """``{family: {engine: value}}`` for the machine families."""
    registry.collect()
    return {
        name: {value["labels"]["engine"]: value["value"]
               for value in family["values"]}
        for name, family in registry.snapshot().items()
        if name.startswith("repro_machine_")
    }


@pytest.mark.parametrize("engine_class", [PathM, BranchM, TwigM])
@pytest.mark.parametrize("query,xml", CASES)
def test_counters_balance_after_a_document(engine_class, query, xml):
    try:
        engine = engine_class(query)
    except Exception as exc:  # fragment unsupported by this machine
        pytest.skip(f"{engine_class.__name__}: {exc}")
    feed(engine, xml)
    figures = engine_figures(engine)
    assert figures["pushes"] == figures["pops"] > 0
    assert figures["live_entries"] == figures["buffered_candidates"] == 0
    assert 0 < figures["peak_entries"] <= figures["pushes"]


def test_twigm_pushes_pops_and_live_entries():
    engine = TwigM("//a[b]")
    engine.start_element("a", 1, 1)
    engine.start_element("b", 2, 2)
    assert engine_figures(engine)["live_entries"] == 2
    assert engine.total_stack_entries() == 2
    engine.end_element("b", 2)
    engine.end_element("a", 1)
    figures = engine_figures(engine)
    assert (figures["pushes"], figures["pops"], figures["live_entries"]) == (2, 2, 0)


def test_peak_entries_high_water():
    engine = TwigM("//a")
    feed(engine, "<a><a><a/></a></a>")
    # one live stack entry per open matching element at the deepest point
    figures = engine_figures(engine)
    assert figures["peak_entries"] == 3
    assert figures["live_entries"] == 0


def test_pathm_counts_every_stack_push():
    engine = PathM("//a//b")
    feed(engine, "<a><b/><c><b/></c></a>")
    figures = engine_figures(engine)
    assert figures["pushes"] == 3  # a, then each b
    assert figures["peak_entries"] == 2
    assert figures["buffered_candidates"] == 0  # emitted at start tags


def test_branchm_counts_slot_occupations():
    engine = BranchM("/a[b]/c")
    feed(engine, "<a><b/><c/><c/></a>")
    # a, b and each c occupy a slot once; every occupation is released
    figures = engine_figures(engine)
    assert figures["pushes"] == figures["pops"] == 4
    assert figures["peak_entries"] == 2
    assert figures["live_entries"] == 0
    assert list(engine.results) == [3, 4]


def test_buffered_candidates_follow_the_machine():
    engine = TwigM("//a[x]//b")
    engine.start_element("a", 1, 1)
    engine.start_element("b", 2, 2)
    engine.end_element("b", 2)
    assert engine_figures(engine)["buffered_candidates"] == 1
    assert engine.buffered_candidates() == 1
    branch = BranchM("/a[x]/b")
    branch.start_element("a", 1, 1)
    branch.start_element("b", 2, 2)
    assert engine_figures(branch)["buffered_candidates"] == 1


def test_counters_survive_reset_but_live_entries_do_not():
    engine = TwigM("//a")
    engine.start_element("a", 1, 1)
    engine.reset()
    figures = engine_figures(engine)
    assert (figures["pushes"], figures["live_entries"], figures["pops"]) == (1, 0, 1)
    assert figures["peak_entries"] == 1


def test_value_shape_members_share_one_machine():
    queries = {"low": "//item[price < 10]", "high": "//item[price < 50]"}
    doc = ("<r><item><price>5</price></item>"
           "<item><price>20</price></item></r>")
    registry = MetricsRegistry()
    engine = MultiQueryEngine(queries, metrics=registry)
    units = engine._registry.units()
    assert len(units) == 1 and isinstance(units[0], ShapeUnit)
    assert isinstance(units[0].engine, ShapeTwigM)
    assert engine.evaluate(doc) == {"low": [2], "high": [2, 4]}
    values = machine_values(registry)
    assert values["repro_machine_emitted_total"] == {"twigm": 3}
    # item and price entries, pushed once for both members
    assert values["repro_machine_pushes_total"] == {"twigm": 4}
    assert values["repro_machine_pops_total"] == {"twigm": 4}
    assert values["repro_machine_live_entries"] == {"twigm": 0}


def test_stream_events_are_the_tokenizer_count():
    registry = MetricsRegistry()
    stream = XPathStream("//a[b]", metrics=registry)
    stream.feed_text("<r><a><b>t</b>")
    assert machine_values(registry)["repro_machine_events_total"] == {
        "twigm": stream._tokenizer.event_count
    }
    stream.feed_text("</a></r>")
    stream.close()
    values = machine_values(registry)
    assert values["repro_machine_events_total"] == {"twigm": 7}
    assert values["repro_machine_emitted_total"] == {"twigm": 1}


def test_event_fed_stream_counts_its_events():
    registry = MetricsRegistry()
    events = list(parse_string("<r><a><b/></a></r>"))
    assert XPathStream("//a[b]", metrics=registry).evaluate(events) == [2]
    assert machine_values(registry)["repro_machine_events_total"] == {
        "twigm": len(events)
    }


def test_emitted_counts_distinct_ids():
    # //a//b releases b (id 3) from both a entries: one distinct id.
    registry = MetricsRegistry()
    seen = []
    stream = XPathStream("//a[c]//b", on_match=seen.append, metrics=registry)
    stream.evaluate("<a><a><b/><c/></a><c/></a>")
    assert seen == [3]
    assert machine_values(registry)["repro_machine_emitted_total"] == {"twigm": 1}


def test_multiq_events_are_deliveries():
    registry = MetricsRegistry()
    engine = MultiQueryEngine({"q": "//a[b]"}, metrics=registry)
    engine.evaluate("<r><x/><a><b/></a></r>")
    stats = engine.dispatch_stats()
    values = machine_values(registry)
    assert values["repro_machine_events_total"] == {
        "twigm": stats.machine_events_dispatched
    }
    assert stats.machine_events_dispatched < stats.events  # gated


def test_multiq_engines_sharing_a_registry_add_up():
    """Engines sharing a registry (serve sessions do) publish the change
    since the last scrape, so their counts add up, and a reset keeps
    what was counted."""
    registry = MetricsRegistry()
    first = MultiQueryEngine({"q": "//a"}, metrics=registry)
    second = MultiQueryEngine({"q": "//a[b]"}, metrics=registry)

    def totals() -> tuple:
        registry.collect()
        return (registry.get("repro_multiq_events_total").get(),
                registry.get("repro_tokenizer_events_total").get(),
                registry.get("repro_multiq_emitted_total").get(query="q"),
                registry.get("repro_multiq_queries").get())

    first.evaluate("<r><a/><a/></r>")
    second.evaluate("<r><a/></r>")
    assert totals() == (10, 10, 2, 2)
    first.reset()
    assert totals() == (10, 10, 2, 2)
    first.evaluate("<r><a/></r>")
    assert totals() == (14, 14, 3, 2)
    second.remove_query("q")
    assert totals() == (14, 14, 3, 1)


def test_metrics_build_the_same_units():
    queries = {f"q{i}": f"//item[price < {i}]" for i in range(5)}
    queries["p"] = "//item/name"
    plain = MultiQueryEngine(queries)
    observed = MultiQueryEngine(queries, metrics=MetricsRegistry())
    assert observed.unit_count() == plain.unit_count() == 2
    assert ([type(unit.engine) for unit in observed._registry.units()]
            == [type(unit.engine) for unit in plain._registry.units()])
    assert type(XPathStream("//a[b]", metrics=MetricsRegistry()).engine) is TwigM


def test_removed_and_reset_units_keep_their_counts():
    doc = "<r><a><b/></a><a><b/></a></r>"
    registry = MetricsRegistry()
    engine = MultiQueryEngine({"q": "//a[b]", "p": "//a/b"}, metrics=registry)
    engine.evaluate(doc)
    before = machine_values(registry)
    engine.remove_query("q")
    engine.reset()
    after = machine_values(registry)
    for family in ("events", "pushes", "pops", "emitted"):
        name = f"repro_machine_{family}_total"
        assert after[name] == before[name], name
    # a restored engine carries the retired totals on
    resumed_registry = MetricsRegistry()
    MultiQueryEngine.restore(engine.snapshot(), metrics=resumed_registry)
    resumed = machine_values(resumed_registry)
    assert resumed["repro_machine_emitted_total"] == after["repro_machine_emitted_total"]


def test_stream_reset_keeps_totals():
    registry = MetricsRegistry()
    stream = XPathStream("//a[b]", metrics=registry)
    stream.evaluate("<a><b/></a>")
    stream.reset()
    stream.evaluate("<a><b/></a>")
    values = machine_values(registry)
    assert values["repro_machine_events_total"] == {"twigm": 8}
    assert values["repro_machine_emitted_total"] == {"twigm": 2}
    resumed = MetricsRegistry()
    XPathStream.restore(stream.snapshot(), metrics=resumed)
    assert machine_values(resumed) == values


def _split_run(make, restore, doc, cut):
    whole_registry = MetricsRegistry()
    whole = make(whole_registry)
    whole.feed_text(doc)
    whole.close()
    first = make(MetricsRegistry())
    first.feed_text(doc[:cut])
    resumed_registry = MetricsRegistry()
    resumed = restore(first.snapshot(), resumed_registry)
    resumed.feed_text(doc[cut:])
    resumed.close()
    return machine_values(whole_registry), machine_values(resumed_registry)


DOC = ("<site><item><quantity>1</quantity><name>x</name></item>"
       "<item><quantity>5</quantity><name>y</name></item></site>")


@pytest.mark.parametrize("cut", [0, 20, 40, len(DOC) - 3])
def test_stream_snapshot_continuity(cut):
    whole, resumed = _split_run(
        lambda registry: XPathStream("//item[quantity < 2]/name", metrics=registry),
        lambda state, registry: XPathStream.restore(state, metrics=registry),
        DOC, cut,
    )
    assert resumed == whole


@pytest.mark.parametrize("cut", [0, 20, 40, len(DOC) - 3])
def test_multiq_snapshot_continuity(cut):
    queries = {"a": "//item[quantity < 2]/name", "b": "//item[quantity < 9]/name",
               "c": "//item/name", "d": "/site/item[name]/quantity"}
    whole, resumed = _split_run(
        lambda registry: MultiQueryEngine(queries, metrics=registry),
        lambda state, registry: MultiQueryEngine.restore(state, metrics=registry),
        DOC, cut,
    )
    assert resumed == whole


def test_capture_with_old_obs_key_still_restores():
    stream = XPathStream("//a[b]")
    stream.feed_text("<a><b/>")
    state = stream.snapshot()
    machine = state["machine"]
    del machine["pushes"], machine["peak"]
    machine["obs"] = {
        "counts": {"events": 3, "pushes": 2, "pops": 1, "peak_entries": 2,
                   "emitted": 0},
        "live_entries": 1,
    }
    registry = MetricsRegistry()
    resumed = XPathStream.restore(state, metrics=registry)
    resumed.feed_text("</a>")
    assert resumed.close() == [1]
    values = machine_values(registry)
    assert values["repro_machine_pushes_total"] == {"twigm": 2}
    assert values["repro_machine_pops_total"] == {"twigm": 2}


def test_capture_without_counters_counts_live_entries_as_pushed():
    engine = TwigM("//a")
    engine.start_element("a", 1, 1)
    state = engine.snapshot_state()
    del state["pushes"], state["peak"]
    fresh = TwigM("//a")
    fresh.restore_state(state)
    figures = engine_figures(fresh)
    assert (figures["pushes"], figures["pops"], figures["peak_entries"]) == (1, 0, 1)


def test_unit_capture_without_event_count_restores_non_virgin():
    engine = MultiQueryEngine({"q": "//a[b]"})
    engine.feed_text("<r><a>")
    state = engine.snapshot()
    (unit,) = state["units"]
    assert unit["events"] == 1 and unit["virgin"] is False  # <r> gated away
    del unit["events"], unit["virgin"]
    resumed = MultiQueryEngine.restore(state)
    (restored,) = resumed._registry.units()
    assert restored.events == 0 and not restored.virgin


def test_total_work_is_sum_of_operations():
    # The in-transition operations live on the counting TwigM of
    # repro.bench.complexity, not on the production engines.
    counts = WorkCounts(pushes=1, pops=2, edge_checks=3, flag_sets=4,
                        uploads=5)
    assert counts.total_work() == 15


def test_counting_twigm_counts_are_the_engine_figures():
    engine = CountingTwigM(compile_query("//a[b]"), CollectingSink())
    feed(engine, "<a><b/></a>")
    figures = engine_figures(engine)
    assert figures["pushes"] == engine.counts.pushes == 2
    assert figures["pops"] == engine.counts.pops == 2
    assert figures["peak_entries"] == engine.counts.peak_entries == 2


def test_counting_twigm_keeps_historical_constructor():
    sink = CollectingSink()
    engine = CountingTwigM(compile_query("//a[b]"), sink)
    feed(engine, "<a><b/></a>")
    assert engine.counts.events == 4
    assert list(sink.results) == [1]
