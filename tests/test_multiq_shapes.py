"""Value-shape units ≡ one machine per query.

Queries equal up to the constant of their one value test run as the
members of one :class:`~repro.multiq.registry.ShapeUnit`
(:class:`~repro.core.valueshape.ShapeTwigM`).  Every case compares
each member's result list — ids and order — with a dedicated
:class:`XPathStream`, and its id set with the navigational DOM oracle,
across random constant vectors (duplicates, negative and positive ints
and floats, string
literals), all six comparison ops, string values that stress the
numeric coercion (``nan``, ``inf``, `` 1e3 ``, ``1_0``, ``''``, ``x``),
snapshot/restore at every event boundary, mid-stream additions, member
removal, path queries beside them and the queries that stay per-query
units.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.navigational import NavigationalDomEngine
from repro.core.processor import XPathStream
from repro.core.twigm import CandidateTracker
from repro.core.valueshape import ConstantIndex, ShapeTwigM
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.latency import DecisionLagProbe, LatencyClock
from repro.multiq import MultiQueryEngine
from repro.multiq.cli import main as multiq_main
from repro.multiq.registry import MultiplexSink, ShapeUnit
from repro.obs.metrics import MetricsRegistry
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import ValueTest, compile_query

OPS = ("=", "!=", "<", "<=", ">", ">=")

#: String values that stress ``float(data.strip())``.
VALUES = ("nan", "NaN", "inf", "-inf", "infinity", " 1e3 ", "1_0", "", "x",
          "0", "5", " 7 ", "10", "2.5", "-3", "1000", "1e400", "05")

#: In-scope shapes; ``{op}`` and ``{c}`` take the comparison.
SHAPES = (
    "//a[b {op} {c}]",  # eager: the return node is the value node's parent
    "//a[.//b {op} {c}]",
    "//a[b/c {op} {c}]",  # a two-node chain
    "//a[b {op} {c}]//c",  # the root emits; the return node is elsewhere
    "//a[c][b {op} {c}]/c",
    "//r//a[. {op} {c}]",  # the value node is the return node
    "//a/b[. {op} {c}]",
    "//a[b {op} {c}]/b",
    "//*[b {op} {c}]",
    "//a[. {op} {c}]",  # the value node is the root and the return node
    "//a[. {op} {c}]//c",  # the value node is the emitting root
)

NUMERIC = st.sampled_from(("0", "2.5", "5", "7", "10", "1000", "0.5", "3",
                          "-3", "-2.5", "-0.5", "-1000"))
STRINGS = st.sampled_from(("'5'", "'x'", "''", "'nan'", "' 1e3 '", "'1_0'",
                           "'10'", "'inf'", "' 7 '"))


@st.composite
def documents(draw, max_depth: int = 4):
    """A small ``<r>`` document over ``a``/``b``/``c`` with :data:`VALUES`
    as text, elements nesting (so string values concatenate) and
    recursing (``a`` inside ``a``)."""

    def element(depth: int) -> str:
        tag = draw(st.sampled_from("abc"))
        parts = [f"<{tag}>"]
        for _ in range(draw(st.integers(0, 3 if depth < max_depth else 1))):
            if depth < max_depth and draw(st.booleans()):
                parts.append(element(depth + 1))
            else:
                parts.append(escape(draw(st.sampled_from(VALUES))))
        parts.append(f"</{tag}>")
        return "".join(parts)

    return "<r>" + "".join(element(1) for _ in range(draw(st.integers(1, 3)))) + "</r>"


def dedicated(queries: dict, events: list) -> dict:
    return {name: XPathStream(query).evaluate(iter(events))
            for name, query in queries.items()}


def assert_matches_oracles(queries: dict, events: list, results: dict) -> None:
    expected = dedicated(queries, events)
    assert results == expected
    navigational = NavigationalDomEngine()
    for name, query in queries.items():
        assert sorted(results[name]) == navigational.run(query, iter(events)), name


def shape_units(engine: MultiQueryEngine) -> list:
    return [unit for unit in engine._registry.units()
            if isinstance(unit, ShapeUnit)]


# -- the constant index --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(OPS),
    numeric=st.booleans(),
    data=st.lists(st.one_of(st.sampled_from(VALUES), st.text(max_size=4)),
                  min_size=1, max_size=8),
    raw=st.lists(st.one_of(st.integers(0, 12).map(float),
                           st.floats(-5, 1200, allow_nan=False)),
                 min_size=1, max_size=8),
    strings=st.lists(st.one_of(st.sampled_from(VALUES), st.text(max_size=3)),
                     min_size=1, max_size=8),
)
def test_mask_equals_value_test_member_by_member(op, numeric, data, raw, strings):
    """One lookup gives exactly the members whose own test passes."""
    constants = raw if numeric else strings
    index = ConstantIndex(op, constants)
    for value in data:
        expected = sum(1 << slot for slot, constant in enumerate(constants)
                       if ValueTest(op, constant).evaluate(value))
        assert index.mask(value) == expected, (value, constants)


# -- whole engines ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    op=st.sampled_from(OPS),
    constants=st.one_of(st.lists(NUMERIC, min_size=1, max_size=6),
                        st.lists(STRINGS, min_size=1, max_size=6),
                        st.lists(st.one_of(NUMERIC, STRINGS), min_size=1, max_size=6)),
    xml=documents(),
)
def test_members_equal_dedicated_streams(shape, op, constants, xml):
    queries = {f"q{i}": shape.format(op=op, c=constant)
               for i, constant in enumerate(constants)}
    events = list(parse_string(xml))
    engine = MultiQueryEngine(queries)
    kinds = {constant.startswith("'") for constant in constants}
    assert engine.unit_count() == len(kinds)
    assert len(shape_units(engine)) == len(kinds)
    assert_matches_oracles(queries, events, engine.evaluate(iter(events)))

    fired: dict = {name: [] for name in queries}
    callback = MultiQueryEngine(
        queries, on_match=lambda name, node_id: fired[name].append(node_id))
    callback.feed_events(events)
    assert fired == dedicated(queries, events)

    mixed = MultiQueryEngine({**queries, "path": "//a//b"})
    assert len(shape_units(mixed)) == len(kinds)
    got = mixed.evaluate(iter(events))
    assert got.pop("path") == XPathStream("//a//b").evaluate(iter(events))
    assert got == dedicated(queries, events)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=3),
    constants=st.lists(NUMERIC, min_size=2, max_size=4),
    xml=documents(),
)
def test_several_shapes_in_one_engine(ops, constants, xml):
    queries = {}
    for shape_index, shape in enumerate(SHAPES[:4]):
        for op in ops:
            for constant in constants:
                queries[f"s{shape_index}{op}{len(queries)}"] = shape.format(
                    op=op, c=constant)
    queries["path"] = "//a//b"
    events = list(parse_string(xml))
    engine = MultiQueryEngine(queries)
    assert engine.unit_count() == 4 * len(set(ops)) + 1
    assert_matches_oracles(queries, events, engine.evaluate(iter(events)))


# -- lifecycle ----------------------------------------------------------------------

#: Siblings whose masks are not nested (``5`` then ``12``, ``1`` then
#: ``50``) make a parent entry's mask the OR of its children's.
SMALL = ("<r><a><b>5</b><c>x</c><a><b>12</b><c>7</c></a><b> 2.5 </b></a>"
         "<a><b>nan</b><c/></a><a><c><b>3</b></c><b>inf</b></a>"
         "<a><b>1</b><b>5</b><b>12</b><b>50</b><c/></a><a><b>x</b></a></r>")
SMALL_EVENTS = list(parse_string(SMALL))

LIFECYCLE_QUERIES = {
    "lt3": "//a[b < 3]",
    "lt6": "//a[b < 6]",
    "lt20": "//a[b < 20]",
    "lt6_twin": "//a[b < 6]",
    "eq5": "//a[b = 5]",
    "eq12": "//a[b = 12]",
    "ne5": "//a[b != 5]",
    "sx": "//a[b = 'x']",
    "snan": "//a[b = 'nan']",
    "c_gt4": "//a[.//b > 4]//c",
    "c_gt1": "//a[.//b > 1]//c",
    "c_gt100": "//a[.//b > 100]//c",
    "path": "//a/c",
}


def test_lifecycle_queries_share_five_shape_units():
    engine = MultiQueryEngine(LIFECYCLE_QUERIES)
    assert [sorted(unit.names) for unit in shape_units(engine)] == [
        ["lt20", "lt3", "lt6", "lt6_twin"], ["eq12", "eq5"], ["ne5"],
        ["snan", "sx"], ["c_gt1", "c_gt100", "c_gt4"],
    ]
    assert engine.unit_count() == 6
    assert_matches_oracles(LIFECYCLE_QUERIES, SMALL_EVENTS,
                           engine.evaluate(iter(SMALL_EVENTS)))


@pytest.mark.parametrize("callback", [False, True])
def test_snapshot_restore_at_every_event_boundary(callback):
    expected = dedicated(LIFECYCLE_QUERIES, SMALL_EVENTS)
    straight = MultiQueryEngine(LIFECYCLE_QUERIES)
    straight.feed_events(SMALL_EVENTS)
    stats = straight.dispatch_stats()
    for cut in range(len(SMALL_EVENTS) + 1):
        fired: dict = {name: [] for name in LIFECYCLE_QUERIES}

        def on_match(name, node_id):
            fired[name].append(node_id)

        first = MultiQueryEngine(LIFECYCLE_QUERIES,
                                 on_match=on_match if callback else None)
        first.feed_events(SMALL_EVENTS[:cut])
        blob = json.loads(json.dumps(first.snapshot()))
        assert sum(1 for unit in blob["units"] if unit.get("shape")) == 5
        resumed = MultiQueryEngine.restore(blob, on_match=on_match if callback else None)
        assert resumed.unit_count() == 6
        resumed.feed_events(SMALL_EVENTS[cut:])
        if callback:
            assert fired == expected, cut
        else:
            assert resumed.results() == expected, cut
        assert resumed.dispatch_stats() == stats, cut
        assert ([_cached(unit["machine"]) for unit in resumed.snapshot()["units"]]
                == [_cached(unit["machine"]) for unit in straight.snapshot()["units"]]), cut


def _cached(machine: dict) -> dict:
    """A machine state without the lazy DFA's cache-miss count: the
    transition cache is not checkpointed, so a resumed DFA misses again
    where the uninterrupted one hit."""
    if "dfa" in machine:
        machine["counters"].pop("misses")
    return machine


def test_text_fed_snapshot_at_every_character():
    expected = dedicated(LIFECYCLE_QUERIES, SMALL_EVENTS)
    for cut in range(0, len(SMALL) + 1, 3):
        first = MultiQueryEngine(LIFECYCLE_QUERIES)
        first.feed_text(SMALL[:cut])
        resumed = MultiQueryEngine.restore(json.loads(json.dumps(first.snapshot())))
        resumed.feed_text(SMALL[cut:])
        assert resumed.close() == expected, cut


def test_mid_stream_add_gets_its_own_unit():
    for cut in range(len(SMALL_EVENTS) + 1):
        engine = MultiQueryEngine({"lt6": "//a[b < 6]", "lt20": "//a[b < 20]"})
        engine.feed_events(SMALL_EVENTS[:cut])
        before = engine.unit_count()
        shared = engine.registration("lt6").unit
        # Only the root label opens the unit's gate: until <a>, it is cold.
        assert shared.virgin == (cut < 2)
        engine.add_query("late", "//a[b < 10]")
        engine.add_query("late_twin", "//a[b < 4]")
        late = engine.registration("late").unit
        assert (late is shared) == (cut < 2)
        assert engine.unit_count() == before + (cut >= 2)
        assert isinstance(late, ShapeUnit)
        assert engine.registration("late_twin").unit is late
        engine.feed_events(SMALL_EVENTS[cut:])
        results = engine.results()
        rest = SMALL_EVENTS[cut:]
        assert results["late"] == XPathStream("//a[b < 10]").evaluate(iter(rest)), cut
        assert results["late_twin"] == XPathStream("//a[b < 4]").evaluate(iter(rest))
        assert results["lt6"] == XPathStream("//a[b < 6]").evaluate(iter(SMALL_EVENTS))


@pytest.mark.parametrize("leaving", [["lt6"], ["lt3", "lt20"], ["c_gt4"],
                                     ["lt3", "lt6", "lt20", "lt6_twin"]])
def test_member_removal_at_every_boundary(leaving):
    expected = dedicated(LIFECYCLE_QUERIES, SMALL_EVENTS)
    for cut in range(len(SMALL_EVENTS) + 1):
        engine = MultiQueryEngine(LIFECYCLE_QUERIES)
        engine.feed_events(SMALL_EVENTS[:cut])
        units = engine.unit_count()
        for name in leaving:
            engine.remove_query(name)
        dropped = units - engine.unit_count()
        assert dropped == (1 if len(leaving) == 4 else 0)
        blob = json.loads(json.dumps(engine.snapshot()))
        engine.feed_events(SMALL_EVENTS[cut:])
        resumed = MultiQueryEngine.restore(blob)
        resumed.feed_events(SMALL_EVENTS[cut:])
        kept = {name: ids for name, ids in expected.items() if name not in leaving}
        assert engine.results() == kept, cut
        assert resumed.results() == kept, cut


def test_removing_every_member_drops_the_routes():
    engine = MultiQueryEngine({"a": "//a[b < 6]", "b": "//a[b < 20]", "p": "//c"})
    unit = engine.registration("a").unit
    engine.feed_events(SMALL_EVENTS[:5])
    engine.remove_query("b")
    engine.remove_query("a")
    assert unit not in [route[2] for route in engine._router.routes_for_tag("a")]
    engine.feed_events(SMALL_EVENTS[5:])
    assert engine.results() == {"p": XPathStream("//c").evaluate(iter(SMALL_EVENTS))}


def test_a_shape_capture_checks_its_members():
    engine = MultiQueryEngine({"a": "//a[b < 6]", "b": "//a[b < 20]"})
    engine.feed_events(SMALL_EVENTS[:6])
    blob = json.loads(json.dumps(engine.snapshot()))
    (unit,) = blob["units"]
    assert unit["shape"] is True and unit["queries"] == ["a", "b"]
    for query in ("//a[b = 6]", "//a[c < 6]", "//a[b < '6']"):
        bad = json.loads(json.dumps(blob))
        bad["queries"][1]["query"] = query
        with pytest.raises(CheckpointError):
            MultiQueryEngine.restore(bad)
    bad = json.loads(json.dumps(blob))
    bad["queries"][0]["query"] = bad["queries"][1]["query"] = "//a[b < 6][c < 2]"
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(bad)
    bad = json.loads(json.dumps(blob))
    for payload in bad["queries"]:
        payload["emission"] = "earliest"
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(bad)
    # Without the mark the entry is a per-query machine's and must hold one.
    bad = json.loads(json.dumps(blob))
    del bad["units"][0]["shape"]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(bad)


# -- scope ----------------------------------------------------------------------------


class _Quiet(CandidateTracker):
    def created(self, node_id):
        pass

    def retained(self, node_id):
        pass

    def released(self, node_ids):
        pass

    def emitted(self, node_ids):
        pass


OUT_OF_SCOPE = {
    "two value nodes": ("//a[b < {c}][c < 9]", {}),
    "or": ("//a[b < {c} or c]", {}),
    "not": ("//a[not(b < {c})]", {}),
    "value on a return node below a predicate": ("//a[c]/b[. < {c}]", {}),
    "value and return nodes meeting below the root": ("//r[c]//a[b < {c}]/b", {}),
    "earliest": ("//a[b < {c}]", {"emission": "earliest"}),
    "limits": ("//a[b < {c}]", {"limits": ResourceLimits(max_depth=50)}),
    "tracker": ("//a[b < {c}]", {"tracker": "tracker"}),
    "lag probe": ("//a[b < {c}]", {"lag_probe": "probe"}),
}


@pytest.mark.parametrize("case", list(OUT_OF_SCOPE))
def test_out_of_scope_queries_keep_per_query_units(case):
    template, options = OUT_OF_SCOPE[case]
    engine = MultiQueryEngine()
    queries = {}
    for name, constant in (("x", 3), ("y", 6), ("z", 20)):
        query = template.format(c=constant)
        queries[name] = query
        extra = dict(options)
        if extra.get("tracker"):
            extra["tracker"] = _Quiet()
        if extra.get("lag_probe"):
            extra["lag_probe"] = DecisionLagProbe(LatencyClock())
        engine.add_query(name, query, **extra)
    assert engine.unit_count() == 3
    assert not shape_units(engine)
    results = engine.evaluate(iter(SMALL_EVENTS))
    for name, query in queries.items():
        emission = options.get("emission", "default")
        alone = XPathStream(query, emission=emission).evaluate(iter(SMALL_EVENTS))
        assert sorted(results[name]) == sorted(alone), name


def test_instrumented_engines_run_shape_units():
    queries = {"x": "//a[b < 3]", "y": "//a[b < 6]"}
    registry = MetricsRegistry()
    engine = MultiQueryEngine(queries, metrics=registry)
    assert engine.unit_count() == 1 and len(shape_units(engine)) == 1
    assert engine.evaluate(iter(SMALL_EVENTS)) == dedicated(queries, SMALL_EVENTS)
    registry.collect()
    emitted = registry.get("repro_machine_emitted_total").get(engine="twigm")
    assert emitted == sum(engine.emitted_counts().values())


def test_the_machine_rejects_out_of_scope_queries():
    for query in ("//a[b < 3][c < 9]", "//a[c]/b[. < 3]", "//a[b < 3 or c]",
                  "//a[b][c]", "//a[*]", "//a"):
        with pytest.raises(UnsupportedQueryError):
            ShapeTwigM(compile_query(query), MultiplexSink())


# -- the CLI ------------------------------------------------------------------------


def test_explain_prints_each_shape_once(tmp_path, capsys):
    path = tmp_path / "doc.xml"
    path.write_text(SMALL)
    code = multiq_main([
        "-e", "lt6=//a[b < 6]", "-e", "p=//a/c", "-e", "lt20=//a[b < 20]",
        "-e", "sx=//a[b = 'x']", "--explain", "--count", str(path),
    ])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "shape: //a[b[. < $c]]  [twigm, 2 members]",
        "  lt6: $c = 6",
        "  lt20: $c = 20",
        "p: //a/c  [dfa]",
        "shape: //a[b[. = $c]]  [twigm, 1 member]",
        "  sx: $c = 'x'",
        "4 queries -> 3 machines",
    ]
