"""Label-shape units ≡ one machine per query.

Queries equal up to the label of their one branch leaf
(``//a[b]``, ``//a[c]``, …) run as the members of one
:class:`~repro.multiq.registry.ShapeUnit`
(:class:`~repro.core.valueshape.ShapeTwigM`).  Every case compares each
member's result list — ids and order — with a dedicated
:class:`XPathStream`, and its id set with the navigational DOM oracle,
across random label vectors (duplicates, and labels equal to the root,
trunk or return label: ``//a[a]``, ``//a[b]//b``, ``//b[b]//b``), ``/``
and ``//`` branch axes, random documents, snapshot/restore at every
event boundary, mid-stream additions, member removal, value shapes
beside them and the queries that stay per-query units.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.machine import engine_figures
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.valueshape import ShapeTwigM
from repro.errors import CheckpointError
from repro.latency import DecisionLagProbe, LatencyClock
from repro.multiq import MultiQueryEngine
from repro.multiq.cli import main as multiq_main
from repro.multiq.registry import MultiplexSink, ShapeUnit
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string
from repro.xpath.querytree import compile_query
from tests.test_multiq_shapes import (
    _cached,
    _Quiet,
    assert_matches_oracles,
    dedicated,
    shape_units,
)

LABELS = "abcdr"

#: In-scope shapes; ``{l}`` takes the member's label.
SHAPES = (
    "//a[{l}]",  # eager: the root is the return node
    "//a[.//{l}]",
    "//a[{l}]//b",  # the root emits; the return node is elsewhere
    "//a[{l}]/b",
    "//b[{l}]//b",
    "//r//a[{l}]",
    "//a/b[.//{l}]",  # eager, below the root
    "//*[{l}]",
    "//a[{l}]/*",  # a materialised wildcard return node
    "//a[@k][{l}]",
    "//a[{l}]//a",
)


@st.composite
def documents(draw, max_depth: int = 4):
    """A small ``<r>`` document over ``a``–``d`` and ``r``, elements
    nesting and recursing, some carrying a ``k`` attribute."""

    def element(depth: int) -> str:
        tag = draw(st.sampled_from(LABELS))
        attribute = " k='1'" if draw(st.booleans()) else ""
        children = draw(st.integers(0, 3 if depth < max_depth else 0))
        inner = "".join(element(depth + 1) for _ in range(children))
        return f"<{tag}{attribute}>{inner}</{tag}>"

    return "<r>" + "".join(element(1) for _ in range(draw(st.integers(1, 3)))) + "</r>"


# -- whole engines ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=6),
    xml=documents(),
)
def test_members_equal_dedicated_streams(shape, labels, xml):
    queries = {f"q{i}": shape.format(l=label) for i, label in enumerate(labels)}
    events = list(parse_string(xml))
    engine = MultiQueryEngine(queries)
    assert engine.unit_count() == 1
    (unit,) = shape_units(engine)
    assert unit.engine.labels
    assert [label for _name, label in unit.members()] == labels
    assert_matches_oracles(queries, events, engine.evaluate(iter(events)))

    fired: dict = {name: [] for name in queries}
    callback = MultiQueryEngine(
        queries, on_match=lambda name, node_id: fired[name].append(node_id))
    callback.feed_events(events)
    assert fired == dedicated(queries, events)

    mixed = MultiQueryEngine({**queries, "path": "//a//b"})
    assert len(shape_units(mixed)) == 1
    got = mixed.evaluate(iter(events))
    assert got.pop("path") == XPathStream("//a//b").evaluate(iter(events))
    assert got == dedicated(queries, events)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=3),
    constants=st.lists(st.sampled_from(("0", "1", "5")), min_size=1, max_size=3),
    xml=documents(),
)
def test_value_and_label_shapes_in_one_engine(labels, constants, xml):
    queries = {}
    for shape in SHAPES[:4]:
        for label in labels:
            queries[f"l{len(queries)}"] = shape.format(l=label)
    for constant in constants:
        queries[f"v{len(queries)}"] = f"//a[b < {constant}]"
    events = list(parse_string(xml))
    engine = MultiQueryEngine(queries)
    assert engine.unit_count() == 5 and len(shape_units(engine)) == 5
    assert_matches_oracles(queries, events, engine.evaluate(iter(events)))


# -- lifecycle ----------------------------------------------------------------------

SMALL = ("<r><a><b/><c><b/></c><a><d/><b><b/></b></a></a>"
         "<a k='1'><c/><a><a/></a><b><c/></b></a><b><b><d/></b><c/></b>"
         "<a><d><b/></d><c/><b/></a></r>")
SMALL_EVENTS = list(parse_string(SMALL))

LIFECYCLE_QUERIES = {
    "ab": "//a[b]",
    "ac": "//a[c]",
    "aa": "//a[a]",
    "ab_twin": "//a[b]",
    "ad": "//a[d]",
    "ab_b": "//a[b]//b",
    "ac_b": "//a[c]//b",
    "bb_b": "//b[b]//b",
    "bd_b": "//b[d]//b",
    "a_desc_b": "//a[.//d]//b",
    "lt1": "//a[b < 1]",
    "lt9": "//a[c < 9]",
    "path": "//a/c",
}


def test_lifecycle_queries_share_label_units():
    engine = MultiQueryEngine(LIFECYCLE_QUERIES)
    assert [unit.names for unit in shape_units(engine)] == [
        ["ab", "ac", "aa", "ab_twin", "ad"], ["ab_b", "ac_b"], ["bb_b", "bd_b"],
        ["a_desc_b"], ["lt1"], ["lt9"],
    ]
    assert engine.unit_count() == 7
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
        assert sum(1 for unit in blob["units"] if unit.get("shape")) == 6
        resumed = MultiQueryEngine.restore(blob, on_match=on_match if callback else None)
        assert resumed.unit_count() == 7
        resumed.feed_events(SMALL_EVENTS[cut:])
        if callback:
            assert fired == expected, cut
        else:
            assert resumed.results() == expected, cut
        assert resumed.dispatch_stats() == stats, cut
        assert ([_cached(unit["machine"]) for unit in resumed.snapshot()["units"]]
                == [_cached(unit["machine"]) for unit in straight.snapshot()["units"]]), cut


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
        engine = MultiQueryEngine({"ab": "//a[b]", "ac": "//a[c]"})
        engine.feed_events(SMALL_EVENTS[:cut])
        before = engine.unit_count()
        shared = engine.registration("ab").unit
        # Only the root label opens the unit's gate: until <a>, it is cold.
        assert shared.virgin == (cut < 2)
        engine.add_query("late", "//a[d]")
        engine.add_query("late_twin", "//a[a]")
        late = engine.registration("late").unit
        assert (late is shared) == (cut < 2)
        assert engine.unit_count() == before + (cut >= 2)
        assert isinstance(late, ShapeUnit)
        assert engine.registration("late_twin").unit is late
        assert late.interest == ({"a", "b", "c", "d"} if cut < 2 else {"a", "d"})
        engine.feed_events(SMALL_EVENTS[cut:])
        results = engine.results()
        rest = SMALL_EVENTS[cut:]
        assert results["late"] == XPathStream("//a[d]").evaluate(iter(rest)), cut
        assert results["late_twin"] == XPathStream("//a[a]").evaluate(iter(rest)), cut
        assert results["ab"] == XPathStream("//a[b]").evaluate(iter(SMALL_EVENTS))


@pytest.mark.parametrize("leaving", [["ab"], ["ab", "ab_twin"], ["aa", "ad"],
                                     ["ab_b"], ["ab", "ac", "aa", "ab_twin", "ad"]])
def test_member_removal_at_every_boundary(leaving):
    expected = dedicated(LIFECYCLE_QUERIES, SMALL_EVENTS)
    for cut in range(len(SMALL_EVENTS) + 1):
        engine = MultiQueryEngine(LIFECYCLE_QUERIES)
        engine.feed_events(SMALL_EVENTS[:cut])
        units = engine.unit_count()
        for name in leaving:
            engine.remove_query(name)
        assert units - engine.unit_count() == (len(leaving) == 5)
        blob = json.loads(json.dumps(engine.snapshot()))
        engine.feed_events(SMALL_EVENTS[cut:])
        resumed = MultiQueryEngine.restore(blob)
        resumed.feed_events(SMALL_EVENTS[cut:])
        kept = {name: ids for name, ids in expected.items() if name not in leaving}
        assert engine.results() == kept, cut
        assert resumed.results() == kept, cut


def test_joined_labels_are_gated_on_the_root_stack():
    """A join routes the unit on the labels it gained: gated on the root
    stack, except the root's own label."""
    engine = MultiQueryEngine({"x": "//a[b]"})
    unit = engine.registration("x").unit
    engine.add_query("y", "//a[c]")
    engine.add_query("z", "//a[a]")
    assert engine.registration("y").unit is unit
    root_stack = unit.engine.root_stack
    (route,) = engine._router.routes_for_tag("c")
    assert route == (root_stack, root_stack, unit)
    (route,) = engine._router.routes_for_tag("a")
    assert route == (None, root_stack, unit)
    # A restore routes the unit on its whole interest at once: the
    # extended routes deliver exactly what those do.
    restored = MultiQueryEngine.restore(engine.snapshot())
    assert len(restored._router.routes_for_tag("c")) == 1
    engine.feed_events(SMALL_EVENTS)
    restored.feed_events(SMALL_EVENTS)
    assert engine.dispatch_stats() == restored.dispatch_stats()
    assert engine.results() == restored.results() == dedicated(
        {"x": "//a[b]", "y": "//a[c]", "z": "//a[a]"}, SMALL_EVENTS)


def test_the_leaf_dispatches_on_member_labels_only():
    """The representative's own label for the leaf is not dispatched
    unless a member has it: a restored unit whose members do not name
    it is not routed on it."""
    engine = MultiQueryEngine({"x": "//a[b]", "y": "//a[c]"})
    engine.remove_query("x")
    assert engine.results() == {"y": []}
    engine.feed_events(SMALL_EVENTS)
    assert engine.results() == dedicated({"y": "//a[c]"}, SMALL_EVENTS)
    first = MultiQueryEngine({"x": "//a[b]", "y": "//a[c]"})
    first.remove_query("x")
    resumed = MultiQueryEngine.restore(first.snapshot())
    assert resumed.registration("y").unit.interest == {"a", "c"}
    assert resumed._router.units_for_tag("b") == []
    machine = ShapeTwigM(compile_query("//b[b]//b"), MultiplexSink())
    machine.add_member("c", CollectingSink())
    assert machine.alphabet() == {"b", "c"}
    machine.run(parse_string("<r><b><b/><c/><b/></b></r>"))
    # The outer <b> pushes the root, each inner <b> the root and the
    # return node, and only <c> the leaf.
    assert engine_figures(machine)["pushes"] == 1 + 2 * 2 + 1


# -- scope ----------------------------------------------------------------------------


OUT_OF_SCOPE = {
    "a * branch": ("//{l}[*]", {}),
    "an attribute test on the leaf": ("//a[{l}[@k]]", {}),
    "two branches": ("//a[{l}][c]", {}),
    "a branch with a child": ("//a[{l}/c]", {}),
    "not()": ("//a[not({l})]", {}),
    "the trunk meets the chain below the root": ("//a/c[{l}]//b", {}),
    "earliest": ("//a[{l}]", {"emission": "earliest"}),
    "limits": ("//a[{l}]", {"limits": ResourceLimits(max_depth=50)}),
    "tracker": ("//a[{l}]", {"tracker": "tracker"}),
    "lag probe": ("//a[{l}]", {"lag_probe": "probe"}),
    "BranchM (XM2)": ("/r/a[{l}]", {}),
}


@pytest.mark.parametrize("case", list(OUT_OF_SCOPE))
def test_out_of_scope_queries_keep_per_query_units(case):
    template, options = OUT_OF_SCOPE[case]
    engine = MultiQueryEngine()
    queries = {}
    for name in "bcd":
        query = template.format(l=name)
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


def test_a_label_shape_capture_checks_its_members():
    engine = MultiQueryEngine({"x": "//a[b]", "y": "//a[c]"})
    engine.feed_events(SMALL_EVENTS[:6])
    blob = json.loads(json.dumps(engine.snapshot()))
    (unit,) = blob["units"]
    assert unit["shape"] is True and unit["queries"] == ["x", "y"]
    for query in ("//a[c]//b", "//b[c]", "//a[*]", "//a[b < 3]"):
        bad = json.loads(json.dumps(blob))
        bad["queries"][1]["query"] = query
        with pytest.raises(CheckpointError):
            MultiQueryEngine.restore(bad)


# -- the CLI ------------------------------------------------------------------------


def test_explain_prints_each_label_shape_once(tmp_path, capsys):
    path = tmp_path / "doc.xml"
    path.write_text(SMALL)
    code = multiq_main([
        "-e", "ab=//a[b]", "-e", "p=//a/c", "-e", "ac=//a[./c]",
        "-e", "lt1=//a[b < 1]", "-e", "bb=//b[b]//b", "--explain", "--count", str(path),
    ])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "shape: //a[$l]  [twigm, 2 members]",
        "  ab: $l = b",
        "  ac: $l = c",
        "p: //a/c  [dfa]",
        "shape: //a[b[. < $c]]  [twigm, 1 member]",
        "  lt1: $c = 1",
        "shape: //b[$l]//b  [twigm, 1 member]",
        "  bb: $l = b",
        "5 queries -> 4 machines",
    ]
