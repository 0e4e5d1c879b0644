"""Label-shape units ≡ one machine per query.

Queries equal up to the label of their one branch leaf
(``//a[b]``, ``//a[c]``, …), and up to the label of a leaf return node
below the root as well (``//a[b]//c``, ``//a[d]/b``, …), run as the
members of one :class:`~repro.multiq.registry.ShapeUnit`
(:class:`~repro.core.valueshape.ShapeTwigM`).  Every case compares each
member's result list — ids and order — with a dedicated
:class:`XPathStream`, and its id set with the navigational DOM oracle,
across random label vectors (duplicates, and labels equal to the root,
trunk or return label: ``//a[a]``, ``//a[b]//b``, ``//b[b]//b``), random
``(branch, return)`` pair vectors (a return label equal to its own
branch label, to another member's branch label or to the root label,
and duplicate pairs), ``/`` and ``//`` branch and return axes, random
documents, snapshot/restore at every event boundary, mid-stream
additions, member removal (also while an element with the leaving
member's return label is open), value shapes beside them and the
queries that stay per-query units.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.navigational import NavigationalDomEngine
from repro.core.machine import build_machine, engine_figures
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink
from repro.core.valueshape import ShapeTwigM, shape_scope
from repro.errors import CheckpointError
from repro.latency import DecisionLagProbe, LatencyClock
from repro.multiq import MultiQueryEngine
from repro.multiq.canon import shape_key, shape_text
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
    keys = [key for _name, key in unit.member_keys()]
    if unit.engine.tails:
        keys = [branch for branch, _return in keys]
    assert keys == labels
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
    machine.add_member(("c", "b"), CollectingSink())
    assert machine.alphabet() == {"b", "c"}
    machine.run(parse_string("<r><b><b/><c/><b/></b></r>"))
    # The outer <b> pushes the root, each inner <b> the root and the
    # return node, and only <c> the leaf.
    assert engine_figures(machine)["pushes"] == 1 + 2 * 2 + 1


# -- open return nodes ------------------------------------------------------------

#: Shapes whose return node is open too; ``{r}`` takes the return label.
RETURN_SHAPES = (
    "//a[{l}]//{r}",
    "//a[{l}]/{r}",
    "//a[.//{l}]//{r}",
    "//b[{l}]/{r}",
    "//*[{l}]//{r}",
    "//a[@k][{l}]//{r}",
)

#: Pair vectors with the coincidences the machine must keep apart.
COINCIDENCES = (
    [("b", "b")],  # the return label is the member's own branch label
    [("b", "c"), ("c", "b")],  # one member's return label is another's branch
    [("b", "a"), ("c", "a"), ("d", "c")],  # the return label is the root's
    [("b", "c"), ("b", "c"), ("d", "c"), ("c", "d")],  # duplicate pairs
)

PAIRS = st.one_of(
    st.sampled_from(COINCIDENCES),
    st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
             min_size=1, max_size=6),
)


def _queries(shape: str, pairs) -> dict:
    return {f"q{i}": shape.format(l=branch, r=tail)
            for i, (branch, tail) in enumerate(pairs)}


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(RETURN_SHAPES), pairs=PAIRS, xml=documents())
def test_return_label_members_equal_dedicated_streams(shape, pairs, xml):
    queries = _queries(shape, pairs)
    events = list(parse_string(xml))
    engine = MultiQueryEngine(queries)
    assert engine.unit_count() == 1
    (unit,) = shape_units(engine)
    assert unit.engine.tails
    assert [key for _name, key in unit.member_keys()] == [tuple(pair) for pair in pairs]
    assert_matches_oracles(queries, events, engine.evaluate(iter(events)))

    fired: dict = {name: [] for name in queries}
    callback = MultiQueryEngine(
        queries, on_match=lambda name, node_id: fired[name].append(node_id))
    callback.feed_events(events)
    assert fired == dedicated(queries, events)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(RETURN_SHAPES[:4]), pairs=PAIRS, xml=documents(3),
       callback=st.booleans())
def test_return_label_snapshot_at_every_event(shape, pairs, xml, callback):
    queries = _queries(shape, pairs)
    events = list(parse_string(xml))
    expected = dedicated(queries, events)
    for cut in range(len(events) + 1):
        fired: dict = {name: [] for name in queries}

        def on_match(name, node_id):
            fired[name].append(node_id)

        first = MultiQueryEngine(queries, on_match=on_match if callback else None)
        first.feed_events(events[:cut])
        blob = json.loads(json.dumps(first.snapshot()))
        resumed = MultiQueryEngine.restore(blob, on_match=on_match if callback else None)
        assert resumed.unit_count() == 1
        resumed.feed_events(events[cut:])
        assert (fired if callback else resumed.results()) == expected, cut


@pytest.mark.parametrize("template, text, tail", [
    ("//a[{l}]//{r}", "//a[$l]//$r", True),
    ("//a[./{l}]/{r}", "//a[$l]/$r", True),
    ("//a[.//{l}]//{r}", "//a[.//$l]//$r", True),
    ("//a[{l}]", "//a[$l]", False),
    ("//a[{l}]//*", "//a[$l]//*", False),
    ("//a[{l}]//c[@k]", "//a[$l]//c[@k]", False),
    ("//a[{l}]/c/d", "//a[$l]/c/d", False),
    ("//a[{l}]/*/c", "//a[$l]/*/c", False),
])
def test_shape_keys_leave_out_a_leaf_return_label(template, text, tail):
    """Only a plain leaf child of the root leaves its label out of the
    key; the return axis stays in it."""
    tree = compile_query(template.format(l="b", r="a"))
    key, found = shape_key(tree)
    assert found == (("b", "a") if tail else "b")
    assert shape_text(tree) == text
    assert shape_key(compile_query(template.format(l="y", r="z")))[0] == key
    assert shape_key(compile_query("//a[b]//c"))[0] != shape_key(compile_query("//a[b]/c"))[0]


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(("/", "//")), st.sampled_from(("a", "b", "*")),
              st.sampled_from(("", "", "[b]", "[.//c]", "[@k]", "[*]"))),
    min_size=1, max_size=4))
@example(steps=[("//", "*", ""), ("//", "b", "[b]"), ("/", "a", "")])
@example(steps=[("/", "*", ""), ("/", "*", "[.//c]"), ("//", "a", "")])
def test_the_key_and_the_machine_agree_on_the_return_label(steps):
    """The key leaves the return label out exactly when the machine
    opens the return node (``//*//b[c]/a`` folds its root step away)."""
    tree = compile_query("".join(axis + name + pred for axis, name, pred in steps))
    found = shape_key(tree)
    scope = shape_scope(build_machine(tree))
    if found is not None and scope is not None:
        assert (scope[2] is not None) == isinstance(found[1], tuple)


RETURN_QUERIES = {
    "ab_c": "//a[b]//c",
    "ab_d": "//a[b]//d",
    "ac_b": "//a[c]//b",
    "ab_c_twin": "//a[b]//c",
    "ad_a": "//a[d]//a",
    "bb_b": "//a[b]//b",
    "ac_child_c": "//a[c]/c",
    "ab_child_b": "//a[b]/b",
    "bb_d": "//b[b]/d",
    "bc_c": "//b[c]/c",
}


def test_return_queries_share_one_unit_per_root():
    engine = MultiQueryEngine(RETURN_QUERIES)
    assert [unit.names for unit in shape_units(engine)] == [
        ["ab_c", "ab_d", "ac_b", "ab_c_twin", "ad_a", "bb_b"],
        ["ac_child_c", "ab_child_b"], ["bb_d", "bc_c"],
    ]
    assert engine.unit_count() == 3
    assert_matches_oracles(RETURN_QUERIES, SMALL_EVENTS,
                           engine.evaluate(iter(SMALL_EVENTS)))


@pytest.mark.parametrize("callback", [False, True])
def test_return_snapshot_restore_at_every_event_boundary(callback):
    expected = dedicated(RETURN_QUERIES, SMALL_EVENTS)
    straight = MultiQueryEngine(RETURN_QUERIES)
    straight.feed_events(SMALL_EVENTS)
    stats = straight.dispatch_stats()
    two_labels = False
    for cut in range(len(SMALL_EVENTS) + 1):
        fired: dict = {name: [] for name in RETURN_QUERIES}

        def on_match(name, node_id):
            fired[name].append(node_id)

        first = MultiQueryEngine(RETURN_QUERIES, on_match=on_match if callback else None)
        first.feed_events(SMALL_EVENTS[:cut])
        blob = json.loads(json.dumps(first.snapshot()))
        (root, *_rest) = blob["units"][0]["machine"]["stacks"]
        two_labels = two_labels or any(
            candidates is not None and len(candidates) >= 2
            for _level, _flags, candidates, _text, _bits in root)
        resumed = MultiQueryEngine.restore(blob, on_match=on_match if callback else None)
        resumed.feed_events(SMALL_EVENTS[cut:])
        assert (fired if callback else resumed.results()) == expected, cut
        assert resumed.dispatch_stats() == stats, cut
        assert ([unit["machine"] for unit in resumed.snapshot()["units"]]
                == [unit["machine"] for unit in straight.snapshot()["units"]]), cut
    assert two_labels  # some cut holds candidates of two return labels


def test_return_mid_stream_add_gets_its_own_unit():
    for cut in range(len(SMALL_EVENTS) + 1):
        engine = MultiQueryEngine({"ab_c": "//a[b]//c", "ac_b": "//a[c]//b"})
        engine.feed_events(SMALL_EVENTS[:cut])
        shared = engine.registration("ab_c").unit
        engine.add_query("late", "//a[d]//d")
        late = engine.registration("late").unit
        assert isinstance(late, ShapeUnit) and late.engine.tails
        assert (late is shared) == shared.virgin == (cut < 2)
        engine.feed_events(SMALL_EVENTS[cut:])
        results = engine.results()
        assert results["late"] == XPathStream("//a[d]//d").evaluate(
            iter(SMALL_EVENTS[cut:])), cut
        assert results["ab_c"] == XPathStream("//a[b]//c").evaluate(iter(SMALL_EVENTS))
        assert results["ac_b"] == XPathStream("//a[c]//b").evaluate(iter(SMALL_EVENTS))


@pytest.mark.parametrize("leaving", [["ab_d"], ["ab_c"], ["ab_c", "ab_c_twin"],
                                     ["ad_a", "ac_b"], ["bb_b", "ab_d"],
                                     ["ac_child_c"], ["bb_d", "bc_c"]])
def test_return_member_removal_at_every_boundary(leaving):
    expected = dedicated(RETURN_QUERIES, SMALL_EVENTS)
    kept = {name: ids for name, ids in expected.items() if name not in leaving}
    for cut in range(len(SMALL_EVENTS) + 1):
        engine = MultiQueryEngine(RETURN_QUERIES)
        engine.feed_events(SMALL_EVENTS[:cut])
        for name in leaving:
            engine.remove_query(name)
        blob = json.loads(json.dumps(engine.snapshot()))
        engine.feed_events(SMALL_EVENTS[cut:])
        resumed = MultiQueryEngine.restore(blob)
        resumed.feed_events(SMALL_EVENTS[cut:])
        assert engine.results() == kept, cut
        assert resumed.results() == kept, cut


def test_a_member_leaves_while_its_return_element_is_open():
    """``ab_d`` is the only member returning ``d``: removed inside a
    ``<d>``, its return entry is left open, dropped by a later pop."""
    queries = {"ab_d": "//a[b]//d", "ab_c": "//a[b]//c", "ac_b": "//a[c]//b"}
    xml = "<r><a><b/><a><d><c/><b/></d><c/></a><d/><c/></a><a><c/><b/></a></r>"
    events = list(parse_string(xml))
    cut = next(i for i, event in enumerate(events) if getattr(event, "tag", None) == "d") + 1
    engine = MultiQueryEngine(queries)
    engine.feed_events(events[:cut])
    machine = engine.registration("ab_d").unit.engine
    engine.remove_query("ab_d")
    assert "d" not in machine.alphabet()
    assert len(machine.stack_of(machine.machine.return_node)) == 1
    engine.feed_events(events[cut:])
    assert engine.results() == dedicated(
        {"ab_c": "//a[b]//c", "ac_b": "//a[c]//b"}, events)
    assert engine_figures(machine)["live_entries"] == 0
    assert engine_figures(machine)["buffered_candidates"] == 0


def test_a_return_shape_capture_checks_its_members():
    engine = MultiQueryEngine({"x": "//a[b]//c", "y": "//a[c]//d"})
    engine.feed_events(SMALL_EVENTS[:12])
    blob = json.loads(json.dumps(engine.snapshot()))
    (unit,) = blob["units"]
    assert unit["shape"] is True and unit["queries"] == ["x", "y"]
    for query in ("//b[c]//d", "//a[c]//d[@k]", "//a[c]", "//a[c]//*", "//a[c]/d/e"):
        bad = json.loads(json.dumps(blob))
        bad["queries"][1]["query"] = query
        with pytest.raises(CheckpointError):
            MultiQueryEngine.restore(bad)
    # A plain candidate list is a capture whose members share one return
    # label; with two, it cannot be split.
    (root, *_rest) = unit["machine"]["stacks"]
    assert root and isinstance(root[0][2], dict)
    bad = json.loads(json.dumps(blob))
    entry = bad["units"][0]["machine"]["stacks"][0][0]
    entry[2] = sorted(node_id for ids in entry[2].values() for node_id in ids) or [1]
    with pytest.raises(CheckpointError):
        MultiQueryEngine.restore(bad)


RETURN_OUT_OF_SCOPE = {
    "a * return node": ("//a[{l}]//*", {}),
    "an attribute-tested return node": ("//a[b]//{l}[@k]", {}),
    "a return node with a child": ("//a[b]//{l}[c]", {}),
    "a return node below the trunk": ("//a[b]/c/{l}", {}),
    "a value shape with a return node": ("//a[b < 1]//{l}", {}),
    "earliest": ("//a[b]//{l}", {"emission": "earliest"}),
}


@pytest.mark.parametrize("case", list(RETURN_OUT_OF_SCOPE))
def test_return_out_of_scope_keeps_its_return_label(case):
    """Queries that differ in a return label the key does not leave out
    never share a machine; ``//a[$l]//*`` shares by branch label alone."""
    template, options = RETURN_OUT_OF_SCOPE[case]
    engine = MultiQueryEngine()
    queries = {name: template.format(l=name) for name in "bcd"}
    for name, query in queries.items():
        engine.add_query(name, query, **options)
    units = shape_units(engine)
    assert not any(unit.engine.tails for unit in units)
    assert engine.unit_count() == (1 if case == "a * return node" else 3)
    results = engine.evaluate(iter(SMALL_EVENTS))
    navigational = NavigationalDomEngine()
    for name, query in queries.items():
        emission = options.get("emission", "default")
        alone = XPathStream(query, emission=emission).evaluate(iter(SMALL_EVENTS))
        assert sorted(results[name]) == sorted(alone), name
        if emission == "default":
            assert results[name] == alone, name
        assert sorted(results[name]) == navigational.run(query, iter(SMALL_EVENTS)), name


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
        "shape: //b[$l]//$r  [twigm, 1 member]",
        "  bb: $l = b, $r = b",
        "5 queries -> 4 machines",
    ]
