"""Property-based differential testing (Hypothesis).

Random documents × random XP{/,//,*,[]} queries: the streaming TwigM
evaluator must agree with the navigational DOM oracle on every pair.
This is the strongest correctness check in the suite — it explores
recursion patterns, predicate placements and axis mixes far beyond the
curated cases.
"""

import json

from hypothesis import example, given, settings, strategies as st

from repro.baselines.navigational import NavigationalDomEngine
from repro.bench.systems import TwigmEngine
from repro.core.processor import XPathStream
from repro.core.results import CollectingSink, ResultSink
from repro.stream.document import build_document
from repro.stream.tokenizer import parse_string
from repro.stream.writer import events_to_string

TAGS = ("a", "b", "c", "d")
ORACLE = NavigationalDomEngine()
TWIGM = TwigmEngine()


# -- random documents --------------------------------------------------------

@st.composite
def xml_trees(draw, depth=0, tags=TAGS):
    tag = draw(st.sampled_from(tags))
    attrs = ""
    if draw(st.booleans()):
        value = draw(st.integers(0, 3))
        attrs = f" k='{value}'"
    if depth >= 4:
        children = []
    else:
        children = draw(
            st.lists(xml_trees(depth=depth + 1, tags=tags), min_size=0, max_size=3)
        )
    text = draw(st.sampled_from(["", "", "", "1", "2", "x"]))
    return f"<{tag}{attrs}>{text}{''.join(children)}</{tag}>"


# -- random queries ----------------------------------------------------------

@st.composite
def predicate_atoms(draw, depth, axes=("/", "//")):
    kind = draw(st.sampled_from(["path", "attr", "value", "attr_value"]))
    if kind == "attr":
        return "@k"
    if kind == "attr_value":
        return f"@k = '{draw(st.integers(0, 3))}'"
    if kind == "value":
        return f". = '{draw(st.sampled_from(['1', '2', 'x']))}'"
    steps = draw(st.integers(1, 2)) if depth < 2 else 1
    parts = []
    for index in range(steps):
        axis = draw(st.sampled_from(axes))
        name = draw(st.sampled_from(TAGS))
        if index == 0:
            parts.append(name if axis == "/" else f".//{name}")
        else:
            parts.append(f"{axis}{name}")
    return "".join(parts)


@st.composite
def predicates(draw, depth, axes=("/", "//")):
    """A bracketed predicate, sometimes with boolean connectives."""
    shape = draw(st.sampled_from(["atom", "atom", "atom", "or", "and", "not"]))
    if shape == "atom":
        return f"[{draw(predicate_atoms(depth=depth, axes=axes))}]"
    first = draw(predicate_atoms(depth=depth, axes=axes))
    second = draw(predicate_atoms(depth=depth, axes=axes))
    if shape == "or":
        return f"[{first} or {second}]"
    if shape == "and":
        return f"[{first} and {second}]"
    return f"[not({first})]"


@st.composite
def xpath_queries(draw, axes=("/", "//"), names=TAGS + ("*",), branches=True):
    """A random query; ``branches=False`` keeps it in XP{/,//,*}."""
    n_steps = draw(st.integers(1, 4))
    parts = []
    for index in range(n_steps):
        axis = draw(st.sampled_from(axes))
        name = draw(st.sampled_from(names))
        step = f"{axis}{name}"
        if branches and name != "*" and draw(st.integers(0, 3)) == 0:
            step += draw(predicates(depth=1, axes=axes))
        parts.append(step)
    return "".join(parts)


# -- properties ---------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(xml=xml_trees(), query=xpath_queries())
def test_twigm_agrees_with_oracle(xml, query):
    events = list(parse_string(xml))
    expected = sorted(ORACLE.run(query, iter(events)))
    actual = sorted(TWIGM.run(query, iter(events)))
    assert actual == expected, f"{query!r} over {xml!r}"


@settings(max_examples=150, deadline=None)
@given(xml=xml_trees(), query=xpath_queries())
def test_dispatched_engine_agrees_with_oracle(xml, query):
    """The PathM/BranchM fast paths are equivalent to TwigM."""
    events = list(parse_string(xml))
    expected = sorted(ORACLE.run(query, iter(events)))
    actual = sorted(XPathStream(query).evaluate(iter(events)))
    assert actual == expected, f"{query!r} over {xml!r}"


@settings(max_examples=200, deadline=None)
@given(xml=xml_trees(), query=xpath_queries(branches=False),
       cuts=st.lists(st.integers(0, 400), max_size=6),
       restore_at=st.integers(0, 6),
       state_cap=st.sampled_from([1, 2, None]))
@example(xml="<a><b><a><b/></a></b></a>", query="//a/*", cuts=[3, 9],
         restore_at=1, state_cap=2)
# The cap trips at <b> with <a> open: the fallback must replay <a>.
@example(xml="<a><b><c/></b></a>", query="//a/b/c", cuts=[],
         restore_at=1, state_cap=2)
def test_default_path_stream_agrees_with_pathm_and_oracle(
        xml, query, cuts, restore_at, state_cap):
    """Predicate-free queries run on the lazy DFA by default.  Fed in
    random chunks, snapshotted and restored at one chunk boundary, and
    with a state cap that may trip its PathM fallback, it confirms the
    oracle's ids in document order, as PathM does."""
    expected = sorted(ORACLE.run(query, iter(parse_string(xml))))
    assert XPathStream(query, engine="pathm").evaluate(xml) == expected
    bounds = sorted({cut % (len(xml) + 1) for cut in cuts} | {0, len(xml)})
    chunks = [xml[start:stop] for start, stop in zip(bounds, bounds[1:])]
    at = restore_at % (len(chunks) + 1)
    stream = XPathStream(query, state_cap=state_cap)
    assert stream.engine_name == "dfa"
    for index, chunk in enumerate(chunks):
        if index == at:
            stream = XPathStream.restore(json.loads(json.dumps(stream.snapshot())))
        stream.feed_text(chunk)
    if at == len(chunks):
        stream = XPathStream.restore(json.loads(json.dumps(stream.snapshot())))
    assert stream.close() == expected, f"{query!r} over {xml!r}"


@settings(max_examples=150, deadline=None)
@given(xml=xml_trees())
def test_tokenizer_round_trip(xml):
    """parse → serialize → parse is the identity on events."""
    events = list(parse_string(xml, skip_whitespace=False))
    serialized = events_to_string(iter(events))
    assert list(parse_string(serialized, skip_whitespace=False)) == events


@settings(max_examples=100, deadline=None)
@given(xml=xml_trees())
def test_document_round_trip(xml):
    events = list(parse_string(xml, skip_whitespace=False))
    document = build_document(iter(events))
    assert list(document.to_events()) == events


@settings(max_examples=100, deadline=None)
@given(xml=xml_trees(), query=xpath_queries())
def test_twigm_stack_invariants(xml, query):
    """Stack levels are strictly increasing and bounded by the depth."""
    from repro.core.twigm import TwigM
    from repro.stream.events import document_depth

    events = list(parse_string(xml))
    depth = document_depth(iter(events))
    machine = TwigM(query)
    for event in events:
        machine.feed([event])
        for node in machine.machine.iter_nodes():
            stack = machine.stack_of(node)
            levels = [entry.level for entry in stack]
            assert levels == sorted(set(levels)), "levels strictly increasing"
            assert len(stack) <= depth, "stack bounded by document depth"
    assert machine.total_stack_entries() == 0


# -- emission contract (repro.core.results) ------------------------------------

class RecordingSink(ResultSink):
    """Logs raw machine emissions, then delivers them to a collector."""

    def __init__(self):
        self.log = []
        self.collected = CollectingSink()

    def emit(self, node_id):
        self.log.append(("emit", [node_id]))
        self.collected.emit(node_id)

    def emit_all(self, node_ids):
        node_ids = list(node_ids)
        self.log.append(("emit_all", node_ids))
        self.collected.emit_all(node_ids)

    def end_epoch(self):
        self.log.append(("end_epoch", []))
        self.collected.end_epoch()


def _emission_machines(query):
    """(label, machine, [(query, recording sink)]) for every machine and
    mode that evaluates ``query``."""
    from repro.compile.dfa import DfaPathM
    from repro.core.branchm import BranchM
    from repro.core.pathm import PathM
    from repro.core.twigm import TwigM
    from repro.errors import UnsupportedQueryError

    factories = [
        ("pathm", lambda sink: PathM(query, sink=sink)),
        ("dfa", lambda sink: DfaPathM(query, sink=sink)),
        *[(f"{name}-{mode}", lambda sink, cls=cls, options=options, mode=mode:
           cls(query, sink=sink, emission=mode, **options))
          for mode in ("default", "earliest")
          for name, cls, options in (("branchm", BranchM, {}),
                                     ("twigm", TwigM, {}),
                                     ("twigm-buffered", TwigM, {"eager": False}))],
    ]
    for label, factory in factories:
        sink = RecordingSink()
        try:
            machine = factory(sink)
        except UnsupportedQueryError:
            continue
        members = [(query, sink)]
        if label == "dfa":
            member = RecordingSink()
            machine.add_member("//b//*", member)
            members.append(("//b//*", member))
        yield label, machine, members


def _check_emissions(label, query, events, sink):
    where = f"{label} {query!r}"
    emitted, released, retired = set(), set(), set()
    for kind, node_ids in sink.log:
        if kind == "end_epoch":
            retired |= released
            released = set()
            continue
        assert not retired & set(node_ids), f"{where}: id crossed an epoch end"
        if kind == "emit":
            assert node_ids[0] not in emitted, f"{where}: emit repeated an id"
            emitted.add(node_ids[0])
        else:
            released.update(node_ids)
    expected = sorted(ORACLE.run(query, iter(events)))
    assert sorted(sink.collected.results) == expected, where


#: Two tags make deep self-nesting — where ``//`` uploads copy one
#: candidate into several root entries — the common case, not the rare one.
RECURSIVE_TAGS = ("a", "b")


@settings(max_examples=300, deadline=None)
@given(xml=xml_trees(tags=RECURSIVE_TAGS),
       query=st.one_of(
           xpath_queries(names=RECURSIVE_TAGS + ("*",)),
           # BranchM's XP{/,[]}: child axes only, no wildcard.
           xpath_queries(axes=("/",), names=RECURSIVE_TAGS),
       ))
# Both root entries of a nested ``a`` release the inner ``b``.
@example(xml="<a><a><b/></a></a>", query="//a//b")
@example(xml="<a><b/><a><b/></a></a>", query="//a[b]//b")
def test_machines_declare_repeatable_emissions(xml, query):
    """``emit`` is a new id; ``emit_all`` ids never outlive their root
    epoch; the sink, de-duplicating only within epochs, equals the oracle
    — for every machine, eager and buffered, in both emission modes."""
    events = list(parse_string(xml))
    for label, machine, members in _emission_machines(query):
        machine.feed(iter(events))
        for member_query, sink in members:
            _check_emissions(label, member_query, events, sink)
