"""Property-based tests: multi-query and filtering ≡ individual runs."""

import json
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.events import EndElement, StartElement
from repro.stream.tokenizer import parse_string
from tests.test_equivalence_properties import ORACLE, xml_trees, xpath_queries


@settings(max_examples=100, deadline=None)
@given(
    xml=xml_trees(),
    queries=st.lists(xpath_queries(), min_size=1, max_size=4, unique=True),
)
def test_multiquery_equals_individual_runs(xml, queries):
    named = {f"q{i}": query for i, query in enumerate(queries)}
    events = list(parse_string(xml))
    combined = MultiQueryEngine(named).evaluate(iter(events))
    for name, query in named.items():
        alone = XPathStream(query).evaluate(iter(events))
        assert sorted(combined[name]) == sorted(alone), (query, xml)


@settings(max_examples=100, deadline=None)
@given(
    xml=xml_trees(),
    queries=st.lists(xpath_queries(branches=False), min_size=1, max_size=6),
)
def test_filterset_equals_individual_runs(xml, queries):
    """Filtering: path queries (duplicates included) as the members of
    one shared lazy DFA ≡ one PathM per query."""
    named = {f"q{i}": query for i, query in enumerate(queries)}
    events = list(parse_string(xml))
    engine = MultiQueryEngine(named)
    assert engine.unit_count() == 1
    combined = engine.evaluate(iter(events))
    for name, query in named.items():
        assert combined[name] == XPathStream(query).evaluate(iter(events)), (query, xml)


def cold_reference(query: str, events: list, start: int) -> list[int]:
    """The oracle's solutions for ``query`` started cold before
    ``events[start]``: the elements open there are renamed to a tag no
    query names (an ancestor the query never saw matches only a ``'*'``
    step that is not its last), and the ids met before are dropped."""
    open_ids: list[int] = []
    for event in events[:start]:
        if isinstance(event, StartElement):
            open_ids.append(event.node_id)
        elif isinstance(event, EndElement):
            open_ids.pop()
    hidden = set(open_ids)
    seen = max((event.node_id for event in events[:start]
                if isinstance(event, StartElement)), default=0)
    renamed, stack = [], []
    for event in events:
        if isinstance(event, StartElement):
            stack.append(event.node_id)
            if event.node_id in hidden:
                event = replace(event, tag="z")
        elif isinstance(event, EndElement) and stack.pop() in hidden:
            event = replace(event, tag="z")
        renamed.append(event)
    return [node_id for node_id in sorted(ORACLE.run(query, iter(renamed)))
            if node_id > seen]


@settings(max_examples=200, deadline=None)
@given(
    xml=xml_trees(),
    queries=st.lists(xpath_queries(branches=False), min_size=1, max_size=6),
    late=xpath_queries(branches=False),
    cuts=st.lists(st.integers(0, 400), max_size=6),
    add_at=st.integers(0, 6),
    restore_at=st.integers(0, 6),
)
@example(xml="<a><b></b></a>", queries=["//a"], late="//a/b", cuts=[3],
         add_at=1, restore_at=2)
@example(xml="<a><c><b></b></c></a>", queries=["//c"], late="//*/b", cuts=[6],
         add_at=1, restore_at=1)
def test_path_query_sets_match_the_oracle(xml, queries, late, cuts, add_at, restore_at):
    """Random XP{/,//,*} sets on the default engine (one shared lazy DFA,
    routed by alphabet), fed in random text chunks, with one query added
    cold and one snapshot/restore at random chunk boundaries, against
    the navigational DOM oracle."""
    cuts = sorted(min(cut, len(xml)) for cut in cuts)
    chunks = [xml[a:b] for a, b in zip([0, *cuts], [*cuts, len(xml)])]
    named = {f"q{i}": query for i, query in enumerate(queries)}
    engine = MultiQueryEngine(named)
    added = 0
    for index in range(len(chunks) + 1):
        if index == min(add_at, len(chunks)):
            added = engine.dispatch_stats().events
            engine.add_query("late", late)
        if index == min(restore_at, len(chunks)):
            engine = MultiQueryEngine.restore(json.loads(json.dumps(engine.snapshot())))
        if index < len(chunks):
            engine.feed_text(chunks[index])
    assert engine.unit_count() <= 2
    got = engine.close()
    events = list(parse_string(xml))
    for name, query in named.items():
        assert got[name] == sorted(ORACLE.run(query, iter(events))), (query, xml)
    assert got["late"] == cold_reference(late, events, added), (late, xml, added)
