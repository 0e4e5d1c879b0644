"""Property-based tests: multi-query and filtering ≡ individual runs."""

from hypothesis import given, settings, strategies as st

from repro.core.processor import XPathStream
from repro.multiq import MultiQueryEngine
from repro.stream.tokenizer import parse_string
from tests.test_equivalence_properties import xml_trees, xpath_queries


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
    queries=st.lists(xpath_queries(), min_size=1, max_size=4, unique=True),
)
def test_filterset_equals_individual_runs(xml, queries):
    """Filtering: the compiled engine's shared path unit beside
    per-query predicate machines."""
    named = {f"q{i}": query for i, query in enumerate(queries)}
    events = list(parse_string(xml))
    combined = MultiQueryEngine(named, compiled=True).evaluate(iter(events))
    for name, query in named.items():
        alone = XPathStream(query).evaluate(iter(events))
        assert sorted(combined[name]) == sorted(alone), (query, xml)
