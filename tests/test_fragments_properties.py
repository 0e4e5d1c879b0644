"""Property-based tests for fragment output through
:class:`~repro.transform.extract.SubstreamExtractor` (Hypothesis).

For random documents × random queries:

* the extracted fragment ids equal the id-mode results;
* every fragment is well-formed XML whose root tag is the matched
  element's tag and whose subtree equals the original element's;
* no candidate remains buffered after the document ends (the refcount
  tracker drains).
"""

from hypothesis import given, settings

from repro.core.processor import XPathStream
from repro.stream.document import build_document
from repro.stream.tokenizer import parse_string
from repro.stream.writer import element_to_string
from repro.transform.extract import SubstreamExtractor
from tests.test_equivalence_properties import xml_trees, xpath_queries


@settings(max_examples=200, deadline=None)
@given(xml=xml_trees(), query=xpath_queries())
def test_fragment_ids_match_id_mode(xml, query):
    events = list(parse_string(xml))
    expected = sorted(XPathStream(query).evaluate(iter(events)))
    extractor = SubstreamExtractor(query)
    extractor.feed_events(iter(events))
    assert sorted(f.node_id for f in extractor.fragments) == expected
    assert extractor.snapshot()["records"] == []


@settings(max_examples=150, deadline=None)
@given(xml=xml_trees(), query=xpath_queries())
def test_fragments_reproduce_the_matched_subtrees(xml, query):
    events = list(parse_string(xml, skip_whitespace=False))
    extractor = SubstreamExtractor(query)
    extractor.feed_events(iter(events))
    if not extractor.fragments:
        return
    document = build_document(iter(events))
    by_id = {element.node_id: element for element in document.iter_elements()}
    for fragment in extractor.fragments:
        element = by_id[fragment.node_id]
        # The fragment parses, is rooted at the right tag, and matches
        # the element's own serialization.
        reparsed = build_document(parse_string(fragment.text, skip_whitespace=False))
        assert reparsed.root.tag == element.tag
        assert fragment.text == element_to_string(element)
