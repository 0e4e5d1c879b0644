"""Tests for XML-fragment output (PAPER.md footnote 3) through
:func:`repro.transform.extract.select` / ``SubstreamExtractor``."""

from repro.stream.tokenizer import parse_string
from repro.transform.base import _FragmentTracker
from repro.transform.extract import Fragment, SubstreamExtractor, select
from tests.conftest import chain_xml


def texts(query, xml):
    return [fragment.text for fragment in select(xml, query)]


def buffered(extractor):
    """Candidates the extractor holds: open or awaiting a verdict."""
    return len(extractor.snapshot()["records"])


class TestFragmentOutput:
    def test_simple_fragment(self):
        assert texts("//b", "<a><b>text</b></a>") == ["<b>text</b>"]

    def test_fragment_with_structure(self):
        frags = texts("//b", "<a><b x='1'>t<c>u</c>v</b></a>")
        assert frags == ['<b x="1">t<c>u</c>v</b>']

    def test_leaf_fragments_self_close(self):
        assert texts("//b", "<a><b/></a>") == ["<b/>"]

    def test_predicate_decided_after_subtree(self):
        """The b subtree finishes long before d confirms it."""
        xml = "<a><b>kept</b><d/></a>"
        assert texts("//a[d]/b", xml) == ["<b>kept</b>"]

    def test_unconfirmed_candidates_produce_nothing(self):
        xml = "<a><b>dropped</b></a>"
        assert texts("//a[d]/b", xml) == []

    def test_multiple_fragments_in_order(self):
        xml = "<a><b>1</b><b>2</b></a>"
        assert texts("//b", xml) == ["<b>1</b>", "<b>2</b>"]

    def test_nested_candidates_both_captured(self):
        xml = "<a><b>out<b>in</b></b></a>"
        frags = texts("//b", xml)
        assert sorted(frags) == ["<b>in</b>", "<b>out<b>in</b></b>"]

    def test_text_escaped_in_fragments(self):
        frags = texts("//b", "<a><b>x &amp; y</b></a>")
        assert frags == ["<b>x &amp; y</b>"]

    def test_ids_accompany_fragments(self):
        extractor = SubstreamExtractor("//b")
        extractor.feed_events(parse_string("<a><b/><b/></a>"))
        assert [f.node_id for f in extractor.fragments] == [2, 3]

    def test_callback_mode(self):
        seen = []
        extractor = SubstreamExtractor(
            "//a[d]/b", on_fragment=lambda _q, _i, text: seen.append(text)
        )
        extractor.feed_events(parse_string("<a><b>hit</b><d/></a>"))
        assert seen == ["<b>hit</b>"]
        assert extractor.fragments == []

    def test_evaluate_from_source(self, tmp_path):
        path = tmp_path / "d.xml"
        path.write_text("<a><b>f</b></a>")
        extractor = SubstreamExtractor("//b")
        assert extractor.evaluate(str(path)) == [Fragment("select", 2, "<b>f</b>")]


class TestBufferGarbageCollection:
    def test_dead_candidates_are_freed_immediately(self):
        """A candidate whose predicates failed is dropped at the pop that
        kills its last stack entry, not at document end."""
        extractor = SubstreamExtractor("//a[d]/b")
        events = list(parse_string("<r><a><b>x</b></a><a><b>y</b><d/></a></r>"))
        # Feed through the first </a> (a without d): its b must be freed.
        extractor.feed_events(events[:6])
        assert buffered(extractor) == 0
        extractor.feed_events(events[6:])
        assert [f.text for f in extractor.fragments] == ["<b>y</b>"]
        assert buffered(extractor) == 0

    def test_pending_candidates_stay_buffered(self):
        extractor = SubstreamExtractor("//a[d]/b")
        events = list(parse_string("<a><b>x</b><d/></a>"))
        extractor.feed_events(events[:4])  # b closed, a still open, d unseen
        assert buffered(extractor) == 1

    def test_no_buffering_without_candidates(self):
        extractor = SubstreamExtractor("//zzz")
        extractor.feed_events(parse_string(chain_xml(5)))
        assert buffered(extractor) == 0
        assert extractor.fragments == []

    def test_all_buffers_freed_at_document_end(self):
        extractor = SubstreamExtractor("//a[d]//b[e]//c")
        extractor.feed_events(parse_string(chain_xml(6)))
        assert buffered(extractor) == 0
        assert len(extractor.fragments) == 1


class _Owner:
    """Stands in for the transform a tracker reports to."""

    def __init__(self):
        self.verdicts = []

    def _note_created(self, name, node_id):
        pass

    def _note_verdict(self, kind, name, node_id):
        self.verdicts.append((kind, node_id))


class TestRefcountTracker:
    def test_emitted_candidate_not_reported_dead(self):
        owner = _Owner()
        tracker = _FragmentTracker("q", owner)
        tracker.created(1)
        tracker.retained(1)
        tracker.emitted([1])
        tracker.released([1])
        tracker.released([1])
        assert owner.verdicts == [("emit", 1)]
        assert tracker.counts == {} and tracker.emitted_live == set()

    def test_unemitted_candidate_reported_dead_once(self):
        owner = _Owner()
        tracker = _FragmentTracker("q", owner)
        tracker.created(5)
        tracker.retained(5)
        tracker.released([5])
        assert owner.verdicts == []
        tracker.released([5])
        assert owner.verdicts == [("dead", 5)]
