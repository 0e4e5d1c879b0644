"""Fault injection: seeded corruption campaigns and chunk-boundary hazards."""

from __future__ import annotations

import pytest

from repro import XPathStream
from repro.bench.hotpath import reference_events
from repro.errors import ResourceLimitError, XmlSyntaxError
from repro.stream.events import (
    Characters,
    StartElement,
    validate_events,
    well_nested,
)
from repro.stream.faults import (
    FaultyChunks,
    FaultyEvents,
    InjectedFault,
    byte_split_chunks,
    corrupt_text,
)
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.stream.tokenizer import parse_chunks, parse_string

from tests.conftest import chain_xml

BASE_DOCUMENT = (
    "<catalog>"
    "<book id='b1'><title>Streams &amp; Trees</title><price>25</price></book>"
    "<book id='b2'><title>café ☃</title><price>40</price></book>"
    "<note><![CDATA[raw <markup> here]]></note>"
    "</catalog>"
)


class TestDeterminism:
    def test_corrupt_text_reproducible(self):
        a = corrupt_text(BASE_DOCUMENT, seed=7, faults=3)
        b = corrupt_text(BASE_DOCUMENT, seed=7, faults=3)
        assert a == b

    def test_different_seeds_differ(self):
        mutants = {corrupt_text(BASE_DOCUMENT, seed=s)[0] for s in range(20)}
        assert len(mutants) > 1

    def test_faults_recorded(self):
        _, applied = corrupt_text(BASE_DOCUMENT, seed=3, faults=4)
        assert len(applied) == 4
        assert all(isinstance(f, InjectedFault) for f in applied)

    def test_faulty_chunks_replayable(self):
        wrapped = FaultyChunks(BASE_DOCUMENT, seed=11, faults=2)
        assert list(wrapped) == list(wrapped)


class TestByteSplitLossless:
    def test_concatenation_preserved(self):
        for seed in range(50):
            chunks = byte_split_chunks(BASE_DOCUMENT, seed=seed)
            assert "".join(chunks) == BASE_DOCUMENT

    def test_multibyte_boundaries_survive_tokenizer(self):
        expected = list(parse_string(BASE_DOCUMENT))
        for seed in range(25):
            chunks = byte_split_chunks(BASE_DOCUMENT, seed=seed, max_chunk=3)
            assert list(parse_chunks(chunks)) == expected

    def test_multibyte_boundaries_survive_expat(self):
        """The strict tokenizer (Expat) against the Python scanner."""
        expected = reference_events(BASE_DOCUMENT)
        for seed in range(25):
            chunks = byte_split_chunks(BASE_DOCUMENT, seed=seed, max_chunk=3)
            assert list(parse_chunks(chunks)) == expected


class TestChunkBoundaryHazards:
    """Entities, CDATA markers, and tag names split across feed() calls."""

    HAZARDS = [
        ("<a>x&am", "p;y</a>", ["x&y"]),
        ("<a>&#x2", "603;</a>", ["☃"]),
        ("<a><![CDA", "TA[<raw>]]></a>", ["<raw>"]),
        ("<a><![CDATA[x]]", "></a>", ["x"]),
        ("<lo", "ng-name/>", []),
        ("<a attr='va", "lue'/>", []),
        ("<a><!-- com", "ment --></a>", []),
    ]

    @pytest.mark.parametrize("head,tail,texts", HAZARDS)
    def test_tokenizer_handles_split(self, head, tail, texts):
        events = list(parse_chunks([head, tail]))
        validate_events(events)
        assert [e.text for e in events if isinstance(e, Characters)] == texts

    @pytest.mark.parametrize("head,tail,texts", HAZARDS)
    def test_expat_handles_split(self, head, tail, texts):
        """The strict tokenizer (Expat) against the Python scanner."""
        events = list(parse_chunks([head, tail]))
        assert events == reference_events([head, tail])
        assert [e.text for e in events if isinstance(e, Characters)] == texts

    def test_every_split_point_of_document(self):
        expected = list(parse_string(BASE_DOCUMENT))
        for cut in range(1, len(BASE_DOCUMENT)):
            chunks = [BASE_DOCUMENT[:cut], BASE_DOCUMENT[cut:]]
            assert list(parse_chunks(chunks)) == expected, f"cut at {cut}"


class TestCorruptionCampaign:
    """The headline guarantee: ≥200 seeded corruptions under ``repair``
    never raise, never violate well-nesting, and every recovery action
    emits a diagnostic."""

    SEEDS = range(200)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repair_never_raises_and_stays_well_nested(self, seed):
        wrapped = FaultyChunks(BASE_DOCUMENT, seed=seed, faults=1 + seed % 4)
        diagnostics: list[StreamDiagnostic] = []
        events = list(
            parse_chunks(
                wrapped,
                policy=RecoveryPolicy.REPAIR,
                on_diagnostic=diagnostics.append,
            )
        )
        assert well_nested(events), repr(wrapped)
        validate_events(events, allow_empty=True)
        for d in diagnostics:
            assert d.action in ("skipped", "repaired")
            assert d.message and d.line >= 1

    @pytest.mark.parametrize("seed", range(0, 200, 5))
    def test_skip_never_raises_either(self, seed):
        wrapped = FaultyChunks(BASE_DOCUMENT, seed=seed, faults=2)
        events = list(parse_chunks(wrapped, policy=RecoveryPolicy.SKIP))
        assert well_nested(events), repr(wrapped)

    @pytest.mark.parametrize("seed", range(0, 200, 5))
    def test_full_stream_pipeline_survives(self, seed):
        """XPathStream under repair + hardened limits: no exception besides
        an (acceptable) resource-limit trip, and close() always returns."""
        wrapped = FaultyChunks(BASE_DOCUMENT, seed=seed, faults=3)
        stream = XPathStream(
            "//book[price]//title",
            policy="repair",
            limits=ResourceLimits.hardened(),
        )
        try:
            for chunk in wrapped:
                stream.feed_text(chunk)
            ids = stream.close()
        except ResourceLimitError:
            return
        assert all(isinstance(i, int) for i in ids)

    def test_strict_policy_catches_most_corruptions(self):
        """Sanity: the campaign is actually injecting damage — strict mode
        must reject a healthy share of the same mutants."""
        rejected = 0
        for seed in range(100):
            wrapped = FaultyChunks(BASE_DOCUMENT, seed=seed, faults=2)
            try:
                list(parse_chunks(wrapped))
            except XmlSyntaxError:
                rejected += 1
        assert rejected > 30


class TestEventFaults:
    def test_dropped_end_detected_by_validator(self):
        base = list(parse_string(chain_xml(3, with_predicates=False)))
        damaged = 0
        for seed in range(40):
            mutated = list(FaultyEvents(base, seed=seed, faults=1))
            if not well_nested(mutated):
                damaged += 1
        assert damaged > 5

    def test_event_faults_deterministic(self):
        base = list(parse_string("<a><b/><c/></a>"))
        assert list(FaultyEvents(base, seed=9, faults=2)) == list(
            FaultyEvents(base, seed=9, faults=2)
        )
