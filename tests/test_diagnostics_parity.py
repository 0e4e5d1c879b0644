"""Regression pin: the fused path reports the reference's recovery diagnostics.

The repaired-event path was audited for double counting — a diagnostic
synthesized during recovery must be reported exactly once whether the
stream runs through the reference tokenizer
(:class:`~repro.bench.hotpath.ReferenceTokenizer`, the Python scanner
alone, its pull view's events fed to ``feed_events``) or the fused path
(``feed_text`` → ``feed_into``), in one shot or chunked, with or without
a mid-stream checkpoint.  These tests pin that audit as executable truth:
any future change that re-feeds repaired events through the scanner (or
forks the diagnostic callback) breaks them immediately.
"""

from __future__ import annotations

import pytest

from repro.bench.hotpath import ReferenceTokenizer
from repro.core.processor import XPathStream
from repro.stream.events import EventCollector
from repro.stream.faults import corrupt_text
from repro.stream.recovery import RecoveryPolicy
from repro.stream.tokenizer import XmlTokenizer

from tests.conftest import chain_xml

QUERY = "//a//b"
SEEDS = range(40)
POLICIES = (RecoveryPolicy.SKIP, RecoveryPolicy.REPAIR)


def reference_outcome(text: str, policy, chunk: int | None = None):
    """(diagnostic count, results) through the reference tokenizer."""
    diagnostics = []
    stream = XPathStream(QUERY)
    tokenizer = ReferenceTokenizer(policy=policy,
                                   on_diagnostic=diagnostics.append)
    if chunk is None:
        stream.feed_events(tokenizer.feed(text))
    else:
        for start in range(0, len(text), chunk):
            stream.feed_events(tokenizer.feed(text[start:start + chunk]))
    stream.feed_events(tokenizer.close())
    return len(diagnostics), stream.close()


def push_outcome(text: str, policy, chunk: int | None = None):
    """(diagnostic count, results) through the fused push path."""
    diagnostics = []
    stream = XPathStream(QUERY, policy=policy,
                         on_diagnostic=diagnostics.append)
    if chunk is None:
        stream.feed_text(text)
    else:
        for start in range(0, len(text), chunk):
            stream.feed_text(text[start:start + chunk])
    results = stream.close()
    return len(diagnostics), results


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_pull_push_diagnostic_parity(policy, seed):
    text, _faults = corrupt_text(chain_xml(6), seed, faults=2)
    assert reference_outcome(text, policy) == push_outcome(text, policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("chunk", (7, 64))
def test_chunked_feeds_report_each_diagnostic_once(policy, seed, chunk):
    text, _faults = corrupt_text(chain_xml(6), seed, faults=2)
    whole = reference_outcome(text, policy)
    assert reference_outcome(text, policy, chunk=chunk) == whole
    assert push_outcome(text, policy, chunk=chunk) == whole


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(12))
def test_checkpoint_resume_does_not_replay_diagnostics(policy, seed):
    text, _faults = corrupt_text(chain_xml(6), seed, faults=2)
    whole = reference_outcome(text, policy)

    diagnostics = []
    first = XPathStream(QUERY, policy=policy,
                        on_diagnostic=diagnostics.append)
    mid = len(text) // 2
    first.feed_text(text[:mid])
    resumed = XPathStream.restore(first.snapshot(),
                                  on_diagnostic=diagnostics.append)
    resumed.feed_text(text[mid:])
    results = resumed.close()
    assert (len(diagnostics), results) == whole


@pytest.mark.parametrize("seed", range(12))
def test_tokenizer_diagnostic_count_matches_callback(seed):
    """The tokenizer's own counter agrees with callback deliveries."""
    text, _faults = corrupt_text(chain_xml(6), seed, faults=2)
    delivered = []
    tokenizer = XmlTokenizer(policy=RecoveryPolicy.REPAIR,
                             on_diagnostic=delivered.append)
    collector = EventCollector()
    tokenizer.feed_into(text, collector)
    tokenizer.close_into(collector)
    assert tokenizer.diagnostic_count == len(delivered)
