"""Structural-index queries: which segments can a query possibly touch?

The log writer summarises every segment from the events its text
yielded at ingest, as the tokenizer delivered them: the set of tags that
occur, whether any character data occurs, and the level range
(:class:`~repro.store.log.SegmentInfo`).  Replay re-tokenises the same
text from the same state, so the summary describes exactly the events
replay would deliver.  Replay then asks, per segment, the question the
multi-query router asks per event (:mod:`repro.multiq.router`): *can
this unit react?*  The handler's units are summed up as an
:class:`~repro.multiq.router.Interest`, and
:func:`~repro.store.log.segment_skippable` applies two rules, either of
which proves a segment dead:

* **The alphabet rule.**  A machine only mutates state on start/end
  events whose tag is in its dispatch table, and ``Characters`` matter
  only to value-tested machines.  So a segment is dead when its tags
  miss every unit's alphabet and it has no character data a unit wants.
* **The gate rule.**  A PathM/TwigM whose root label is not ``'*'`` is
  *gated*: under Algorithm 1 it holds no state while no element with its
  root label is open, because δs pushes a non-root node only against an
  open parent entry.  Its *gate labels*
  (:func:`~repro.multiq.router.gate_labels`) are the root label and the
  text label, exactly the labels the router's open-label index gives a
  bit.  So a segment is dead when the ungated units' alphabets and text
  wishes miss it, no gate label occurs in its tags, and no gate label is
  open at its start.  The open labels are the ``stack`` of the tokenizer
  snapshot in the segment header
  (:meth:`~repro.store.log.EventLogReader.open_labels`), read only when
  the verdict depends on them.  Skipping such a segment leaves the
  dispatcher's open-label counts unchanged.

Neither rule holds while a unit wants every event: a wildcard machine,
or a unit with per-query :class:`~repro.stream.recovery.ResourceLimits`,
whose event accounting needs the full stream.

The gate rule also holds for a
:class:`~repro.transform.extract.SubstreamExtractor`, which records the
whole subtree of each match (``Interest.inside``): a fragment lies
inside its match, and the match lies inside an element with the query's
root label, so while a fragment is open or a candidate is buffered a
gate label is open.  The alphabet rule does not hold for it: a fragment
holds tags outside the alphabet.  Version-1 segments carry no tokenizer
snapshot, so only the alphabet rule applies to them.

Because the per-event arguments are exact (see the router's end-tag,
level-arithmetic and nesting discussion), lifting them to whole segments
is exact too: replay over the surviving segments is *provably identical*
to replay over everything, not an approximation.
"""

from __future__ import annotations

from typing import Mapping

from repro.multiq.router import Interest
from repro.store.log import EventLogReader, segment_skippable

__all__ = ["Interest", "interest_for", "segment_skippable", "index_report"]


def interest_for(target) -> Interest:
    """The :class:`~repro.multiq.router.Interest` of ``target``, whatever
    shape it takes.

    ``target`` may be a :class:`~repro.multiq.engine.MultiQueryEngine`
    (its :meth:`~repro.multiq.engine.MultiQueryEngine.interest`), an
    :class:`~repro.core.processor.XPathStream`, an XPath string or
    compiled :class:`~repro.xpath.querytree.QueryTree` (evaluated as a
    stream), or a mapping of query name → XPath (evaluated as a
    MultiQueryEngine, as :func:`~repro.store.replay.replay` does).
    Streams carrying :class:`~repro.stream.recovery.ResourceLimits`
    report ``wants_all``: their machines count every event, so nothing
    may be skipped without changing limit accounting.
    """
    from types import SimpleNamespace

    from repro.core.processor import XPathStream
    from repro.multiq.engine import MultiQueryEngine
    from repro.multiq.router import fold_interest, machine_alphabet
    from repro.xpath.querytree import QueryTree

    if isinstance(target, (str, QueryTree)):
        target = XPathStream(target)
    elif isinstance(target, Mapping):
        target = MultiQueryEngine(target)
    if isinstance(target, MultiQueryEngine):
        return target.interest()
    if isinstance(target, XPathStream):
        tags, wants_all, wants_text = machine_alphabet(target.engine.machine)
        unit = SimpleNamespace(engine=target.engine, interest=tags, wants_all=wants_all,
                               wants_text=wants_text, routable=target._limits is None)
        return fold_interest((unit,))
    raise TypeError(f"cannot derive a query alphabet from {target!r}")


def index_report(reader: EventLogReader, target=None) -> dict:
    """Per-segment index summary, with skip verdicts when ``target`` given.

    This is what ``python -m repro store index`` prints: each segment's
    event count, tag alphabet, text flag, level range and the labels
    open at its start (``None`` in a version-1 store), plus — when a
    query/engine/mapping is supplied — whether replay for it would skip
    the segment, and the aggregate skip ratio.
    """
    interest = interest_for(target) if target is not None else None
    segments = []
    skipped = 0
    for segment in reader.segments():
        open_labels = reader.open_labels(segment)
        entry = {
            "file": segment.file,
            "sealed": segment.sealed,
            "base_event": segment.base_event,
            "events": segment.events,
            "size": segment.size,
            "tags": sorted(segment.tags),
            "has_text": segment.has_text,
            "min_level": segment.min_level,
            "max_level": segment.max_level,
            "open_labels": open_labels,
            "checkpoints": list(segment.checkpoints),
        }
        if interest is not None:
            skip = segment_skippable(segment, interest, lambda: open_labels)
            entry["skippable"] = skip
            skipped += skip
        segments.append(entry)
    report = {
        "path": reader.path,
        "segments": segments,
        "total_events": reader.position,
        "compacted_before_event": reader.compacted_before_event,
    }
    if interest is not None:
        report["interest"] = {
            "tags": sorted(interest.tags),
            "wants_all": interest.wants_all,
            "wants_text": interest.wants_text,
            "gates": sorted(interest.gates),
            "free_tags": sorted(interest.free_tags),
            "free_text": interest.free_text,
        }
        report["skippable_segments"] = skipped
        report["skip_ratio"] = skipped / len(segments) if segments else 0.0
    return report
