"""Structural-index queries: which segments can a query possibly touch?

The log writer summarises every segment from the events its text
yielded at ingest, as the tokenizer delivered them: the set of tags that
occur, whether any character data occurs, and the level range
(:class:`~repro.store.log.SegmentInfo`).  Replay re-tokenises the same
text from the same state, so the summary describes exactly the events
replay would deliver.  Replay then asks, per segment,
the same question the multi-query alphabet router asks per event
(:mod:`repro.multiq.router`): *can this machine react?*  A machine only
mutates state on start/end events whose tag is in its dispatch table,
wildcard machines see every tag, and ``Characters`` matter only to
value-tested machines — so a segment is skippable exactly when **every
one of its events** would individually be dropped by the router:

* no wildcard machine is registered (``wants_all`` is false, which also
  covers per-query :class:`~repro.stream.recovery.ResourceLimits` units,
  whose event accounting needs the full stream);
* the segment's tag set is disjoint from the query alphabet;
* the segment has no character data, or no machine is value-tested.

Because the per-event argument is exact (see the router's end-tag and
level-arithmetic discussion), lifting it to whole segments is exact too:
replay over the surviving segments is *provably identical* to replay
over everything, not an approximation.
"""

from __future__ import annotations

from typing import Mapping

from repro.store.log import EventLogReader, segment_skippable

__all__ = ["Interest", "interest_for", "segment_skippable", "index_report"]

#: ``(tags, wants_all, wants_text)`` — the router-shaped alphabet
#: analysis; see :func:`repro.multiq.router.machine_alphabet`.
Interest = tuple  # (frozenset[str], bool, bool)


def interest_for(target) -> "Interest":
    """The union alphabet of ``target``, whatever shape it takes.

    ``target`` may be a :class:`~repro.multiq.engine.MultiQueryEngine`
    (its :meth:`~repro.multiq.engine.MultiQueryEngine.interest`), an
    :class:`~repro.core.processor.XPathStream`, an XPath string or
    compiled :class:`~repro.xpath.querytree.QueryTree`, or a mapping of
    query name → XPath.  Streams carrying
    :class:`~repro.stream.recovery.ResourceLimits` report ``wants_all``:
    their machines count every event, so nothing may be skipped without
    changing limit accounting.
    """
    from repro.core.processor import XPathStream
    from repro.multiq.engine import MultiQueryEngine
    from repro.multiq.router import machine_alphabet
    from repro.xpath.querytree import QueryTree

    if isinstance(target, MultiQueryEngine):
        return target.interest()
    if isinstance(target, XPathStream):
        tags, wants_all, wants_text = machine_alphabet(target.engine.machine)
        if target._limits is not None:
            wants_all = True
        return tags, wants_all, wants_text
    if isinstance(target, (str, QueryTree)):
        return machine_alphabet(XPathStream(target).engine.machine)
    if isinstance(target, Mapping):
        tags: set = set()
        wants_all = False
        wants_text = False
        for query in target.values():
            q_tags, q_all, q_text = machine_alphabet(XPathStream(query).engine.machine)
            tags |= q_tags
            wants_all = wants_all or q_all
            wants_text = wants_text or q_text
        return frozenset(tags), wants_all, wants_text
    raise TypeError(f"cannot derive a query alphabet from {target!r}")


def index_report(reader: EventLogReader, target=None) -> dict:
    """Per-segment index summary, with skip verdicts when ``target`` given.

    This is what ``python -m repro store index`` prints: each segment's
    event count, tag alphabet, text flag and level range, plus — when a
    query/engine/mapping is supplied — whether replay for it would skip
    the segment, and the aggregate skip ratio.
    """
    interest = interest_for(target) if target is not None else None
    segments = []
    skipped = 0
    for segment in reader.segments():
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
            "checkpoints": list(segment.checkpoints),
        }
        if interest is not None:
            skip = segment_skippable(segment, interest)
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
        tags, wants_all, wants_text = interest
        report["interest"] = {
            "tags": sorted(tags),
            "wants_all": wants_all,
            "wants_text": wants_text,
        }
        report["skippable_segments"] = skipped
        report["skip_ratio"] = skipped / len(segments) if segments else 0.0
    return report
