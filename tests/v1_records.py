"""Version-1 store fixtures: event record bodies and whole stores.

Stores are written as text now; version-1 stores, one binary-coded event
per record, are only read (:mod:`repro.stream.codec`).  The decoder's
tests still need such records, so this module builds them in the layout
of the earlier writer.  ``tests/test_store_golden.py`` pins
:func:`encode_event` to the bytes that writer recorded.
"""

from __future__ import annotations

import json
import os

from repro.serve.framing import encode_frame
from repro.store.log import MANIFEST_NAME, REC_EVENT, REC_SEGMENT
from repro.stream.codec import (
    EVENT_KIND_CHARS,
    EVENT_KIND_END,
    EVENT_KIND_START,
    PushDecoder,
)
from repro.stream.events import Characters, Event, EventCollector, StartElement
from repro.stream.recovery import ResourceLimits


def _varint(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"cannot encode negative integer {value}")
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _varint(len(raw)) + raw


def encode_event(event: Event) -> bytes:
    """One event as a version-1 record body."""
    if isinstance(event, StartElement):
        parts = [bytes((EVENT_KIND_START,)), _varint(event.level),
                 _varint(event.node_id), _string(event.tag),
                 _varint(len(event.attributes))]
        for name, value in event.attributes.items():
            parts += [_string(name), _string(value)]
        return b"".join(parts)
    if isinstance(event, Characters):
        return bytes((EVENT_KIND_CHARS,)) + _varint(event.level) + _string(event.text)
    return bytes((EVENT_KIND_END,)) + _varint(event.level) + _string(event.tag)


def decode_event(data: bytes, limits: ResourceLimits | None = None) -> Event:
    """The event one version-1 record body decodes to (``limits`` as the
    reader applies them)."""
    collector = EventCollector()
    PushDecoder(collector, limits).decode(data)
    return collector.events[0]


def write_v1_store(path: str, events: list, raw_records: tuple = ()) -> None:
    """A cleanly closed version-1 store: one sealed segment holding
    ``events``, then the record bodies ``raw_records`` as they are."""
    os.makedirs(path)
    header = {"version": 1, "segment": 1, "base_event": 0}
    frames = [encode_frame(REC_SEGMENT, json.dumps(header).encode("utf-8"))]
    frames += [encode_frame(REC_EVENT, encode_event(event)) for event in events]
    frames += [encode_frame(REC_EVENT, body) for body in raw_records]
    data = b"".join(frames)
    name = "seg-00000001.log"
    with open(os.path.join(path, name), "wb") as handle:
        handle.write(data)
    levels = [event.level for event in events]
    segment = {
        "file": name, "sequence": 1, "base_event": 0,
        "events": len(events) + len(raw_records), "size": len(data),
        "tags": sorted({e.tag for e in events if not isinstance(e, Characters)}),
        "has_text": True, "min_level": min(levels, default=None),
        "max_level": max(levels, default=None), "checkpoints": [],
    }
    manifest = {
        "version": 1, "next_segment": 2, "next_checkpoint": 1, "active": None,
        "compacted_before_event": 0, "compacted_before_checkpoint": 0,
        "segments": [segment],
    }
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
