"""Decoder for version-1 store records: one modified-SAX event each.

Version-1 stores (:mod:`repro.store`, manifest version 1) persisted the
event stream, one binary-coded event per CRC-framed log record.  Stores
now persist the XML text itself and replay re-tokenises it — the strict
tokenizer reads text faster than this decoder reads events, and text is
about half the size — so nothing encodes events any more.  This module
keeps old stores readable: it decodes one record body (the payload inside
one frame; framing and CRC are :mod:`repro.serve.framing`'s).

Layout (all integers are unsigned LEB128 varints, all strings are
varint-length-prefixed UTF-8):

``StartElement``::

    kind=1 | level | node_id | tag | attr_count | (name value)*

``Characters``::

    kind=2 | level | text

``EndElement``::

    kind=3 | level | tag

:class:`PushDecoder` decodes a record body straight into a handler's
callbacks (:class:`~repro.stream.events.EventHandler`), with no event
objects.

Decoding accepts an optional :class:`~repro.stream.recovery.ResourceLimits`
and enforces ``max_depth``, ``max_attributes``, ``max_attribute_length``
and ``max_text_length`` *before* materialising the offending structure —
a log is attacker-reachable input (a copied file, a shared volume), so a
CRC-valid but hostile record must not bypass the input-bomb protection
the tokenizer applies to raw text.  A decoder also counts the events it
delivers against ``max_total_events``.  Structural nonsense (truncated
varints, trailing garbage, unknown kinds) raises :class:`CodecError`;
a record is fully checked before its callback runs.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.stream.recovery import ResourceLimits

__all__ = [
    "CodecError",
    "EVENT_KIND_START",
    "EVENT_KIND_CHARS",
    "EVENT_KIND_END",
    "PushDecoder",
]

#: Record kind bytes (first byte of every encoded event).
EVENT_KIND_START = 1
EVENT_KIND_CHARS = 2
EVENT_KIND_END = 3

#: Passed to ``start_element`` for attribute-less elements (read-only,
#: as :class:`~repro.stream.events.EventHandler` documents).
_NO_ATTRIBUTES: dict[str, str] = {}


class CodecError(ReproError):
    """An event record that cannot be decoded (truncated or malformed)."""


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read a varint at ``pos``; return ``(value, next_pos)``."""
    result = 0
    shift = 0
    length = len(data)
    while True:
        if pos >= length:
            raise CodecError("truncated varint in event record")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint in event record exceeds 64 bits")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"event record string is not valid UTF-8: {exc}") from exc


def _read_text(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = _read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated string in event record")
    return _utf8(data[pos:end]), end


class PushDecoder:
    """Decode record bodies straight into ``handler``'s callbacks.

    :meth:`decode` checks one whole record — declared sizes against
    ``limits`` before anything is materialised, then UTF-8 and trailing
    bytes, then ``max_total_events`` over every record this decoder has
    delivered — and only then calls the handler.  :attr:`count` is the
    number of events delivered so far.
    """

    __slots__ = ("_start", "_characters", "_end", "_limits", "count")

    def __init__(self, handler, limits: ResourceLimits | None = None):
        self._start = handler.start_element
        self._characters = handler.characters
        self._end = handler.end_element
        self._limits = limits
        self.count = 0

    def decode(self, data: bytes) -> None:
        """Check one record body and deliver its event."""
        if not data:
            raise CodecError("empty event record")
        kind = data[0]
        if not EVENT_KIND_START <= kind <= EVENT_KIND_END:
            raise CodecError(f"unknown event record kind {kind}")
        limits = self._limits
        level, pos = _read_uvarint(data, 1)
        if kind == EVENT_KIND_START:
            node_id, pos = _read_uvarint(data, pos)
        # The *declared* length is checked before the bytes are decoded,
        # so a hostile record fails at O(limit), not O(record).
        length, pos = _read_uvarint(data, pos)
        if kind == EVENT_KIND_CHARS and limits is not None:
            limits.check("max_text_length", length)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated string in event record")
        value = _utf8(data[pos:end])
        pos = end
        if kind == EVENT_KIND_START:
            if limits is not None:
                limits.check("max_depth", level)
            count, pos = _read_uvarint(data, pos)
            attributes = _NO_ATTRIBUTES
            if count:
                if limits is not None:
                    limits.check("max_attributes", count)
                attributes = {}
                for _ in range(count):
                    name, pos = _read_text(data, pos)
                    attribute, pos = _read_text(data, pos)
                    if limits is not None:
                        limits.check("max_attribute_length", len(attribute))
                    attributes[name] = attribute
        if pos != len(data):
            raise CodecError(f"event record carries {len(data) - pos} trailing byte(s)")
        self.count += 1
        if limits is not None:
            limits.check("max_total_events", self.count)
        if kind == EVENT_KIND_START:
            self._start(value, level, node_id, attributes)
        elif kind == EVENT_KIND_CHARS:
            self._characters(value, level)
        else:
            self._end(value, level)
