"""Binary encoding of modified-SAX events (the durable-log record body).

The ingest log (:mod:`repro.store`) persists the event stream, not the
raw XML text: replay then skips tokenization entirely, a recorded stream
is chunking-independent by construction, and the structural index can be
built from what the log writer already sees.  This module is the codec
for one event — the payload bytes inside one CRC-framed log record
(framing itself is :mod:`repro.serve.framing`; the CRC lives there, not
here).

Layout (all integers are unsigned LEB128 varints, all strings are
varint-length-prefixed UTF-8):

``StartElement``::

    kind=1 | level | node_id | tag | attr_count | (name value)*

``Characters``::

    kind=2 | level | text

``EndElement``::

    kind=3 | level | tag

Both directions are push-shaped, like the rest of the pipeline
(:class:`~repro.stream.events.EventHandler`):

* :class:`EventEncoder` has the three handler callbacks, each returning
  the record body for its arguments — the log writer encodes straight
  from the scanner's callbacks, with no event objects.  Single-byte
  varints (levels, short strings) come from precomputed tables, and
  encoded tags are memoised per encoder.
* :class:`PushDecoder` decodes one record body straight into a
  handler's callbacks — replay drives evaluators and transforms with no
  event objects.  Decoded tags are memoised per decoder, so a replayed
  stream reuses one ``str`` per tag.

Both memos hold at most :data:`TAG_CACHE_LIMIT` distinct tags (the
multi-query router's bound) and are cleared when full, so tag churn
cannot grow memory.  :func:`encode_event` and
:func:`decode_event` are views over the same two classes for callers
holding :class:`~repro.stream.events.Event` objects.

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
from repro.stream.events import Characters, EndElement, Event, EventCollector, StartElement
from repro.stream.recovery import ResourceLimits

__all__ = [
    "CodecError",
    "EVENT_KIND_START",
    "EVENT_KIND_CHARS",
    "EVENT_KIND_END",
    "TAG_CACHE_LIMIT",
    "EventEncoder",
    "PushDecoder",
    "encode_event",
    "decode_event",
    "event_kind",
]

#: Record kind bytes (first byte of every encoded event).
EVENT_KIND_START = 1
EVENT_KIND_CHARS = 2
EVENT_KIND_END = 3

#: Distinct tags an encoder or decoder memoises before clearing its memo
#: (the same bound as the multi-query router's routing cache).
TAG_CACHE_LIMIT = 4096

#: ``_BYTE[n]`` is the one-byte varint of ``n`` (0 <= n < 128);
#: ``_MORE[n]`` is the same seven bits with the continuation flag set.
_BYTE = [bytes((n,)) for n in range(0x80)]
_MORE = [bytes((n | 0x80,)) for n in range(0x80)]
#: Kind byte plus a one-byte level, per kind.
_START_HEAD = [bytes((EVENT_KIND_START, n)) for n in range(0x80)]
_CHARS_HEAD = [bytes((EVENT_KIND_CHARS, n)) for n in range(0x80)]
_END_HEAD = [bytes((EVENT_KIND_END, n)) for n in range(0x80)]
#: ``attr_count = 0``: the tail of every attribute-less start record.
_NO_ATTRIBUTE_COUNT = b"\x00"
#: Passed to ``start_element`` for attribute-less elements (read-only,
#: as :class:`~repro.stream.events.EventHandler` documents).
_NO_ATTRIBUTES: dict[str, str] = {}


class CodecError(ReproError):
    """An event record that cannot be decoded (truncated or malformed)."""


def _uvarint(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint."""
    if value < 0x80:
        if value < 0:
            raise CodecError(f"cannot encode negative integer {value}")
        return _BYTE[value]
    if value < 0x4000:
        return _MORE[value & 0x7F] + _BYTE[value >> 7]
    if value < 0x200000:
        return _MORE[value & 0x7F] + _MORE[(value >> 7) & 0x7F] + _BYTE[value >> 14]
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _encode_text(text: str) -> bytes:
    """``text`` as a varint length prefix plus its UTF-8 bytes."""
    raw = text.encode("utf-8")
    size = len(raw)
    return (_BYTE[size] if size < 0x80 else _uvarint(size)) + raw


def _head(kind: int, level: int) -> bytes:
    """Kind byte plus a multi-byte (or negative, rejected) ``level``."""
    return _BYTE[kind] + _uvarint(level)


class EventEncoder:
    """Encode events from handler-shaped calls; each returns a record body.

    The callbacks mirror :class:`~repro.stream.events.EventHandler`, so a
    writer forwards the arguments it receives unchanged.  Encoded tags
    are memoised (at most :data:`TAG_CACHE_LIMIT` of them).
    """

    __slots__ = ("_tags",)

    def __init__(self) -> None:
        self._tags: dict[str, bytes] = {}

    def _tag(self, tag: str) -> bytes:
        encoded = _encode_text(tag)
        tags = self._tags
        if len(tags) >= TAG_CACHE_LIMIT:
            tags.clear()
        tags[tag] = encoded
        return encoded

    def start_element(self, tag, level, node_id, attributes) -> bytes:
        encoded = self._tags.get(tag) or self._tag(tag)
        head = _START_HEAD[level] if 0 <= level < 0x80 else _head(
            EVENT_KIND_START, level)
        if not attributes:
            return head + _uvarint(node_id) + encoded + _NO_ATTRIBUTE_COUNT
        parts = [head, _uvarint(node_id), encoded, _uvarint(len(attributes))]
        for name, value in attributes.items():
            parts.append(_encode_text(name))
            parts.append(_encode_text(value))
        return b"".join(parts)

    def characters(self, text, level) -> bytes:
        raw = text.encode("utf-8")
        size = len(raw)
        head = _CHARS_HEAD[level] if 0 <= level < 0x80 else _head(
            EVENT_KIND_CHARS, level)
        return head + (_BYTE[size] if size < 0x80 else _uvarint(size)) + raw

    def end_element(self, tag, level) -> bytes:
        encoded = self._tags.get(tag) or self._tag(tag)
        if 0 <= level < 0x80:
            return _END_HEAD[level] + encoded
        return _head(EVENT_KIND_END, level) + encoded


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
    ``limits`` before anything is materialised, then trailing bytes and
    UTF-8, then ``max_total_events`` over every record this decoder has
    delivered — and only then calls the handler.  :attr:`count` is the
    number of events delivered so far.
    """

    __slots__ = ("_start", "_characters", "_end", "_limits", "_tags", "count")

    def __init__(self, handler, limits: ResourceLimits | None = None):
        self._start = handler.start_element
        self._characters = handler.characters
        self._end = handler.end_element
        self._limits = limits
        self._tags: dict[bytes, str] = {}
        self.count = 0

    def _tag(self, raw: bytes) -> str:
        tag = _utf8(raw)
        tags = self._tags
        if len(tags) >= TAG_CACHE_LIMIT:
            tags.clear()
        tags[raw] = tag
        return tag

    def decode(self, data: bytes) -> None:
        """Check one record body and deliver its event."""
        size = len(data)
        if not size:
            raise CodecError("empty event record")
        kind = data[0]
        if not EVENT_KIND_START <= kind <= EVENT_KIND_END:
            raise CodecError(f"unknown event record kind {kind}")
        limits = self._limits
        try:
            level = data[1]
            pos = 2
            if level & 0x80:
                level, pos = _read_uvarint(data, 1)
            if kind == EVENT_KIND_CHARS:
                # Check the *declared* length before decoding the bytes,
                # so a hostile record fails at O(limit), not O(record).
                length = data[pos]
                pos += 1
                if length & 0x80:
                    length, pos = _read_uvarint(data, pos - 1)
                if limits is not None:
                    limits.check("max_text_length", length)
                end = pos + length
                if end > size:
                    raise CodecError("truncated string in event record")
                text = _utf8(data[pos:end])
                pos = end
            else:
                if kind == EVENT_KIND_START:
                    # Node ids are pre-order positions, mostly 2-3 varint
                    # bytes: read them inline.
                    node_id = 0
                    shift = 0
                    byte = data[pos]
                    while byte & 0x80:
                        node_id |= (byte & 0x7F) << shift
                        shift += 7
                        if shift > 63:
                            raise CodecError("varint in event record exceeds 64 bits")
                        pos += 1
                        byte = data[pos]
                    node_id |= byte << shift
                    pos += 1
                length = data[pos]
                pos += 1
                if length & 0x80:
                    length, pos = _read_uvarint(data, pos - 1)
                end = pos + length
                if end > size:
                    raise CodecError("truncated string in event record")
                raw = data[pos:end]
                pos = end
                tag = self._tags.get(raw)
                if tag is None:
                    tag = self._tag(raw)
                if kind == EVENT_KIND_START:
                    if limits is not None:
                        limits.check("max_depth", level)
                    count = data[pos]
                    pos += 1
                    if count & 0x80:
                        count, pos = _read_uvarint(data, pos - 1)
                    if not count:
                        attributes = _NO_ATTRIBUTES
                    else:
                        if limits is not None:
                            limits.check("max_attributes", count)
                        attributes = {}
                        for _ in range(count):
                            name, pos = _read_text(data, pos)
                            value, pos = _read_text(data, pos)
                            if limits is not None:
                                limits.check("max_attribute_length", len(value))
                            attributes[name] = value
        except IndexError:
            raise CodecError("truncated varint in event record") from None
        if pos != size:
            raise CodecError(f"event record carries {size - pos} trailing byte(s)")
        self.count += 1
        if limits is not None:
            limits.check("max_total_events", self.count)
        if kind == EVENT_KIND_START:
            self._start(tag, level, node_id, attributes)
        elif kind == EVENT_KIND_CHARS:
            self._characters(text, level)
        else:
            self._end(tag, level)


def encode_event(event: Event) -> bytes:
    """Serialize one modified-SAX event to its binary record body."""
    encoder = EventEncoder()
    if isinstance(event, StartElement):
        return encoder.start_element(
            event.tag, event.level, event.node_id, event.attributes
        )
    if isinstance(event, Characters):
        return encoder.characters(event.text, event.level)
    if isinstance(event, EndElement):
        return encoder.end_element(event.tag, event.level)
    raise CodecError(f"cannot encode {event!r}")


def event_kind(data: bytes) -> int:
    """The kind byte of an encoded event (no full decode)."""
    if not data:
        raise CodecError("empty event record")
    return data[0]


def decode_event(data: bytes, limits: ResourceLimits | None = None) -> Event:
    """Rebuild the event from :func:`encode_event` bytes.

    ``limits`` (optional) bounds attacker-controlled growth exactly as the
    tokenizer does on raw text: depth, attribute count, attribute value
    length and text length are checked before the structure is built.
    """
    collector = EventCollector()
    PushDecoder(collector, limits).decode(data)
    return collector.events[0]
