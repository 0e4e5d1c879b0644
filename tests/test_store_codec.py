"""The version-1 event decoder: exact round-trips, hostile-record bounds.

Stores are written as text now; this decoder reads version-1 stores.
Record bodies come from :func:`tests.v1_records.encode_event`, pinned to
the earlier writer's bytes in ``tests/test_store_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.stream.codec import (
    CodecError,
    EVENT_KIND_CHARS,
    EVENT_KIND_END,
    EVENT_KIND_START,
)
from repro.stream.events import Characters, EndElement, StartElement
from repro.stream.recovery import ResourceLimits
from repro.stream.tokenizer import parse_string

from tests.test_push_equivalence import random_document
from tests.v1_records import decode_event, encode_event, write_v1_store


class TestRoundTrip:
    def test_start_element(self):
        event = StartElement("book", 2, 7, {"year": "2006", "lang": "en"})
        decoded = decode_event(encode_event(event))
        assert decoded == event
        assert decoded.attributes == {"year": "2006", "lang": "en"}

    def test_characters_and_end(self):
        for event in (Characters("42 & <more>", 3), EndElement("book", 2)):
            assert decode_event(encode_event(event)) == event

    def test_unicode(self):
        event = Characters("prix € 中文 \U0001f600", 1)
        assert decode_event(encode_event(event)) == event

    @pytest.mark.parametrize("seed", range(25))
    def test_whole_documents_round_trip(self, seed):
        events = list(parse_string(random_document(seed)))
        assert [decode_event(encode_event(e)) for e in events] == events

    def test_large_varint_values(self):
        event = StartElement("t", 2**40, 2**50, {})
        assert decode_event(encode_event(event)) == event


class TestMalformed:
    def test_empty(self):
        with pytest.raises(CodecError):
            decode_event(b"")

    def test_unknown_kind(self):
        with pytest.raises(CodecError, match="unknown"):
            decode_event(bytes([99, 0]))

    def test_truncated_varint(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_event(bytes([EVENT_KIND_CHARS, 0x80]))

    def test_truncated_string(self):
        data = encode_event(Characters("hello world", 1))
        with pytest.raises(CodecError, match="truncated"):
            decode_event(data[:-4])

    def test_trailing_garbage(self):
        data = encode_event(EndElement("a", 1)) + b"\x00"
        with pytest.raises(CodecError, match="trailing"):
            decode_event(data)

    def test_invalid_utf8(self):
        # kind | level | len=2 | 0xff 0xfe (not UTF-8)
        data = bytes([EVENT_KIND_CHARS, 1, 2, 0xFF, 0xFE])
        with pytest.raises(CodecError, match="UTF-8"):
            decode_event(data)

    def test_oversized_varint(self):
        with pytest.raises(CodecError, match="64 bits"):
            decode_event(bytes([EVENT_KIND_CHARS]) + b"\xff" * 10 + b"\x01")


class TestLimits:
    """CRC-valid but hostile records must hit the same walls as raw XML."""

    def test_depth(self):
        bomb = encode_event(StartElement("a", 5000, 1, {}))
        decode_event(bomb)  # unlimited: fine
        with pytest.raises(Exception, match="max_depth"):
            decode_event(bomb, ResourceLimits(max_depth=100))

    def test_attribute_count_checked_before_materialising(self):
        # Declare 2**30 attributes but carry none: the check must fire on
        # the declared count, not after building a giant dict.
        data = bytes([EVENT_KIND_START, 1, 1, 1, ord("a")]) + b"\x80\x80\x80\x80\x04"
        with pytest.raises(Exception, match="max_attributes"):
            decode_event(data, ResourceLimits(max_attributes=4))

    def test_attribute_length(self):
        event = StartElement("a", 1, 1, {"v": "x" * 1000})
        with pytest.raises(Exception, match="max_attribute_length"):
            decode_event(encode_event(event), ResourceLimits(max_attribute_length=10))

    def test_text_length_checked_on_declared_size(self):
        # A record declaring a 1 GiB string (without the bytes) must fail
        # on the declaration, not on allocation.
        data = bytes([EVENT_KIND_CHARS, 1]) + b"\x80\x80\x80\x80\x04"
        with pytest.raises(Exception, match="max_text_length"):
            decode_event(data, ResourceLimits(max_text_length=1 << 20))

    def test_within_limits_passes(self):
        limits = ResourceLimits(
            max_depth=10, max_attributes=4, max_attribute_length=16,
            max_text_length=64,
        )
        for event in (
            StartElement("a", 3, 1, {"k": "v"}),
            Characters("short", 3),
            EndElement("a", 3),
        ):
            assert decode_event(encode_event(event), limits) == event


# -- decoder parity: decode_event and the push path ---------------------------

#: ``(case, record body, limits, error match)`` — each must fail the same
#: way whether decoded on its own or met by a replay.
HOSTILE_RECORDS = [
    ("empty", b"", None, "empty event record"),
    ("unknown_kind", bytes([99, 0]), None, "unknown event record kind 99"),
    ("unknown_kind_alone", bytes([99]), None, "unknown event record kind 99"),
    ("truncated_level_varint", bytes([EVENT_KIND_CHARS, 0x80]), None,
     "truncated varint"),
    ("missing_level", bytes([EVENT_KIND_END]), None, "truncated varint"),
    ("truncated_node_id", bytes([EVENT_KIND_START, 1, 0x81]), None,
     "truncated varint"),
    ("missing_attribute_count", bytes([EVENT_KIND_START, 1, 1, 1, ord("a")]), None,
     "truncated varint"),
    ("over_64_bit_varint", bytes([EVENT_KIND_CHARS]) + b"\xff" * 10 + b"\x01", None,
     "64 bits"),
    ("over_64_bit_node_id", bytes([EVENT_KIND_START, 1]) + b"\xff" * 10 + b"\x01",
     None, "64 bits"),
    ("truncated_text", encode_event(Characters("hello world", 1))[:-4], None,
     "truncated string"),
    ("truncated_tag", encode_event(EndElement("abcdef", 1))[:-2], None,
     "truncated string"),
    ("truncated_attribute", encode_event(
        StartElement("a", 1, 1, {"k": "value"}))[:-2], None, "truncated string"),
    ("trailing_bytes", encode_event(EndElement("a", 1)) + b"\x00", None,
     "1 trailing byte"),
    ("trailing_after_start", encode_event(StartElement("a", 1, 1, {})) + b"xy", None,
     "2 trailing byte"),
    ("invalid_utf8_text", bytes([EVENT_KIND_CHARS, 1, 2, 0xFF, 0xFE]), None, "UTF-8"),
    ("invalid_utf8_tag", bytes([EVENT_KIND_END, 1, 2, 0xFF, 0xFE]), None, "UTF-8"),
    ("invalid_utf8_attribute", bytes([EVENT_KIND_START, 1, 1, 1, ord("a"), 1, 1,
                                      ord("k"), 1, 0xFF]), None, "UTF-8"),
    ("depth", encode_event(StartElement("a", 5000, 1, {})),
     ResourceLimits(max_depth=100), "max_depth"),
    ("declared_attribute_count",
     bytes([EVENT_KIND_START, 1, 1, 1, ord("a")]) + b"\x80\x80\x80\x80\x04",
     ResourceLimits(max_attributes=4), "max_attributes"),
    ("attribute_length", encode_event(StartElement("a", 1, 1, {"v": "x" * 1000})),
     ResourceLimits(max_attribute_length=10), "max_attribute_length"),
    ("declared_text_length", bytes([EVENT_KIND_CHARS, 1]) + b"\x80\x80\x80\x80\x04",
     ResourceLimits(max_text_length=1 << 20), "max_text_length"),
    ("limit_before_trailing_bytes",
     encode_event(StartElement("a", 5000, 1, {})) + b"\x00",
     ResourceLimits(max_depth=100), "max_depth"),
]

HOSTILE_IDS = [case for case, *_rest in HOSTILE_RECORDS]


def decode_alone(payload, limits):
    decode_event(payload, limits)


def decode_in_replay(payload, limits, tmp_path):
    """Append ``payload`` as a CRC-valid record to a version-1 store and
    replay the store."""
    from repro.store.log import EventLogReader
    from repro.stream.events import CountingHandler

    store = str(tmp_path / "s")
    write_v1_store(store, [StartElement("r", 1, 1, {})], (payload,))
    handler = CountingHandler()
    try:
        EventLogReader(store, limits=limits).events_into(handler)
    finally:
        # The good record before the bad one was delivered; the bad one
        # never reached the handler.
        assert handler.total == 1


class TestDecoderParity:
    """Every malformed or hostile record fails identically on both paths."""

    @pytest.mark.parametrize("payload,limits,match", [
        row[1:] for row in HOSTILE_RECORDS], ids=HOSTILE_IDS)
    def test_decode_event(self, payload, limits, match):
        from repro.errors import ResourceLimitError

        expected = ResourceLimitError if limits is not None else CodecError
        with pytest.raises(expected, match=match):
            decode_alone(payload, limits)

    @pytest.mark.parametrize("payload,limits,match", [
        row[1:] for row in HOSTILE_RECORDS], ids=HOSTILE_IDS)
    def test_push_replay(self, payload, limits, match, tmp_path):
        from repro.errors import ResourceLimitError

        expected = ResourceLimitError if limits is not None else CodecError
        with pytest.raises(expected, match=match):
            decode_in_replay(payload, limits, tmp_path)

    def test_max_total_events_decoder(self):
        from repro.stream.codec import PushDecoder
        from repro.stream.events import CountingHandler

        handler = CountingHandler()
        decoder = PushDecoder(handler, ResourceLimits(max_total_events=2))
        record = encode_event(EndElement("a", 1))
        decoder.decode(record)
        decoder.decode(record)
        with pytest.raises(Exception, match="max_total_events"):
            decoder.decode(record)
        assert handler.total == 2 and decoder.count == 3

    def test_max_total_events_push_replay(self, tmp_path):
        from repro.store.log import EventLogReader
        from repro.stream.events import CountingHandler

        store = str(tmp_path / "s")
        write_v1_store(store, list(parse_string("<r>" + "<a>x</a>" * 20 + "</r>")))
        handler = CountingHandler()
        reader = EventLogReader(store, limits=ResourceLimits(max_total_events=10))
        with pytest.raises(Exception, match="max_total_events"):
            reader.events_into(handler)
        assert handler.total == 10
        assert len(list(EventLogReader(
            store, limits=ResourceLimits(max_total_events=10**6)).events())) > 10

    def test_within_limits_push_replay(self, tmp_path):
        from repro.store.log import EventLogReader
        from repro.stream.events import EventCollector

        limits = ResourceLimits(
            max_depth=10, max_attributes=4, max_attribute_length=16,
            max_text_length=64, max_total_events=3,
        )
        events = [StartElement("a", 3, 1, {"k": "v"}), Characters("short", 3),
                  EndElement("a", 3)]
        store = str(tmp_path / "s")
        write_v1_store(store, events)
        collector = EventCollector()
        EventLogReader(store, limits=limits).events_into(collector)
        assert collector.events == events


class TestTagCaches:
    """Tag churn: 10K distinct tags round-trip through both store formats
    and the decoder, which keeps no per-tag state."""

    def test_ten_thousand_distinct_tags(self, tmp_path):
        from repro.store.log import EventLogReader, EventLogWriter
        from repro.stream.codec import PushDecoder
        from repro.stream.events import EventCollector

        tags = [f"t{index}" for index in range(10_000)]
        events = [StartElement("root", 1, 1, {})]
        for index, tag in enumerate(tags):
            events += [StartElement(tag, 2, index + 2, {}), EndElement(tag, 2)]
        events.append(EndElement("root", 1))

        store = str(tmp_path / "s")
        with EventLogWriter(store, sync="none") as writer:
            writer.extend(events)
        assert list(EventLogReader(store).events()) == events
        old = str(tmp_path / "v1")
        write_v1_store(old, events)
        assert list(EventLogReader(old).events()) == events

        collector = EventCollector()
        decoder = PushDecoder(collector)
        for event in events:
            decoder.decode(encode_event(event))
        assert collector.events == events
        assert not hasattr(decoder, "__dict__")
