"""Wire framing: round trips, corruption detection, bounded allocation."""

from __future__ import annotations

import struct

import pytest

from repro.serve.framing import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameType,
    decode_data,
    encode_data,
    encode_frame,
    encode_json,
)


class TestRoundTrip:
    def test_empty_payload(self):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(FrameType.PING))
        assert len(frames) == 1
        assert frames[0].type == FrameType.PING
        assert frames[0].payload == b""

    def test_json_payload(self):
        payload = {"queries": {"q": "//a//b"}, "tenant": "t1", "priority": 3}
        decoder = FrameDecoder()
        (frame,) = decoder.feed(encode_json(FrameType.HELLO, payload))
        assert frame.json() == payload

    def test_data_payload_with_offset(self):
        decoder = FrameDecoder()
        (frame,) = decoder.feed(encode_data(12345, "<a>☃</a>"))
        assert decode_data(frame) == (12345, "<a>☃</a>")

    def test_many_frames_one_feed(self):
        blob = b"".join(encode_json(FrameType.RESULT, {"seq": i}) for i in range(10))
        frames = FrameDecoder().feed(blob)
        assert [f.json()["seq"] for f in frames] == list(range(10))

    def test_byte_at_a_time_reassembly(self):
        wire = encode_data(7, "<doc>text</doc>")
        decoder = FrameDecoder()
        collected = []
        for i in range(len(wire)):
            collected += decoder.feed(wire[i:i + 1])
        assert len(collected) == 1
        assert decode_data(collected[0]) == (7, "<doc>text</doc>")
        assert decoder.pending == 0


class TestCorruption:
    def test_flipped_payload_bit_raises(self):
        wire = bytearray(encode_data(0, "<a>hello</a>"))
        wire[-3] ^= 0x10
        with pytest.raises(FrameError, match="CRC mismatch"):
            FrameDecoder().feed(bytes(wire))

    def test_flipped_type_byte_raises(self):
        wire = bytearray(encode_json(FrameType.RESULT, {"seq": 1}))
        wire[4] ^= 0x01  # the type byte, covered by the CRC
        with pytest.raises(FrameError, match="CRC mismatch"):
            FrameDecoder().feed(bytes(wire))

    def test_oversized_length_rejected_before_allocation(self):
        header = struct.Struct("!IBI").pack(2**31, FrameType.DATA, 0)
        with pytest.raises(FrameError, match="exceeds limit"):
            FrameDecoder(max_frame=1024).feed(header)

    def test_good_prefix_survives_corrupt_tail(self):
        """Valid frames ahead of a corrupt one in the same batch are
        delivered; the error surfaces on the *next* feed."""
        good = [encode_data(i * 10, f"<a>{i}</a>") for i in range(3)]
        bad = bytearray(encode_data(30, "<a>bad</a>"))
        bad[-2] ^= 0xFF
        decoder = FrameDecoder()
        frames = decoder.feed(b"".join(good) + bytes(bad))
        assert [decode_data(f)[0] for f in frames] == [0, 10, 20]
        assert decoder.failed
        with pytest.raises(FrameError, match="CRC mismatch"):
            decoder.feed(b"")

    def test_decoder_dead_after_error(self):
        wire = bytearray(encode_frame(FrameType.PING))
        wire[-1] ^= 0x01 if len(wire) > 9 else 0
        # corrupt the CRC field itself on an empty-payload frame
        wire = bytearray(encode_frame(FrameType.PING))
        wire[8] ^= 0x01
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(bytes(wire))
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(FrameType.PING))  # even valid bytes

    def test_non_json_control_payload(self):
        (frame,) = FrameDecoder().feed(encode_frame(FrameType.HELLO, b"\xff\xfe"))
        with pytest.raises(FrameError, match="not valid JSON"):
            frame.json()

    def test_non_object_json_payload(self):
        (frame,) = FrameDecoder().feed(encode_frame(FrameType.HELLO, b"[1,2]"))
        with pytest.raises(FrameError, match="not a JSON object"):
            frame.json()

    def test_deeply_nested_json_payload(self):
        """A client's HELLO nested past the recursion limit."""
        with pytest.raises(FrameError, match="not valid JSON"):
            Frame(FrameType.HELLO, b"[" * 200_000).json()

    def test_truncated_data_frame(self):
        (frame,) = FrameDecoder().feed(encode_frame(FrameType.DATA, b"\x00\x01"))
        with pytest.raises(FrameError, match="shorter than its offset"):
            decode_data(frame)

    def test_invalid_utf8_data_payload(self):
        payload = struct.Struct("!Q").pack(0) + b"\xff\xfe<a/>"
        (frame,) = FrameDecoder().feed(encode_frame(FrameType.DATA, payload))
        with pytest.raises(FrameError, match="not valid UTF-8"):
            decode_data(frame)


class TestNames:
    def test_every_type_code_has_a_name(self):
        codes = {
            value for name, value in vars(FrameType).items()
            if name.isupper() and isinstance(value, int)
        }
        assert codes == set(FrameType.NAMES)

    def test_unknown_type_still_renders(self):
        assert Frame(200, b"x").name == "type-200"


class TestWireBytes:
    """Exact wire bytes, recorded from the release that concatenated the
    type byte and payload to compute the CRC; the per-type CRC seed must
    produce the same frames."""

    GOLDEN = [
        ("ping", encode_frame(FrameType.PING), "000000000cdbb4a3a6"),
        ("ack_json", encode_json(FrameType.ACK, {"offset": 3}),
         "0000000c05f09195807b226f6666736574223a337d"),
        ("data", encode_data(5, "<a>é</a>"),
         "000000110478a20e9700000000000000053c613ec3a93c2f613e"),
        # A durable-log event record (type 33, END "a" at level 1).
        ("log_event", encode_frame(33, bytes([3, 1, 1, ord("a")])),
         "00000004210a5a54ff03010161"),
    ]

    @pytest.mark.parametrize("wire,expected", [
        (wire, hex_) for _name, wire, hex_ in GOLDEN
    ], ids=[name for name, _wire, _hex in GOLDEN])
    def test_pinned_bytes(self, wire, expected):
        assert wire.hex() == expected
        (frame,) = FrameDecoder().feed(bytes.fromhex(expected))
        assert encode_frame(frame.type, frame.payload) == wire

    @pytest.mark.parametrize("name,wire", [
        (name, wire) for name, wire, _hex in GOLDEN
    ], ids=[name for name, _wire, _hex in GOLDEN])
    def test_flipped_type_byte_fails_crc(self, name, wire):
        for flip in (0x01, 0x80):
            damaged = bytearray(wire)
            damaged[4] ^= flip
            with pytest.raises(FrameError, match="CRC mismatch"):
                FrameDecoder().feed(bytes(damaged))

    def test_payload_is_one_independent_copy(self):
        wire = encode_json(FrameType.ACK, {"offset": 3}) + encode_frame(FrameType.PING)
        decoder = FrameDecoder()
        first, second = decoder.feed(wire)
        assert type(first.payload) is bytes and first.payload == b'{"offset":3}'
        assert second.payload == b"" and decoder.pending == 0
        # Later feeds reuse the buffer without disturbing earlier payloads.
        decoder.feed(encode_json(FrameType.ACK, {"offset": 99}))
        assert first.payload == b'{"offset":3}'
