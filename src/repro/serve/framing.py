"""Length-prefixed binary framing for the serving protocol.

Every message on a serving connection is one **frame**::

    +--------+------+---------+-----------------+
    | length | type |  crc32  |     payload     |
    | 4B BE  | 1B   | 4B BE   | ``length`` bytes|
    +--------+------+---------+-----------------+

``length`` counts the payload only; ``crc32`` covers the type byte plus
the payload, so a flipped bit anywhere in a frame body is detected
before the payload is interpreted.  The decoder is deliberately
paranoid — this is the one layer that reads attacker-reachable bytes
before any session exists:

* a declared length above ``max_frame_size`` raises immediately (a
  corrupted or hostile length prefix must not drive allocation);
* a CRC mismatch raises :class:`FrameError` — and because a corrupt
  length prefix desynchronises everything after it, framing errors are
  **fatal to the connection**, never skipped.  Recovery is the session
  layer's job: state was checkpointed, the client reconnects and
  resumes (see :mod:`repro.serve.session`).

Control frames carry JSON payloads (:func:`encode_json` /
:meth:`Frame.json`); ``DATA`` frames carry a 8-byte big-endian stream
offset followed by raw UTF-8 XML text, framed by
:func:`encode_data` / :func:`decode_data` — the offset is what makes
reconnect-replay idempotent.

:class:`FrameDecoder` is sans-IO (feed bytes, collect frames), so the
same code runs under asyncio on the server, in the client library, and
directly in unit tests without a socket in sight.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.errors import ReproError

__all__ = [
    "FrameError",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "encode_frame",
    "encode_json",
    "encode_data",
    "decode_data",
    "DEFAULT_MAX_FRAME",
    "FRAME_HEADER",
    "CRC_SEEDS",
]

#: Frames above this are rejected before allocation (override per config).
DEFAULT_MAX_FRAME = 4 * 1024 * 1024

#: ``length | type | crc32`` — the 9-byte header before every payload.
FRAME_HEADER = _HEADER = struct.Struct("!IBI")
_OFFSET = struct.Struct("!Q")

#: ``CRC_SEEDS[type]`` is the CRC32 of the type byte alone, so
#: ``zlib.crc32(payload, CRC_SEEDS[type])`` is the frame CRC over type
#: plus payload without concatenating them.
CRC_SEEDS = tuple(zlib.crc32(bytes((code,))) for code in range(256))


class FrameError(ReproError):
    """A frame that cannot be trusted: bad CRC, oversized, or malformed.

    Framing errors are connection-fatal by design — once a length
    prefix is suspect, every subsequent byte boundary is too.
    """


class FrameType:
    """Frame type codes (1 byte on the wire)."""

    #: Client → server: open a session (JSON: queries, tenant, priority, ...).
    HELLO = 1
    #: Server → client: session admitted (JSON: token, shard, resume offset).
    WELCOME = 2
    #: Server → client: admission refused (JSON: reason, retry_after, error).
    REJECT = 3
    #: Client → server: XML text at a stream offset (binary, see encode_data).
    DATA = 4
    #: Server → client: input up to ``offset`` is checkpointed; the client
    #: may drop its replay buffer below it (JSON: offset).
    ACK = 5
    #: Server → client: one confirmed solution (JSON: seq, query, node_id).
    RESULT = 6
    #: Client → server: no more input (JSON: offset — total bytes sent).
    END = 7
    #: Server → client: stream fully evaluated (JSON: offset, results, seq).
    DONE = 8
    #: Server → client: session error (JSON: code, message, resumable).
    ERROR = 9
    #: Server → client: session shed under load (JSON: retry_after, reason).
    SHED = 10
    #: Router → client: dial this shard instead (JSON: host, port).
    REDIRECT = 11
    #: Liveness probes (empty payload).
    PING = 12
    PONG = 13
    #: Client → server: highest result sequence number received (JSON:
    #: seq).  Lets the server trim its unacknowledged-result log — the
    #: buffer that makes results survive a connection dying with frames
    #: still in flight.
    RACK = 14

    #: Reverse lookup for diagnostics.
    NAMES = {
        1: "HELLO", 2: "WELCOME", 3: "REJECT", 4: "DATA", 5: "ACK",
        6: "RESULT", 7: "END", 8: "DONE", 9: "ERROR", 10: "SHED",
        11: "REDIRECT", 12: "PING", 13: "PONG", 14: "RACK",
    }


class Frame:
    """One decoded frame: a type code and its raw payload bytes."""

    __slots__ = ("type", "payload")

    def __init__(self, type: int, payload: bytes = b""):
        self.type = type
        self.payload = payload

    def json(self) -> dict:
        """Decode the payload as a JSON object (control frames)."""
        try:
            value = json.loads(self.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FrameError(
                f"{self.name} frame payload is not valid JSON: {exc}"
            ) from exc
        if not isinstance(value, dict):
            raise FrameError(f"{self.name} frame payload is not a JSON object")
        return value

    @property
    def name(self) -> str:
        return FrameType.NAMES.get(self.type, f"type-{self.type}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.name}, {len(self.payload)}B)"


def encode_frame(type: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload) to wire bytes."""
    crc = zlib.crc32(payload, CRC_SEEDS[type])
    return _HEADER.pack(len(payload), type, crc) + payload


def encode_json(type: int, payload: dict) -> bytes:
    """Serialize a control frame with a JSON payload."""
    return encode_frame(
        type, json.dumps(payload, separators=(",", ":")).encode("utf-8")
    )


def encode_data(offset: int, text: str) -> bytes:
    """Serialize a ``DATA`` frame: stream offset + UTF-8 XML text.

    ``offset`` is the number of *characters* of session input that
    precede this chunk — the replay coordinate system shared with
    ``ACK`` frames and checkpoints.
    """
    return encode_frame(FrameType.DATA, _OFFSET.pack(offset) + text.encode("utf-8"))


def decode_data(frame: Frame) -> tuple[int, str]:
    """The (offset, text) of a ``DATA`` frame."""
    if len(frame.payload) < _OFFSET.size:
        raise FrameError("DATA frame shorter than its offset header")
    (offset,) = _OFFSET.unpack_from(frame.payload)
    try:
        text = frame.payload[_OFFSET.size:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"DATA frame payload is not valid UTF-8: {exc}") from exc
    return offset, text


class FrameDecoder:
    """Incremental sans-IO frame decoder.

    Feed it byte chunks as they arrive; it yields complete frames and
    buffers partial ones.  All validation (size bound, CRC) happens
    here, so every consumer of frames sees only trustworthy payloads.
    """

    __slots__ = ("max_frame", "_buffer", "_failure")

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._failure: "FrameError | None" = None

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    @property
    def failed(self) -> bool:
        """Whether the byte stream has lost alignment (decoder is dead)."""
        return self._failure is not None

    def feed(self, data: bytes) -> "list[Frame]":
        """Absorb ``data``; return every frame it completes.

        Raises :class:`FrameError` on an oversized declared length or a
        CRC mismatch.  Frames that already passed their own CRC in the
        same batch are **returned first** — the error is parked and
        raised on the next call — so one corrupt frame in a pipelined
        burst never discards the valid work ahead of it.  After the
        error surfaces the decoder is unusable: the stream has lost
        byte alignment and the connection must drop (check
        :attr:`failed` on paths that stop feeding).
        """
        if self._failure is not None:
            raise self._failure
        buffer = self._buffer
        buffer += data
        frames: list[Frame] = []
        error: "FrameError | None" = None
        pos = 0
        size = len(buffer)
        with memoryview(buffer) as view:
            while size - pos >= _HEADER.size:
                length, type_code, crc = _HEADER.unpack_from(buffer, pos)
                if length > self.max_frame:
                    error = FrameError(
                        f"declared frame length {length} exceeds limit {self.max_frame}"
                    )
                    break
                end = pos + _HEADER.size + length
                if end > size:
                    break
                payload = bytes(view[pos + _HEADER.size:end])
                if zlib.crc32(payload, CRC_SEEDS[type_code]) != crc:
                    error = FrameError(
                        f"CRC mismatch on {FrameType.NAMES.get(type_code, type_code)} "
                        f"frame ({length}B payload)"
                    )
                    break
                frames.append(Frame(type_code, payload))
                pos = end
        if error is not None:
            return self._fail(frames, error)
        del buffer[:pos]
        return frames

    def _fail(self, frames: "list[Frame]", error: FrameError) -> "list[Frame]":
        self._failure = error
        self._buffer.clear()
        if frames:
            return frames
        raise error
