"""Client library for the serving protocol: retry, resume, backoff.

:class:`ServeClient` owns everything a well-behaved client needs:

* **A dedicated reader task.**  Results, acks, and errors are drained
  concurrently with sending, so mutual backpressure (server pauses
  reads, client keeps streaming) can never deadlock the connection.

* **A replay buffer pruned by ACK offsets.**  Every chunk stays in
  memory until the server acknowledges a checkpoint at or beyond it;
  after a reconnect the client re-sends exactly the chunks above the
  server's restored offset.  Chunk idempotency on the server side makes
  over-sending harmless.

* **Reconnect-resume with capped exponential backoff + jitter.**  Any
  resumable failure — connection reset, frame corruption, idle drop,
  shedding, a SIGKILLed worker — triggers a resume handshake carrying
  the session token and the highest result sequence number received.
  The server re-sends the unacknowledged tail and suppresses what the
  client already holds, so :attr:`results` is exactly-once by sequence
  number no matter how many times the connection died.  Backoff delays
  come from a caller-seedable :class:`random.Random`, so fault drills
  are reproducible.

* **RACK cadence.**  Every ``rack_every`` results the client confirms
  its high-water sequence number, letting the server trim its
  unacknowledged-result log.

The optional ``mangle`` hook intercepts outgoing wire bytes — fault
campaigns use it to flip bits mid-stream and prove the CRC layer plus
resume machinery turn corruption into a clean reconnect.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Iterable

from repro.errors import ReproError
from repro.serve.framing import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    FrameType,
    encode_data,
    encode_json,
)

__all__ = ["ServeClient", "ServeClientError"]

_READ_SIZE = 64 * 1024

#: Reject codes worth retrying (load will pass); anything else is final.
_RETRYABLE_REJECTS = {
    "over_sessions", "over_tenant_sessions", "over_queue_budget",
}


class ServeClientError(ReproError):
    """A serving request that failed for good (not resumable/retryable)."""

    def __init__(self, message: str, payload: "dict | None" = None):
        super().__init__(message)
        self.payload = payload or {}


class _Retry(Exception):
    """Internal: this attempt failed but the session can continue."""

    def __init__(self, reason: str, retry_after: float = 0.0):
        super().__init__(reason)
        self.retry_after = retry_after


class _Redirect(Exception):
    """Internal: the router pointed us at a worker."""

    def __init__(self, host: str, port: int, token: "str | None"):
        super().__init__(f"redirect to {host}:{port}")
        self.host = host
        self.port = port
        self.token = token


class ServeClient:
    """One resumable serving session against a router or worker."""

    def __init__(
        self,
        host: str,
        port: int,
        queries: "dict[str, str]",
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_ms: "int | None" = None,
        rack_every: int = 64,
        max_attempts: int = 10,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 10.0,
        io_timeout: float = 60.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        rng: "random.Random | None" = None,
        mangle: "Callable[[bytes], bytes] | None" = None,
    ):
        self.router = (host, port)
        self.addr = (host, port)
        self.queries = dict(queries)
        self.tenant = tenant
        self.priority = priority
        self.deadline_ms = deadline_ms
        self.rack_every = rack_every
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.max_frame = max_frame
        self.rng = rng if rng is not None else random.Random()
        self.mangle = mangle
        #: Session token (learned from REDIRECT or WELCOME).
        self.token: "str | None" = None
        #: Results by sequence number: seq -> (query name, node id).
        self.results: dict[int, tuple[str, int]] = {}
        #: Transform-session fragments by sequence number (only results
        #: that carried a serialized fragment appear here).
        self.fragments: dict[int, str] = {}
        #: Highest result sequence number received.
        self.last_seq = 0
        #: Input offset the server has checkpointed (replay-buffer floor).
        self.acked_offset = 0
        #: DONE payload once the stream completed.
        self.done_payload: "dict | None" = None
        #: Times a resume handshake was accepted (observability).
        self.resumes = 0
        #: Attempts spent across the whole run (observability).
        self.attempts = 0
        self._welcomed_once = False
        self._server_offset = 0
        self._pending: list[tuple[int, str]] = []
        self._unracked = 0

    # -- public API ------------------------------------------------------

    async def run(self, chunks: "Iterable[str]") -> dict:
        """Stream ``chunks`` (in order, offsets from 0) to completion.

        Returns the DONE payload.  Safe to call again after a
        cancellation — session identity and received results persist on
        the instance, so the rerun resumes instead of restarting.
        """
        pending: list[tuple[int, str]] = []
        offset = 0
        for text in chunks:
            pending.append((offset, text))
            offset += len(text)
        self._pending = [
            (off, text) for off, text in pending
            if off + len(text) > self.acked_offset
        ]
        end_offset = offset
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            try:
                return await self._attempt(end_offset)
            except _Retry as retry:
                if attempt >= self.max_attempts:
                    raise ServeClientError(
                        f"gave up after {attempt} attempts: {retry}"
                    ) from retry
                await asyncio.sleep(self._backoff(attempt, retry.retry_after))
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError, FrameError) as exc:
                if attempt >= self.max_attempts:
                    raise ServeClientError(
                        f"gave up after {attempt} attempts: {exc!r}"
                    ) from exc
                await asyncio.sleep(self._backoff(attempt, 0.0))

    def result_ids(self, name: str) -> "list[int]":
        """Node ids for query ``name``, in result-sequence order."""
        return [
            node_id for _, (query, node_id) in sorted(self.results.items())
            if query == name
        ]

    def result_fragments(self, name: str) -> "list[str]":
        """Fragment texts for transform query ``name``, in sequence order."""
        return [
            self.fragments[seq]
            for seq, (query, _node_id) in sorted(self.results.items())
            if query == name and seq in self.fragments
        ]

    def _backoff(self, attempt: int, retry_after: float) -> float:
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self.rng.random()  # full jitter around the midpoint
        return max(delay, retry_after)

    # -- one connection attempt -----------------------------------------

    async def _attempt(self, end_offset: int) -> dict:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(*self.addr), timeout=self.connect_timeout
        )
        try:
            welcomed = asyncio.Event()
            done = asyncio.get_running_loop().create_future()
            done.add_done_callback(_consume_exception)
            reader_task = asyncio.ensure_future(
                self._read(reader, writer, welcomed, done)
            )
            try:
                self._send(writer, self._hello_bytes())
                await writer.drain()
                await self._await_welcome(welcomed, done)
                await self._send_input(writer, done, end_offset)
                payload = await asyncio.wait_for(done, timeout=self.io_timeout)
                self.done_payload = payload
                return payload
            finally:
                if not reader_task.done():
                    reader_task.cancel()
                    try:
                        await reader_task
                    except (asyncio.CancelledError, Exception):
                        pass
        except _Redirect as redirect:
            self.addr = (redirect.host, redirect.port)
            if redirect.token:
                self.token = redirect.token
            raise _Retry("redirected", 0.0) from redirect
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _hello_bytes(self) -> bytes:
        if self._welcomed_once and self.token:
            hello: dict = {"resume": {"token": self.token, "seq": self.last_seq}}
        else:
            hello = {
                "queries": self.queries,
                "tenant": self.tenant,
                "priority": self.priority,
            }
            if self.deadline_ms is not None:
                hello["deadline_ms"] = self.deadline_ms
            if self.token:
                hello["token"] = self.token
        return encode_json(FrameType.HELLO, hello)

    async def _await_welcome(self, welcomed: asyncio.Event, done) -> None:
        waiter = asyncio.ensure_future(welcomed.wait())
        try:
            await asyncio.wait(
                [waiter, done],
                timeout=self.io_timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            waiter.cancel()
        if welcomed.is_set():
            return
        if done.done():
            done.result()  # raises the reader's failure
        raise _Retry("no WELCOME before timeout")

    async def _send_input(self, writer, done, end_offset: int) -> None:
        for offset, text in list(self._pending):
            if offset + len(text) <= self._server_offset:
                continue
            if done.done():
                done.result()  # raises the reader's failure; a result is DONE
                return
            self._send(writer, encode_data(offset, text))
            await writer.drain()
        self._send(writer, encode_json(FrameType.END, {"offset": end_offset}))
        await writer.drain()

    def _send(self, writer, data: bytes) -> None:
        if writer.is_closing():
            # the server already dropped us; writing into a dying
            # transport only makes asyncio log "socket.send() raised"
            raise ConnectionResetError("connection closed by server")
        writer.write(self.mangle(data) if self.mangle is not None else data)

    # -- the reader task -------------------------------------------------

    async def _read(self, reader, writer, welcomed, done) -> None:
        """Drain server frames until DONE or a terminal condition.

        Never raises into the task machinery: failures (:class:`_Retry`,
        :class:`_Redirect`, :class:`ServeClientError`, transport errors)
        are parked on the ``done`` future for the attempt to re-raise.
        """
        try:
            await self._read_frames(reader, writer, welcomed, done)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if not done.done():
                done.set_exception(exc)

    async def _read_frames(self, reader, writer, welcomed, done) -> None:
        decoder = FrameDecoder(self.max_frame)
        while True:
            data = await asyncio.wait_for(
                reader.read(_READ_SIZE), timeout=self.io_timeout
            )
            if not data:
                raise _Retry("server closed the connection")
            for frame in decoder.feed(data):
                if frame.type == FrameType.RESULT:
                    self._on_result(frame.json(), writer)
                elif frame.type == FrameType.ACK:
                    self._on_ack(int(frame.json().get("offset", 0)))
                elif frame.type == FrameType.WELCOME:
                    payload = frame.json()
                    self.token = payload.get("token", self.token)
                    self._server_offset = int(payload.get("offset", 0))
                    if self._welcomed_once:
                        self.resumes += 1
                    self._welcomed_once = True
                    welcomed.set()
                elif frame.type == FrameType.DONE:
                    if not done.done():
                        done.set_result(frame.json())
                    return
                elif frame.type == FrameType.REDIRECT:
                    payload = frame.json()
                    raise _Redirect(
                        payload.get("host", self.addr[0]),
                        int(payload["port"]),
                        payload.get("token"),
                    )
                elif frame.type == FrameType.REJECT:
                    payload = frame.json()
                    code = payload.get("code", "rejected")
                    if code in _RETRYABLE_REJECTS:
                        raise _Retry(
                            f"rejected: {code}",
                            float(payload.get("retry_after", 0.0)),
                        )
                    raise ServeClientError(
                        f"session rejected ({code}): {payload.get('reason')}",
                        payload,
                    )
                elif frame.type == FrameType.SHED:
                    payload = frame.json()
                    raise _Retry(
                        "shed under load",
                        float(payload.get("retry_after", 0.0)),
                    )
                elif frame.type == FrameType.ERROR:
                    payload = frame.json()
                    if payload.get("resumable", False):
                        raise _Retry(
                            f"resumable error: {payload.get('code')}",
                            float(payload.get("retry_after", 0.0)),
                        )
                    raise ServeClientError(
                        f"session failed ({payload.get('code')}): "
                        f"{payload.get('reason')}",
                        payload,
                    )

    def _on_result(self, payload: dict, writer) -> None:
        seq = int(payload["seq"])
        if seq not in self.results:
            self.results[seq] = (str(payload["query"]), int(payload["id"]))
            if "fragment" in payload:
                self.fragments[seq] = str(payload["fragment"])
        if seq > self.last_seq:
            self.last_seq = seq
        self._unracked += 1
        if self._unracked >= self.rack_every and not writer.is_closing():
            self._unracked = 0
            # RACKs ride the same socket and are lossy (the next one, or
            # the next attempt's HELLO, carries the sequence again), so a
            # transport the server already closed after DONE skips it.
            self._send(writer, encode_json(FrameType.RACK, {"seq": self.last_seq}))

    def _on_ack(self, offset: int) -> None:
        if offset <= self.acked_offset:
            return
        self.acked_offset = offset
        self._pending = [
            (off, text) for off, text in self._pending
            if off + len(text) > offset
        ]


def _consume_exception(future) -> None:
    """Mark a parked failure as observed (silences the never-retrieved
    warning when the attempt bails out through a different exception)."""
    if not future.cancelled():
        future.exception()
