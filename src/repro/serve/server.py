"""The asyncio serving front: per-session workers, router, supervisor.

Two layers:

* :class:`SessionServer` — one worker process's asyncio TCP server.
  Each connection is handshaken (HELLO / resume), admitted through the
  :class:`~repro.serve.shedding.LoadShedder`, and split into a **read
  loop** and a **consumer task** joined by a bounded
  :class:`asyncio.Queue`.  The queue is the backpressure mechanism:
  when the machine falls behind, ``queue.put`` blocks the read loop,
  the socket's receive window closes, and the client's ``drain()``
  stalls — flow control end to end with no unbounded buffer anywhere.

* :class:`ShardedServer` — the multi-core front.  A tiny router accepts
  every new connection, keys the session token onto a shard
  (``crc32(token) % shards``), and answers with a REDIRECT frame; the
  client re-dials the worker's port directly.  A supervisor loop
  restarts dead workers (a SIGKILLed worker is back within a second);
  the sessions it carried restore from the checkpoint spool on the
  client's next resume, so a worker crash costs a reconnect, never
  results.

Failure handling is uniform: *anything* that breaks a connection —
framing corruption, idle timeout, shedding, worker death — leaves the
session's last checkpoint behind, and the client library re-enters
through the resume handshake.  Byte-identical results after resume rest
on three legs: deterministic evaluation (replay regenerates post-
checkpoint results exactly), the unacknowledged-result log (pre-
checkpoint results a dying connection dropped are re-sent verbatim),
and sequence-number suppression (results the client already holds are
not re-sent).
"""

from __future__ import annotations

import asyncio
import tempfile
import time
import zlib

from repro.errors import CheckpointError, ReproError, ResourceLimitError
from repro.obs.metrics import NULL_REGISTRY
from repro.serve.framing import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameType,
    decode_data,
    encode_json,
)
from repro.serve.session import (
    SESSION_CHECKPOINT_VERSION,
    ServeConfig,
    Session,
    SessionRejected,
    SessionStore,
    new_token,
)
from repro.serve.shedding import LoadShedder

__all__ = ["SessionServer", "ShardedServer", "worker_port", "shard_for_token"]

_READ_SIZE = 64 * 1024

#: Queue item kinds.
_CHUNK, _END = 0, 1


def worker_port(config: ServeConfig, shard: int) -> int:
    """The TCP port worker ``shard`` listens on."""
    return config.port + 1 + shard


def shard_for_token(token: str, shards: int) -> int:
    """Deterministic token → shard placement (router and clients agree)."""
    return zlib.crc32(token.encode("utf-8")) % shards


def _hello_problem(hello: dict) -> "str | None":
    """Why a HELLO's typed fields are unusable, or ``None`` if they are not."""
    resume = hello.get("resume")
    if resume is not None and not isinstance(resume, dict):
        return "resume must be an object"
    seq = (resume or {}).get("seq", 0)
    for key, value in (("seq", seq), ("priority", hello.get("priority", 0))):
        if not isinstance(value, int):
            return f"{key} must be an integer"
    deadline_ms = hello.get("deadline_ms")
    if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
        return "deadline_ms must be a number"
    return None


class _Connection:
    """Per-connection state shared by the read loop and the consumer."""

    __slots__ = ("session", "writer", "queue", "shed_payload", "close_payload",
                 "done")

    def __init__(self, session: Session, writer, queue_depth: int):
        self.session = session
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max(queue_depth, 1))
        #: Set by the shedder; the consumer executes the shed.
        self.shed_payload: "dict | None" = None
        #: Set on idle timeout / supersession (resumable close).
        self.close_payload: "dict | None" = None
        self.done = False

    def send(self, type_code: int, payload: dict) -> None:
        if not self.writer.is_closing():
            self.writer.write(encode_json(type_code, payload))

    async def drain(self) -> None:
        if not self.writer.is_closing():
            await self.writer.drain()


class SessionServer:
    """One worker's serving loop: sessions, checkpoints, backpressure."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        shard_index: int = 0,
        port: "int | None" = None,
        metrics=None,
    ):
        self.config = config
        self.shard_index = shard_index
        self.port = port if port is not None else config.port
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.store = SessionStore(
            config.session_ttl, config.spool_dir, sync=config.sync_policy
        )
        self.shedder = LoadShedder(config)
        self._connections: dict[str, _Connection] = {}
        self._server: "asyncio.AbstractServer | None" = None
        self._sweeper: "asyncio.Task | None" = None
        self._handlers: dict = {}
        m = self.metrics
        self._m_sessions = m.gauge(
            "repro_serve_sessions", "Live sessions, per tenant.")
        self._m_accepted = m.counter(
            "repro_serve_accepted_total", "Sessions admitted, per tenant.")
        self._m_resumed = m.counter(
            "repro_serve_resumed_total", "Successful reconnect-resumes.")
        self._m_rejected = m.counter(
            "repro_serve_rejected_total", "Admissions refused, per reason code.")
        self._m_shed = m.counter(
            "repro_serve_shed_total", "Sessions shed under load.")
        self._m_checkpoints = m.counter(
            "repro_serve_checkpoints_total", "Session checkpoints written.")
        self._m_chars = m.counter(
            "repro_serve_chars_total", "Input characters evaluated, per tenant.")
        self._m_results = m.counter(
            "repro_serve_results_total", "Result frames sent.")
        self._m_frame_errors = m.counter(
            "repro_serve_frame_errors_total",
            "Connections dropped on framing corruption.")
        self._m_completed = m.counter(
            "repro_serve_completed_total", "Sessions that reached DONE.")
        self._m_queue_chars = m.gauge(
            "repro_serve_queued_chars", "Input characters queued worker-wide.")
        self._m_chunk_seconds = m.histogram(
            "repro_serve_chunk_seconds", "Seconds evaluating one input chunk.")

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.ensure_future(self._sweep_loop())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Abort surviving connections so their handlers exit through the
        # ordinary ConnectionError path — cancelling a streams handler
        # task makes asyncio's connection_made callback log noise.
        for writer in list(self._handlers.values()):
            transport = writer.transport
            if transport is not None:
                try:
                    transport.abort()
                except Exception:
                    pass
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*handlers, return_exceptions=True),
                    timeout=10,
                )
            except asyncio.TimeoutError:
                for task in handlers:
                    task.cancel()

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(max(self.config.session_ttl / 4, 0.5))
            self.store.sweep()

    # -- connection handling --------------------------------------------

    async def _handle(self, reader, writer) -> None:
        decoder = FrameDecoder(self.config.max_frame)
        conn: "_Connection | None" = None
        consumer: "asyncio.Task | None" = None
        self._handlers[asyncio.current_task()] = writer
        try:
            conn, leftovers = await self._handshake(reader, writer, decoder)
            if conn is not None:
                consumer = asyncio.ensure_future(self._consume(conn))
                await self._read_loop(reader, conn, decoder, leftovers)
        except FrameError:
            # Byte alignment is lost; the connection cannot be trusted.
            # The last checkpoint stands — the client resumes from it.
            self._m_frame_errors.inc()
        except (ConnectionError, OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            if conn is not None and consumer is not None:
                if not conn.done:
                    try:  # let queued chunks finish, then wake the consumer
                        await asyncio.wait_for(conn.queue.put(None), timeout=30)
                    except asyncio.TimeoutError:
                        pass
                try:
                    await asyncio.wait_for(consumer, timeout=60)
                except Exception:
                    consumer.cancel()
            if conn is not None:
                self._detach(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._handlers.pop(asyncio.current_task(), None)

    async def _handshake(self, reader, writer, decoder):
        """Read the HELLO frame; admit, resume, or reject.

        Returns ``(connection | None, leftover_frames)`` — frames that
        arrived in the same socket read as HELLO (a pipelining client)
        are handed back for the read loop, never dropped.
        """
        frames = await self._next_frames(reader, decoder)
        if not frames or frames[0].type != FrameType.HELLO:
            return None, []
        hello = frames[0].json()
        leftovers = frames[1:]
        problem = _hello_problem(hello)
        if problem is not None:
            self._m_rejected.inc(code="bad_hello")
            writer.write(encode_json(FrameType.REJECT, {
                "code": "bad_hello", "reason": problem,
            }))
            await writer.drain()
            return None, []
        conn_box: list[_Connection] = []

        def on_result(name: str, node_id: int, seq: int,
                      fragment: "str | None" = None) -> None:
            payload = {"seq": seq, "query": name, "id": node_id}
            if fragment is not None:
                payload["fragment"] = fragment
            conn_box[0].send(FrameType.RESULT, payload)
            self._m_results.inc()

        resume = hello.get("resume")
        if resume is not None:
            token = str(resume.get("token", ""))
            try:
                blob = self.store.get(token) if token else None
            except CheckpointError:
                blob = None
            if blob is not None and blob.get("completed"):
                # The stream finished but the DONE (and possibly a result
                # tail) died with the old connection: replay them from the
                # terminal blob.  Nothing to evaluate, no session to build.
                await self._replay_completed(
                    reader, writer, blob, int(resume.get("seq", 0))
                )
                return None, []
            session = self._resume_session(
                blob, writer, on_result, last_seq=int(resume.get("seq", 0))
            )
        else:
            session = self._admit_session(hello, writer, on_result)
        if session is None:
            await writer.drain()
            return None, []
        conn = _Connection(session, writer, self.config.queue_depth)
        conn_box.append(conn)
        existing = self._connections.get(session.token)
        if existing is not None:
            # A zombie connection for the same session (the client gave
            # up on it): the new connection wins; the old consumer exits
            # without checkpointing over the new session's progress.
            existing.close_payload = {"code": "superseded", "resumable": False}
            _force_put(existing.queue, None)
        self._connections[session.token] = conn
        self.shedder.register(session.token, session.tenant, session.priority)
        self._m_sessions.inc(tenant=session.tenant)
        conn.send(FrameType.WELCOME, {
            "token": session.token,
            "offset": session.input_offset,
            "seq": session.result_seq,
            "shard": self.shard_index,
        })
        # Log-tail results the dying connection never delivered: replay
        # cannot regenerate these, the checkpoint log is their only copy.
        for entry in session.pending_replay:
            seq, name, node_id = entry[0], entry[1], entry[2]
            payload = {"seq": seq, "query": name, "id": node_id}
            if len(entry) > 3:  # transform sessions log the fragment too
                payload["fragment"] = entry[3]
            conn.send(FrameType.RESULT, payload)
            self._m_results.inc()
        session.pending_replay = []
        await conn.drain()
        self._maybe_shed()
        return conn, leftovers

    def _admit_session(self, hello, writer, on_result) -> "Session | None":
        tenant = str(hello.get("tenant", "default"))
        refusal = self.shedder.admit(tenant, int(hello.get("priority", 0)))
        if refusal is not None:
            self._m_rejected.inc(code=refusal["code"])
            writer.write(encode_json(FrameType.REJECT, refusal))
            return None
        try:
            session = Session.open(
                hello, self.config, on_result,
                token=hello.get("token") or new_token(),
            )
        except SessionRejected as rejected:
            self._m_rejected.inc(code=rejected.payload.get("code", "rejected"))
            writer.write(encode_json(FrameType.REJECT, rejected.payload))
            return None
        self._m_accepted.inc(tenant=session.tenant)
        # Checkpoint 0: even a session that dies before the checkpoint
        # cadence can resume from its admission state.
        self.store.put(session.token, session.checkpoint())
        return session

    def _resume_session(self, blob, writer, on_result,
                        *, last_seq: int = 0) -> "Session | None":
        if blob is None:
            self._m_rejected.inc(code="unknown_session")
            writer.write(encode_json(FrameType.REJECT, {
                "code": "unknown_session",
                "reason": "no checkpoint for this session token "
                          "(expired, failed, or never admitted)",
            }))
            return None
        try:
            session = Session.resume(
                blob, self.config, on_result, last_result_seq=last_seq,
            )
        except CheckpointError as exc:
            self._m_rejected.inc(code="bad_checkpoint")
            writer.write(encode_json(FrameType.REJECT, {
                "code": "bad_checkpoint", "reason": str(exc),
            }))
            return None
        self._m_resumed.inc()
        return session

    async def _replay_completed(self, reader, writer, blob, last_seq: int) -> None:
        done_payload = blob.get("done", {})
        writer.write(encode_json(FrameType.WELCOME, {
            "token": blob.get("token"),
            "offset": int(done_payload.get("offset", 0)),
            "seq": int(done_payload.get("seq", 0)),
            "shard": self.shard_index,
        }))
        for entry in blob.get("result_log", []):
            seq = entry[0]
            if seq > last_seq:
                payload = {"seq": seq, "query": entry[1], "id": entry[2]}
                if len(entry) > 3:
                    payload["fragment"] = entry[3]
                writer.write(encode_json(FrameType.RESULT, payload))
                self._m_results.inc()
        writer.write(encode_json(FrameType.DONE, done_payload))
        await writer.drain()
        self._m_resumed.inc()
        # Give the client a moment to read the DONE and hang up first —
        # closing immediately can RST the frames out of its buffer.
        deadline = time.monotonic() + 5.0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                data = await asyncio.wait_for(
                    reader.read(_READ_SIZE), timeout=remaining
                )
            except asyncio.TimeoutError:
                return
            if not data:
                return

    async def _next_frames(self, reader, decoder) -> "list[Frame]":
        frames: list[Frame] = []
        while not frames:
            data = await asyncio.wait_for(
                reader.read(_READ_SIZE), timeout=self.config.idle_timeout
            )
            if not data:
                return []
            frames = decoder.feed(data)
        return frames

    async def _read_loop(self, reader, conn: _Connection, decoder,
                         initial: "list[Frame]") -> None:
        """Socket → bounded queue.  Blocking on ``put`` IS the backpressure."""
        for frame in initial:
            await self._enqueue_frame(conn, frame)
        if decoder.failed:
            decoder.feed(b"")
        while not conn.done:
            try:
                data = await asyncio.wait_for(
                    reader.read(_READ_SIZE), timeout=self.config.idle_timeout
                )
            except asyncio.TimeoutError:
                conn.close_payload = {"code": "idle_timeout", "resumable": True}
                _force_put(conn.queue, None)
                return
            if not data:
                return
            for frame in decoder.feed(data):
                await self._enqueue_frame(conn, frame)
            if decoder.failed:
                # A corrupt frame rode in behind the good prefix.  Don't
                # wait for the next read (there may never be one if the
                # batch was the client's last) — surface it now.
                decoder.feed(b"")

    async def _enqueue_frame(self, conn: _Connection, frame: Frame) -> None:
        if frame.type == FrameType.DATA:
            offset, text = decode_data(frame)
            self.shedder.add_queued(conn.session.token, len(text))
            self._m_queue_chars.set(self.shedder.queued_chars)
            await conn.queue.put((_CHUNK, offset, text))
            self._maybe_shed()
        elif frame.type == FrameType.END:
            await conn.queue.put((_END, frame.json().get("offset"), None))
        elif frame.type == FrameType.RACK:
            conn.session.rack(int(frame.json().get("seq", 0)))
        elif frame.type == FrameType.PING:
            conn.send(FrameType.PONG, {})
            await conn.drain()

    # -- the consumer ----------------------------------------------------

    async def _consume(self, conn: _Connection) -> None:
        """Evaluate queued chunks; checkpoint, ack, finish, shed."""
        session = conn.session
        try:
            while not conn.done:
                item = await conn.queue.get()
                if conn.shed_payload is not None:
                    await self._execute_shed(conn)
                    return
                if conn.close_payload is not None:
                    await self._execute_close(conn)
                    return
                if item is None:
                    # Reader gone with no close reason (EOF / frame error /
                    # reset): keep the last checkpoint, send nothing.
                    conn.done = True
                    return
                if session.deadline_expired(time.monotonic()):
                    await self._execute_fatal(conn, {
                        "code": "deadline_exceeded",
                        "reason": "session deadline passed",
                        "resumable": False,
                    })
                    return
                kind, offset, text = item
                if kind == _END:
                    await self._execute_end(conn, offset)
                    return
                started = time.perf_counter()
                try:
                    advanced = session.feed(offset, text)
                except ResourceLimitError as exc:
                    await self._execute_fatal(conn, {
                        "code": "resource_limit",
                        "reason": str(exc),
                        "error": exc.to_dict(),
                        "resumable": False,
                    })
                    return
                except CheckpointError as exc:
                    # Offset mismatch: client and server disagree about the
                    # frontier.  The checkpoint stands; resume re-aligns.
                    await self._execute_fatal(conn, {
                        "code": "input_gap",
                        "reason": str(exc),
                        "resumable": True,
                    })
                    return
                except ReproError as exc:
                    await self._execute_fatal(conn, {
                        "code": "evaluation_error",
                        "reason": str(exc),
                        "resumable": False,
                    })
                    return
                finally:
                    self.shedder.drop_queued(session.token, len(text))
                    self._m_queue_chars.set(self.shedder.queued_chars)
                self._m_chunk_seconds.observe(time.perf_counter() - started)
                if advanced:
                    self._m_chars.inc(len(text), tenant=session.tenant)
                if session.should_checkpoint():
                    self.store.put(session.token, session.checkpoint())
                    self._m_checkpoints.inc()
                    conn.send(FrameType.ACK, {"offset": session.acked_offset})
                await conn.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            # Client went away mid-write; the checkpoint stands for resume.
            conn.done = True

    async def _execute_end(self, conn: _Connection, offset) -> None:
        session = conn.session
        if offset is not None and int(offset) != session.input_offset:
            await self._execute_fatal(conn, {
                "code": "input_gap",
                "reason": (
                    f"END at offset {offset} but only {session.input_offset} "
                    f"characters were evaluated"
                ),
                "resumable": True,
            })
            return
        try:
            payload = session.finish()
        except ReproError as exc:
            await self._execute_fatal(conn, {
                "code": "evaluation_error", "reason": str(exc),
                "resumable": False,
            })
            return
        conn.send(FrameType.DONE, payload)
        await conn.drain()
        # Keep a terminal blob (not the live checkpoint): if this DONE —
        # or unacked results before it — die with the connection, the
        # client's resume replays them instead of hitting unknown_session.
        # The TTL sweep reclaims it.
        self.store.put(session.token, {
            "version": SESSION_CHECKPOINT_VERSION,
            "completed": True,
            "token": session.token,
            "result_log": [list(entry) for entry in session.result_log],
            "done": payload,
        })
        self._m_completed.inc()
        conn.done = True

    async def _execute_shed(self, conn: _Connection) -> None:
        session = conn.session
        self.store.put(session.token, session.checkpoint())
        self._m_checkpoints.inc()
        self._m_shed.inc()
        conn.send(FrameType.SHED, conn.shed_payload)
        await conn.drain()
        conn.done = True

    async def _execute_close(self, conn: _Connection) -> None:
        """Resumable close (idle timeout / supersession): checkpoint first."""
        payload = conn.close_payload or {"code": "closed", "resumable": True}
        if payload.get("resumable", True):
            self.store.put(conn.session.token, conn.session.checkpoint())
            self._m_checkpoints.inc()
        conn.send(FrameType.ERROR, payload)
        await conn.drain()
        conn.done = True

    async def _execute_fatal(self, conn: _Connection, payload: dict) -> None:
        if not payload.get("resumable", False):
            self.store.delete(conn.session.token)
        conn.send(FrameType.ERROR, payload)
        await conn.drain()
        conn.done = True

    # -- shedding --------------------------------------------------------

    def _maybe_shed(self) -> None:
        for victim in self.shedder.victims():
            target = self._connections.get(victim.token)
            if target is None or target.shed_payload is not None:
                continue
            target.shed_payload = {
                "code": "shed",
                "reason": "worker over budget; newest low-priority session shed",
                "retry_after": self.shedder.retry_after_hint(),
            }
            self.shedder.unregister(victim.token)
            self._m_sessions.dec(tenant=target.session.tenant)
            _force_put(target.queue, None)

    def _detach(self, conn: _Connection) -> None:
        session = conn.session
        if self._connections.get(session.token) is conn:
            del self._connections[session.token]
            if conn.shed_payload is None:  # shed already unregistered
                self.shedder.unregister(session.token)
                self._m_sessions.dec(tenant=session.tenant)
        session.close()


def _force_put(queue: asyncio.Queue, item) -> None:
    """Best-effort wakeup: enqueue unless the queue is at capacity (a
    full queue means the consumer is active and will see the flag)."""
    try:
        queue.put_nowait(item)
    except asyncio.QueueFull:
        pass


# -- multi-core serving ----------------------------------------------------


class ShardedServer:
    """Router + worker processes + supervisor: serve with every core.

    The router answers every connection's first frame with a REDIRECT
    to ``worker_port(config, shard_for_token(token, shards))``; new
    sessions get their token minted here, so placement is decided
    exactly once and survives any number of reconnects.  Workers are
    real processes (``multiprocessing`` spawn context — no inherited
    event loops), each running a :class:`SessionServer` over the shared
    checkpoint spool.  The supervisor restarts any worker that dies;
    resumed sessions find their checkpoints in the spool regardless of
    which incarnation wrote them.
    """

    def __init__(self, config: ServeConfig):
        if config.spool_dir is None:
            config = _with_spool(config)
        self.config = config
        self._workers: list = [None] * config.shards
        self._router: "asyncio.AbstractServer | None" = None
        self._supervisor: "asyncio.Task | None" = None
        self._ctx = None
        #: Worker restarts performed by the supervisor (crash count).
        self.restarts = 0

    async def start(self) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        for shard in range(self.config.shards):
            self._workers[shard] = self._spawn(shard)
        self._router = await asyncio.start_server(
            self._route, self.config.host, self.config.port
        )
        await self._wait_for_workers()
        self._supervisor = asyncio.ensure_future(self._supervise())

    def _spawn(self, shard: int):
        process = self._ctx.Process(
            target=_worker_main, args=(self.config, shard), daemon=True
        )
        process.start()
        return process

    async def _wait_for_workers(self, timeout: float = 30.0) -> None:
        """Block until every worker's port accepts connections."""
        deadline = time.monotonic() + timeout
        for shard in range(self.config.shards):
            port = worker_port(self.config, shard)
            while True:
                try:
                    _, writer = await asyncio.open_connection(
                        self.config.host, port
                    )
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                    break
                except (ConnectionError, OSError):
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"worker {shard} never bound port {port}"
                        ) from None
                    await asyncio.sleep(0.05)

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(0.25)
            for shard, process in enumerate(self._workers):
                if process is not None and not process.is_alive():
                    self.restarts += 1
                    self._workers[shard] = self._spawn(shard)

    async def _route(self, reader, writer) -> None:
        decoder = FrameDecoder(self.config.max_frame)
        try:
            frames: list[Frame] = []
            while not frames:
                data = await asyncio.wait_for(reader.read(_READ_SIZE), timeout=10)
                if not data:
                    return
                frames = decoder.feed(data)
            frame = frames[0]
            if frame.type != FrameType.HELLO:
                return
            hello = frame.json()
            resume = hello.get("resume") or {}
            token = str(resume.get("token") or hello.get("token") or new_token())
            shard = shard_for_token(token, self.config.shards)
            writer.write(encode_json(FrameType.REDIRECT, {
                "host": self.config.host,
                "port": worker_port(self.config, shard),
                "token": token,
            }))
            await writer.drain()
        except (FrameError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def stop(self) -> None:
        if self._supervisor is not None:
            self._supervisor.cancel()
            self._supervisor = None
        if self._router is not None:
            self._router.close()
            await self._router.wait_closed()
            self._router = None
        for process in self._workers:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._workers:
            if process is not None:
                process.join(timeout=5)

    def worker_pid(self, shard: int) -> "int | None":
        """The live pid of worker ``shard`` (fault drills target this)."""
        process = self._workers[shard]
        return process.pid if process is not None else None


def _with_spool(config: ServeConfig) -> ServeConfig:
    from dataclasses import replace

    return replace(config, spool_dir=tempfile.mkdtemp(prefix="repro-serve-spool-"))


def _worker_main(config: ServeConfig, shard: int) -> None:
    """Entry point of one worker process."""
    asyncio.run(_worker_async(config, shard))


async def _worker_async(config: ServeConfig, shard: int) -> None:
    # A freshly SIGKILLed predecessor may hold the port for an instant;
    # retry the bind briefly instead of dying into a supervisor loop.
    server = SessionServer(config, shard_index=shard, port=worker_port(config, shard))
    for attempt in range(20):
        try:
            await server.start()
            break
        except OSError:
            if attempt == 19:
                raise
            await asyncio.sleep(0.1)
    await server.serve_forever()
