"""Serving sessions: admission, evaluation, checkpoints, resume.

A :class:`Session` is the transport-free core of the serving layer: one
tenant's standing queries bound to one logical input stream.  The
asyncio server (:mod:`repro.serve.server`) drives it, but nothing in
here knows about sockets — sessions are driven the same way from unit
tests, from a worker process, or from a future non-TCP front.

Robustness properties, in order of importance:

* **Admission is checked before state is built.**  Query count, query
  syntax, and per-query :class:`~repro.stream.recovery.ResourceLimits`
  are validated in :meth:`Session.open`; failures raise
  :class:`SessionRejected` carrying a serializable reject payload (the
  client sees *why*, including the structured
  :meth:`~repro.errors.ResourceLimitError.to_dict` fields).

* **Every chunk is idempotent.**  Input chunks carry character offsets;
  a chunk at an offset the session has already evaluated is
  acknowledged and dropped (reconnect replay), and a chunk beyond the
  expected offset is a protocol error (a gap can never be silently
  skipped).

* **Checkpoints are the unit of loss — and lose no results.**  Every
  ``checkpoint_interval`` chunks the session captures its engine
  (:meth:`~repro.multiq.engine.MultiQueryEngine.snapshot`,
  :meth:`~repro.core.processor.XPathStream.snapshot` or
  :meth:`~repro.transform.extract.SubstreamExtractor.snapshot`) plus the input
  offset and result sequence number into one JSON blob.  A session
  restored from that blob and re-fed the chunks above the checkpoint
  offset emits **byte-identical results**: evaluation is deterministic,
  and the result sequence counter rides the snapshot, so replayed
  results regenerate with the same sequence numbers.  Two sequence-number
  mechanisms close the remaining gaps:

  - results emitted *before* the checkpoint that a dying connection
    never delivered cannot be regenerated by replay, so every result
    stays in an **unacknowledged-result log** (also in the blob) until
    the client confirms it with a RACK frame; on resume the tail the
    client is missing is re-sent verbatim;
  - results the client *does* already hold (it states its highest
    sequence number on resume) are suppressed during replay.

  Together the client's result stream is exactly-once in sequence
  order, no matter where the previous connection died.

* **Single-query sessions skip the router.**  One query binds an
  :class:`~repro.core.processor.XPathStream` (the leanest fused path);
  more bind a shared :class:`~repro.multiq.engine.MultiQueryEngine`.
  Both feed, close and checkpoint through the same methods; the blob
  records which.  A single-query session enforces exactly what the same
  query enforces beside others: ``limits`` bound the input stream and
  ``query_limits`` the query's machine (:func:`_single_query_limits`).
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, fields
from typing import Callable

from repro.errors import (
    CheckpointError,
    ReproError,
    ResourceLimitError,
    XPathSyntaxError,
)
from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.serve.framing import DEFAULT_MAX_FRAME
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.xpath.querytree import compile_query

__all__ = [
    "ServeConfig",
    "Session",
    "SessionRejected",
    "SessionStore",
    "SESSION_CHECKPOINT_VERSION",
    "TRANSFORM_PREFIX",
]

#: Version of the session checkpoint blob schema.
SESSION_CHECKPOINT_VERSION = 1

#: Query-value prefix selecting a *transform* session: every match is
#: delivered as a serialized XML fragment, not just a node id.
TRANSFORM_PREFIX = "select:"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one serving deployment (picklable: workers inherit it).

    Budgets are **per worker process** — each worker owns its sessions
    outright, so admission and shedding decisions never need
    cross-process coordination.
    """

    host: str = "127.0.0.1"
    #: Router port; workers listen on ``port + 1 + shard_index``.
    port: int = 7600
    #: Worker processes (1 = serve in-process, no router hop).
    shards: int = 1
    #: Recovery policy for session input streams.
    policy: str = RecoveryPolicy.STRICT.value
    #: Tokenizer-level limits applied to every session's input stream.
    limits: ResourceLimits | None = None
    #: Per-query machine admission limits (candidate buffers, events).
    query_limits: ResourceLimits | None = None
    #: Hard bound on one frame's payload (corrupt lengths never allocate).
    max_frame: int = DEFAULT_MAX_FRAME
    #: Most standing queries one session may register.
    max_queries_per_session: int = 16
    #: Session count ceiling (per worker); admission beyond it rejects.
    max_sessions: int = 256
    #: Per-tenant session ceiling (per worker).
    max_sessions_per_tenant: int = 64
    #: Bounded per-session input queue, in chunks.  When full the server
    #: stops reading that connection — TCP backpressure, not buffering.
    queue_depth: int = 8
    #: Global (per-worker) queued-input budget in characters; crossing it
    #: sheds the newest low-priority sessions.
    max_queued_chars: int = 8 * 1024 * 1024
    #: Checkpoint cadence, in chunks.
    checkpoint_interval: int = 4
    #: Seconds a connection may sit idle before it is checkpointed and
    #: dropped (resumable).
    idle_timeout: float = 30.0
    #: Ceiling on client-requested session deadlines, seconds.
    deadline_cap: float = 600.0
    #: Seconds a detached session's checkpoint is retained for resume.
    session_ttl: float = 300.0
    #: Base Retry-After hint, seconds; scaled by load pressure.
    retry_after: float = 1.0
    #: Most unacknowledged results a session may buffer before it is
    #: terminated (anti-DoS bound: a client that never RACKs cannot grow
    #: server memory without bound).
    max_result_backlog: int = 100_000
    #: Directory for on-disk checkpoint spooling.  Required for
    #: crash-tolerant sharded serving (a restarted worker restores its
    #: sessions from here); ``None`` keeps checkpoints in memory only.
    spool_dir: str | None = None
    #: When to ``fsync`` durable checkpoint writes: ``"always"`` (the
    #: default — machine-crash safe), ``"interval"``/``"interval:N"``
    #: (every N writes), or ``"none"``.  Shared spelling with
    #: :class:`repro.store.sync.SyncPolicy`; applies to both the spool
    #: and a store-backed session log.
    sync_policy: str = "always"
    #: Directory of a durable :mod:`repro.store` log to keep session
    #: checkpoints in (framed, CRC-checked, torn-tail safe) instead of
    #: one spool file per session.  Overrides ``spool_dir``.
    store_dir: str | None = None
    #: Result-emission mode for every session's machines: ``"default"``
    #: (paper timing) or ``"earliest"`` (results flush as soon as they
    #: are provable — same result set, earlier RESULT frames; see
    #: docs/LATENCY.md).  Rides each engine's own checkpoint, so a
    #: resumed session keeps the mode it was admitted with.
    emission: str = "default"


class SessionRejected(ReproError):
    """Admission refused; ``payload`` is the serializable reject frame body."""

    def __init__(self, reason: str, payload: dict):
        super().__init__(reason)
        self.payload = payload


def _reject(reason: str, code: str, *, retry_after: float | None = None,
            error: dict | None = None) -> SessionRejected:
    payload: dict = {"code": code, "reason": reason}
    if retry_after is not None:
        payload["retry_after"] = retry_after
    if error is not None:
        payload["error"] = error
    return SessionRejected(reason, payload)


class Session:
    """One tenant's standing queries over one resumable input stream."""

    def __init__(
        self,
        token: str,
        tenant: str,
        priority: int,
        queries: dict[str, str],
        config: ServeConfig,
        on_result: "Callable[[str, int, int], None]",
        *,
        deadline: float | None = None,
        metrics=None,
    ):
        self.token = token
        self.tenant = tenant
        self.priority = priority
        self.queries = queries
        self.config = config
        self.on_result = on_result
        #: Characters of session input fully evaluated so far.
        self.input_offset = 0
        #: Characters of input covered by the last checkpoint (the ack
        #: frontier: clients may drop replay buffers below this).
        self.acked_offset = 0
        #: Global sequence number of the last result emitted.
        self.result_seq = 0
        #: Results with seq <= this are suppressed (the resuming client
        #: already holds them).
        self.suppress_seq = 0
        #: Per-query emitted counts (for the DONE summary).
        self.counts: dict[str, int] = {name: 0 for name in queries}
        #: Highest result sequence number the client confirmed (RACK).
        self.client_seq = 0
        #: Results sent but not yet RACKed: (seq, query, node_id) in
        #: sequence order.  Rides the checkpoint so a resume can re-send
        #: the tail a dying connection dropped on the floor.
        self.result_log: list[list] = []
        #: Log-tail results a resume determined the client is missing;
        #: the server sends these right after WELCOME.
        self.pending_replay: list[list] = []
        #: Absolute monotonic-ish deadline (time.monotonic frame), or None.
        self.deadline = deadline
        self.chunks_since_checkpoint = 0
        self.finished = False
        self._engine = None
        self._single_name: str | None = None
        self._transform = any(
            str(query).startswith(TRANSFORM_PREFIX)
            for query in queries.values()
        )
        self._metrics = metrics

    # -- admission ------------------------------------------------------

    @classmethod
    def open(
        cls,
        hello: dict,
        config: ServeConfig,
        on_result: "Callable[[str, int, int], None]",
        *,
        token: str | None = None,
        now: float | None = None,
        metrics=None,
    ) -> "Session":
        """Admit a new session from a HELLO payload, or raise
        :class:`SessionRejected` with an explicit, serializable reason."""
        queries = hello.get("queries")
        if not isinstance(queries, dict) or not queries:
            raise _reject("HELLO carries no queries", "bad_hello")
        if len(queries) > config.max_queries_per_session:
            raise _reject(
                f"{len(queries)} queries exceed the per-session cap "
                f"of {config.max_queries_per_session}",
                "too_many_queries",
            )
        tenant = str(hello.get("tenant", "default"))
        priority = int(hello.get("priority", 0))
        prefixed = sum(
            1 for query in queries.values()
            if str(query).startswith(TRANSFORM_PREFIX)
        )
        if prefixed and prefixed != len(queries):
            raise _reject(
                f"mixed session: {prefixed} of {len(queries)} queries use "
                f"the {TRANSFORM_PREFIX!r} prefix — a session is either "
                "all-transform or all-match",
                "mixed_queries",
            )
        for name, query in queries.items():
            try:
                compile_query(_strip_transform(str(query)))
            except XPathSyntaxError as exc:
                raise _reject(
                    f"query {name!r} does not parse: {exc}", "bad_query"
                ) from exc
        deadline = None
        deadline_ms = hello.get("deadline_ms")
        if deadline_ms is not None:
            seconds = min(float(deadline_ms) / 1000.0, config.deadline_cap)
            deadline = (now if now is not None else time.monotonic()) + seconds
        session = cls(
            token or new_token(),
            tenant,
            priority,
            {str(k): str(v) for k, v in queries.items()},
            config,
            on_result,
            deadline=deadline,
            metrics=metrics,
        )
        try:
            session._build_engine()
        except ResourceLimitError as exc:
            raise _reject(str(exc), "resource_limit", error=exc.to_dict()) from exc
        return session

    def _build_engine(self) -> None:
        names = list(self.queries)
        if self._transform:
            from repro.transform.extract import SubstreamExtractor

            self._engine = SubstreamExtractor(
                {
                    name: _strip_transform(query)
                    for name, query in self.queries.items()
                },
                on_fragment=self._emit_fragment,
                policy=self.config.policy,
                limits=self.config.limits,
                query_limits=self.config.query_limits,
                metrics=self._metrics,
                emission=self.config.emission,
            )
            return
        if len(names) == 1:
            name = names[0]
            self._single_name = name

            def forward(node_id: int, _name: str = name) -> None:
                self._emit(_name, node_id)

            self._engine = XPathStream(
                self.queries[name],
                on_match=forward,
                policy=self.config.policy,
                limits=_single_query_limits(self.config),
                metrics=self._metrics,
                emission=self.config.emission,
            )
        else:
            engine = MultiQueryEngine(
                on_match=self._emit,
                policy=self.config.policy,
                limits=self.config.limits,
                metrics=self._metrics,
            )
            for name, query in self.queries.items():
                engine.add_query(name, query, limits=self.config.query_limits,
                                 emission=self.config.emission)
            self._engine = engine

    # -- result emission ------------------------------------------------

    def _emit(self, name: str, node_id: int,
              fragment: str | None = None) -> None:
        self.result_seq += 1
        self.counts[name] = self.counts.get(name, 0) + 1
        if self.result_seq > self.suppress_seq:
            entry = [self.result_seq, name, node_id]
            if fragment is not None:
                entry.append(fragment)
            self.result_log.append(entry)
            if fragment is None:
                self.on_result(name, node_id, self.result_seq)
            else:
                self.on_result(name, node_id, self.result_seq, fragment)

    def _emit_fragment(self, name: str, node_id: int, text: str) -> None:
        """Transform-session result path: the fragment rides the result.

        The serialized fragment is stored in the unacknowledged-result
        log, so the exactly-once resume machinery (log-tail re-send,
        replay suppression) covers fragment payloads with no extra
        cases.
        """
        self._emit(name, node_id, text)

    def rack(self, seq: int) -> None:
        """The client confirmed holding results up to ``seq``; trim the log."""
        if seq <= self.client_seq:
            return
        self.client_seq = seq
        keep = 0
        log = self.result_log
        while keep < len(log) and log[keep][0] <= seq:
            keep += 1
        del log[:keep]

    # -- feeding --------------------------------------------------------

    def feed(self, offset: int, text: str) -> bool:
        """Evaluate one input chunk; return True if it advanced the stream.

        Replayed chunks (``offset + len(text) <= input_offset``) are
        no-ops; a chunk starting beyond the expected offset raises
        :class:`CheckpointError` — the client and server have diverged
        and silently skipping input would corrupt results.  Partial
        overlap (a chunk straddling the frontier) feeds only the unseen
        suffix, so resume replay never depends on the client re-chunking
        exactly.
        """
        if self.finished:
            raise CheckpointError("session already finished")
        end = offset + len(text)
        if end <= self.input_offset:
            return False
        if offset > self.input_offset:
            raise CheckpointError(
                f"input gap: expected offset {self.input_offset}, got {offset}"
            )
        if offset < self.input_offset:
            text = text[self.input_offset - offset:]
        self._engine.feed_text(text)
        self.input_offset = end
        self.chunks_since_checkpoint += 1
        if len(self.result_log) > self.config.max_result_backlog:
            raise ResourceLimitError(
                "max_result_backlog",
                self.config.max_result_backlog,
                len(self.result_log),
                context=f"serving session {self.token}",
            )
        return True

    def finish(self) -> dict:
        """Close the input stream; return the DONE payload."""
        if not self.finished:
            self._engine.close()
            self.finished = True
        return {
            "offset": self.input_offset,
            "seq": self.result_seq,
            "counts": dict(self.counts),
        }

    def deadline_expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    # -- checkpoint / resume --------------------------------------------

    def should_checkpoint(self) -> bool:
        return self.chunks_since_checkpoint >= self.config.checkpoint_interval

    def checkpoint(self) -> dict:
        """Capture the whole session as one JSON-serializable blob."""
        blob = {
            "version": SESSION_CHECKPOINT_VERSION,
            "token": self.token,
            "tenant": self.tenant,
            "priority": self.priority,
            "queries": dict(self.queries),
            "kind": (
                "transform" if self._transform
                else "single" if self._single_name is not None
                else "multi"
            ),
            "input_offset": self.input_offset,
            "result_seq": self.result_seq,
            "client_seq": self.client_seq,
            "result_log": [list(entry) for entry in self.result_log],
            "counts": dict(self.counts),
            "deadline_left": (
                None if self.deadline is None
                else max(0.0, self.deadline - time.monotonic())
            ),
            "engine": self._engine.snapshot(),
        }
        self.chunks_since_checkpoint = 0
        self.acked_offset = self.input_offset
        return blob

    @classmethod
    def resume(
        cls,
        blob: dict,
        config: ServeConfig,
        on_result: "Callable[[str, int, int], None]",
        *,
        last_result_seq: int = 0,
        now: float | None = None,
        metrics=None,
    ) -> "Session":
        """Rebuild a session from a checkpoint blob.

        ``last_result_seq`` is the highest result sequence number the
        client confirmed holding.  Two repairs make the resumed result
        stream exactly-once:

        * log-tail results the client is missing (sequence above
          ``last_result_seq`` but at or below the checkpoint's counter)
          are queued on :attr:`pending_replay` for immediate re-send —
          replay cannot regenerate them, the log is their only copy;
        * engine-regenerated results at or below ``last_result_seq``
          are suppressed during replay.
        """
        version = blob.get("version")
        if version != SESSION_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported session checkpoint version {version!r} "
                f"(expected {SESSION_CHECKPOINT_VERSION})"
            )
        try:
            deadline = None
            if blob.get("deadline_left") is not None:
                base = now if now is not None else time.monotonic()
                deadline = base + float(blob["deadline_left"])
            session = cls(
                blob["token"],
                blob["tenant"],
                int(blob["priority"]),
                dict(blob["queries"]),
                config,
                on_result,
                deadline=deadline,
                metrics=metrics,
            )
            session.input_offset = int(blob["input_offset"])
            session.acked_offset = session.input_offset
            session.result_seq = int(blob["result_seq"])
            session.counts = {k: int(v) for k, v in blob["counts"].items()}
            client_seq = max(int(last_result_seq), int(blob.get("client_seq", 0)))
            session.client_seq = client_seq
            session.suppress_seq = max(int(last_result_seq), 0)
            log = [list(entry) for entry in blob.get("result_log", [])]
            session.pending_replay = [e for e in log if e[0] > last_result_seq]
            # The re-sent tail is itself unconfirmed until RACKed again.
            session.result_log = list(session.pending_replay)
            if blob["kind"] == "transform":
                from repro.transform.extract import SubstreamExtractor

                session._engine = SubstreamExtractor.restore(
                    blob["engine"],
                    on_fragment=session._emit_fragment,
                    policy=config.policy,
                    limits=config.limits,
                    query_limits=config.query_limits,
                    metrics=metrics,
                )
            elif blob["kind"] == "single":
                (name,) = list(blob["queries"])
                session._single_name = name

                def forward(node_id: int, _name: str = name) -> None:
                    session._emit(_name, node_id)

                session._engine = XPathStream.restore(
                    blob["engine"], on_match=forward, metrics=metrics
                )
            else:
                session._engine = MultiQueryEngine.restore(
                    blob["engine"], on_match=session._emit, metrics=metrics
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed session checkpoint: {exc}") from exc
        return session

    def close(self) -> None:
        """Detach observability resources (metrics collectors) if any."""
        metrics = self._metrics
        engine = self._engine
        if metrics is not None and engine is not None:
            detach = getattr(engine, "detach", None)
            if detach is not None:
                detach()
                return
            sync = getattr(engine, "_sync_metrics", None)
            if sync is not None:
                metrics.remove_collector(sync)


#: Limits both an input stream and a machine check.
_SHARED_LIMITS = ("max_depth", "max_total_events")

#: Limits only a machine checks.
_MACHINE_LIMITS = ("max_buffered_candidates",)


def _single_query_limits(config: ServeConfig) -> ResourceLimits | None:
    """The one :class:`ResourceLimits` of a single-query session's stream.

    An :class:`~repro.core.processor.XPathStream` hands one limits object
    to both its tokenizer and its machine, where a multi-query session
    bounds its input with ``config.limits`` and each machine with
    ``config.query_limits``.  Built field by field so both kinds enforce
    the same bounds: the tokenizer-only fields from ``limits``,
    ``max_buffered_candidates`` from ``query_limits``, and the smaller of
    the two for the fields both layers check.
    """
    if config.limits is None and config.query_limits is None:
        return None
    stream = config.limits or ResourceLimits()
    query = config.query_limits or ResourceLimits()
    merged = {}
    for limit in fields(ResourceLimits):
        name = limit.name
        stream_value, query_value = getattr(stream, name), getattr(query, name)
        if name in _MACHINE_LIMITS:
            merged[name] = query_value
        elif name in _SHARED_LIMITS and query_value is not None:
            merged[name] = (query_value if stream_value is None
                            else min(stream_value, query_value))
        else:
            merged[name] = stream_value
    return ResourceLimits(**merged)


def _strip_transform(query: str) -> str:
    """Drop a ``select:`` prefix; plain match queries pass through."""
    if query.startswith(TRANSFORM_PREFIX):
        return query[len(TRANSFORM_PREFIX):]
    return query


def new_token() -> str:
    """A fresh, unguessable session token."""
    return secrets.token_hex(12)


class SessionStore:
    """Checkpoint blobs by token: memory-first, optionally disk-spooled.

    With a spool directory every :meth:`put` lands on disk via
    write-to-temp + :func:`os.replace`, so a SIGKILLed worker never
    leaves a torn blob, and a *restarted* worker (fresh memory) still
    resumes every session from its last checkpoint.  Entries expire
    ``ttl`` seconds after their last write.

    ``sync`` (a :class:`~repro.store.sync.SyncPolicy` or its string
    spelling) decides whether each spool write is also ``fsync``'d:
    ``always`` (default) survives machine crashes, ``interval:N`` and
    ``none`` trade that for write latency — a *process* crash loses
    nothing either way, the rename is already atomic.
    """

    def __init__(self, ttl: float, spool_dir: str | None = None, *, sync=None):
        from repro.store.sync import SyncPolicy

        self.ttl = ttl
        self.spool_dir = spool_dir
        self.sync = SyncPolicy.coerce(sync)
        self._writes_since_sync = 0
        self._blobs: dict[str, str] = {}
        self._written: dict[str, float] = {}
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)

    def _path(self, token: str) -> str:
        # Tokens are hex (see new_token); reject anything path-like.
        if not token.replace("-", "").isalnum():
            raise CheckpointError(f"malformed session token {token!r}")
        return os.path.join(self.spool_dir, f"{token}.ckpt")

    def put(self, token: str, blob: dict, now: float | None = None) -> None:
        text = json.dumps(blob, separators=(",", ":"))
        self._blobs[token] = text
        self._written[token] = now if now is not None else time.monotonic()
        if self.spool_dir is not None:
            path = self._path(token)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                self._writes_since_sync += 1
                if self.sync.should_sync(self._writes_since_sync):
                    self.sync.sync_file(handle)
                    self._writes_since_sync = 0
            os.replace(tmp, path)

    def get(self, token: str) -> dict | None:
        text = self._blobs.get(token)
        if text is None and self.spool_dir is not None:
            try:
                with open(self._path(token), "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, CheckpointError):
                return None
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt session checkpoint: {exc}") from exc

    def delete(self, token: str) -> None:
        self._blobs.pop(token, None)
        self._written.pop(token, None)
        if self.spool_dir is not None:
            try:
                os.unlink(self._path(token))
            except (OSError, CheckpointError):
                pass

    def sweep(self, now: float | None = None) -> int:
        """Drop expired blobs; return how many were removed."""
        now = now if now is not None else time.monotonic()
        expired = [
            token for token, written in self._written.items()
            if now - written > self.ttl
        ]
        for token in expired:
            self.delete(token)
        return len(expired)

    def __len__(self) -> int:
        return len(self._blobs)
