"""Store-backed session checkpoints for the serving layer.

:class:`StoreSessionStore` is a drop-in for
:class:`~repro.serve.session.SessionStore` (same ``put``/``get``/
``delete``/``sweep``/``len`` surface, selected by
``ServeConfig.store_dir``) that keeps every session checkpoint in one
append-only framed log instead of one spool file per session:

* each :meth:`put` appends a ``REC_SESSION`` frame (CRC-checked JSON:
  token, write time, blob); each :meth:`delete` appends a
  ``REC_SESSION_TOMB`` tombstone;
* recovery scans the log, truncates a torn tail at the first bad frame
  (the same paranoia as the event log), and rebuilds the latest blob
  per token — a SIGKILL mid-append costs at most the record being
  written, never earlier checkpoints;
* when dead weight (superseded blobs + tombstones) crosses
  ``compact_ratio`` of the log, the live set is rewritten to a fresh
  log and swapped in atomically.

The win over the per-file spool is operational: one file to ship or
snapshot, strictly sequential writes (no directory churn), CRC on every
record, and the same :class:`~repro.store.sync.SyncPolicy` spelling as
the ingest log.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import CheckpointError
from repro.serve.framing import DEFAULT_MAX_FRAME, Frame, FrameError, encode_frame
from repro.store.log import (
    REC_EVENT,
    REC_SESSION,
    REC_SESSION_TOMB,
    StoreError,
    _FrameWalk,
)
from repro.store.sync import SyncPolicy

__all__ = ["StoreSessionStore", "SESSIONS_LOG_NAME"]

SESSIONS_LOG_NAME = "sessions.log"

#: Rewrite the log once this fraction of its records is dead weight.
DEFAULT_COMPACT_RATIO = 0.5
#: Never compact below this many records (tiny logs aren't worth it).
MIN_COMPACT_RECORDS = 64


def _unexpected_event(payload: bytes) -> None:
    raise StoreError(f"unexpected record type {REC_EVENT} in session log")


class StoreSessionStore:
    """Session checkpoints in one durable, CRC-framed, compacting log."""

    def __init__(
        self,
        ttl: float,
        store_dir: str,
        *,
        sync=None,
        max_frame: int = DEFAULT_MAX_FRAME,
        compact_ratio: float = DEFAULT_COMPACT_RATIO,
        metrics=None,
    ):
        self.ttl = ttl
        self.store_dir = store_dir
        self.sync = SyncPolicy.coerce(sync)
        self.max_frame = max_frame
        self.compact_ratio = compact_ratio
        self._path = os.path.join(store_dir, SESSIONS_LOG_NAME)
        self._blobs: dict[str, str] = {}
        self._written: dict[str, float] = {}
        self._records = 0
        self._writes_since_sync = 0
        self._m_compactions = None
        if metrics is not None:
            self._m_compactions = metrics.counter(
                "repro_store_session_compactions_total",
                "Session-log rewrites that dropped dead records.",
            )
        os.makedirs(store_dir, exist_ok=True)
        self._recover()
        self._file = open(self._path, "ab")

    # -- recovery -------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the live set from the log, truncating any torn tail."""
        if not os.path.exists(self._path):
            with open(self._path, "ab"):
                pass
            return
        good = 0
        now = time.monotonic()
        walk = _FrameWalk(self._path, self.max_frame, _unexpected_event)
        try:
            for record, payload in walk:
                if record == REC_SESSION:
                    entry = Frame(record, payload).json()
                    token = str(entry["token"])
                    self._blobs[token] = entry["blob"]
                    # Recovered entries restart their TTL at recovery
                    # time: monotonic clocks don't survive the process.
                    self._written[token] = now
                elif record == REC_SESSION_TOMB:
                    token = str(Frame(record, payload).json()["token"])
                    self._blobs.pop(token, None)
                    self._written.pop(token, None)
                elif record is not None:
                    raise StoreError(
                        f"unexpected record type {record} in session log"
                    )
                else:
                    continue  # end of a read step
                self._records += 1
                good = walk.offset
        except (FrameError, KeyError, TypeError):
            pass  # truncate at the last trustworthy record below
        if good < os.path.getsize(self._path):
            with open(self._path, "r+b") as handle:
                handle.truncate(good)

    # -- SessionStore surface -------------------------------------------

    def _append(self, type_code: int, payload: dict) -> None:
        data = encode_frame(
            type_code, json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
        self._file.write(data)
        self._records += 1
        self._writes_since_sync += 1
        if self.sync.should_sync(self._writes_since_sync):
            self.sync.sync_file(self._file)
            self._writes_since_sync = 0
        else:
            self._file.flush()

    def put(self, token: str, blob: dict, now: float | None = None) -> None:
        text = json.dumps(blob, separators=(",", ":"))
        self._blobs[token] = text
        self._written[token] = now if now is not None else time.monotonic()
        self._append(REC_SESSION, {"token": token, "blob": text})
        self._maybe_compact()

    def get(self, token: str) -> dict | None:
        text = self._blobs.get(token)
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt session checkpoint: {exc}") from exc

    def delete(self, token: str) -> None:
        if token not in self._blobs:
            return
        self._blobs.pop(token, None)
        self._written.pop(token, None)
        self._append(REC_SESSION_TOMB, {"token": token})
        self._maybe_compact()

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

    def close(self) -> None:
        if self._file is not None:
            if self.sync.kind != "none":
                self.sync.sync_file(self._file)
            self._file.close()
            self._file = None

    # -- compaction -----------------------------------------------------

    def _maybe_compact(self) -> None:
        live = len(self._blobs)
        dead = self._records - live
        if self._records < MIN_COMPACT_RECORDS:
            return
        if dead / self._records < self.compact_ratio:
            return
        self.compact()

    def compact(self) -> int:
        """Rewrite the log with live records only; returns records dropped.

        The rewrite goes to a temp file that is fsync'd (per policy) and
        atomically swapped in, so a crash at any point leaves either the
        old log or the new one — never a mix.
        """
        dropped = self._records - len(self._blobs)
        tmp = f"{self._path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            for token, text in self._blobs.items():
                handle.write(encode_frame(
                    REC_SESSION,
                    json.dumps(
                        {"token": token, "blob": text}, separators=(",", ":")
                    ).encode("utf-8"),
                ))
            if self.sync.kind != "none":
                self.sync.sync_file(handle)
        self._file.close()
        os.replace(tmp, self._path)
        self.sync.sync_dir(self.store_dir)
        self._file = open(self._path, "ab")
        self._records = len(self._blobs)
        self._writes_since_sync = 0
        if self._m_compactions is not None:
            self._m_compactions.inc()
        return dropped
