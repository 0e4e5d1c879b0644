"""Durability/throughput trade-off knob shared by every disk writer.

Both the serving layer's checkpoint spool
(:class:`~repro.serve.session.SessionStore`) and the ingest log
(:class:`~repro.store.log.EventLogWriter`) persist state the process
must survive losing — and both used to pay one ``fsync`` per write,
which caps ingest throughput at the disk's sync latency.
:class:`SyncPolicy` makes the trade-off explicit and shared:

* ``always`` — ``fsync`` after every durable write.  The default: a
  machine crash (not just a process crash) loses nothing past the last
  acknowledged write.
* ``interval`` — ``fsync`` every ``interval`` writes.  A machine crash
  can lose at most ``interval`` writes; a *process* crash still loses
  nothing (the OS holds the pages).  Deterministic (write-counted, not
  timer-based), so tests and replay behave identically everywhere.
* ``none`` — never ``fsync``; rely on the OS flushing eventually.
  Maximum throughput, for rebuildable or scratch stores.

``os.replace`` renames (atomic manifest/checkpoint swaps) are also
covered: :meth:`SyncPolicy.sync_dir` makes the rename itself durable on
POSIX by syncing the containing directory, under the same policy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["SyncPolicy", "SYNC_ALWAYS", "SYNC_INTERVAL", "SYNC_NONE"]

SYNC_ALWAYS = "always"
SYNC_INTERVAL = "interval"
SYNC_NONE = "none"

_KINDS = (SYNC_ALWAYS, SYNC_INTERVAL, SYNC_NONE)


@dataclass(frozen=True)
class SyncPolicy:
    """When to ``fsync`` durable writes: always, every N writes, or never."""

    kind: str = SYNC_ALWAYS
    #: Writes between syncs when ``kind == "interval"``.
    interval: int = 64

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            names = ", ".join(_KINDS)
            raise ValueError(
                f"unknown sync policy {self.kind!r} (expected one of: {names})"
            )
        if self.kind == SYNC_INTERVAL and self.interval < 1:
            raise ValueError(f"sync interval must be >= 1, got {self.interval}")

    @classmethod
    def coerce(cls, value: "str | SyncPolicy | None") -> "SyncPolicy":
        """Accept a policy instance, its kind string, or ``None`` (default).

        ``"interval"`` may carry a count: ``"interval:256"``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            kind, _sep, count = value.partition(":")
            if count:
                return cls(kind, int(count))
            return cls(kind)
        raise TypeError(f"cannot coerce {value!r} to a SyncPolicy")

    @property
    def every(self) -> int:
        """Writes per fsync: 1 (``always``), the interval, or 0 (``none``)."""
        if self.kind == SYNC_ALWAYS:
            return 1
        if self.kind == SYNC_INTERVAL:
            return self.interval
        return 0

    def should_sync(self, writes_since_sync: int) -> bool:
        """Whether a writer with this many unsynced writes must fsync now."""
        if self.kind == SYNC_ALWAYS:
            return True
        if self.kind == SYNC_NONE:
            return False
        return writes_since_sync >= self.interval

    def sync_file(self, fileobj) -> None:
        """``flush`` + ``fsync`` an open file object (unconditionally)."""
        fileobj.flush()
        os.fsync(fileobj.fileno())

    def sync_dir(self, path: str) -> None:
        """Make a completed rename in ``path`` durable (POSIX directory sync).

        A no-op under ``none``; best-effort on platforms where directories
        cannot be opened for reading.
        """
        if self.kind == SYNC_NONE:
            return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def to_str(self) -> str:
        """The CLI/config spelling this policy round-trips through."""
        if self.kind == SYNC_INTERVAL:
            return f"{self.kind}:{self.interval}"
        return self.kind
