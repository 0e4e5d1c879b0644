"""Durable ingest log: record streams, replay them, index them.

``repro.store`` turns the stream processor into a small streaming XML
database.  The XML text an engine is fed is appended to an on-disk log
of CRC-framed text records (:mod:`repro.store.log`), cut into segments
whose headers hold the tokenizer's state, each summarised by a
structural index (tag alphabet, text flag, level range) of ingest's own
events the moment it seals; replay re-tokenises the text.  Periodic
checkpoints embed the evaluating engine's versioned snapshot, so:

* **replay** (:func:`~repro.store.replay.replay`) re-evaluates recorded
  history — from document start or from any checkpoint — with results
  byte-identical to live evaluation, skipping every segment the
  router's alphabet or gate-label argument proves irrelevant
  (:mod:`repro.store.index`); extraction over the log
  (:func:`~repro.store.replay.replay_into`) skips by gate labels too;
* **late queries catch up** (:func:`~repro.store.replay.catch_up`):
  a query added to a live :class:`~repro.multiq.engine.MultiQueryEngine`
  backfills over the log and splices into the live stream at the exact
  event offset.

Durability is a policy, not a constant:
:class:`~repro.store.sync.SyncPolicy` (``always`` / ``interval:N`` /
``none``) is shared with the serving layer's spool.  See
``docs/STORE.md`` for the on-disk format.
"""

from repro.store.index import index_report, interest_for, segment_skippable
from repro.store.log import (
    CheckpointInfo,
    EventLogReader,
    EventLogWriter,
    ReplayStats,
    SegmentInfo,
    StoreError,
    compact,
)
from repro.store.replay import CatchUpResult, IngestResult, catch_up, ingest, replay
from repro.store.sync import SyncPolicy

__all__ = [
    "EventLogWriter",
    "EventLogReader",
    "SegmentInfo",
    "CheckpointInfo",
    "ReplayStats",
    "StoreError",
    "SyncPolicy",
    "compact",
    "ingest",
    "replay",
    "catch_up",
    "IngestResult",
    "CatchUpResult",
    "interest_for",
    "segment_skippable",
    "index_report",
]
