"""Shared multi-query dispatch: many standing queries, one routed parse.

The paper's motivating deployments (stock feeds, sensor networks) run
*many* standing XPath queries against one stream.  This package parses
the stream once and routes each event only to the machines that can
react to it, in four layers:

1. **Canonicalization + dedup** (:mod:`repro.multiq.canon`) —
   structurally identical queries share one machine with multiplexed
   result sinks, and queries that differ only in the constant of one
   value test, or in the label of one branch leaf, share one shape
   machine.
2. **Alphabet router** (:mod:`repro.multiq.router`) — an inverted index
   tag → interested machines built from static query analysis, narrowed
   per event to the machines whose gate label has an open element;
   per-event dispatch cost follows the machines that can react, not
   O(queries).
3. **Registry + lifecycle** (:mod:`repro.multiq.registry`) — add/remove
   queries on a live stream, per-query resource-limit admission.
4. **Front door** (:mod:`repro.multiq.engine`) —
   :class:`MultiQueryEngine`, with whole-dispatcher
   ``snapshot()``/``restore()`` and dispatch statistics; plus the
   ``python -m repro multiq`` CLI (:mod:`repro.multiq.cli`).

Results are byte-identical to evaluating each query with its own
:class:`~repro.core.processor.XPathStream`.
"""

from repro.multiq.canon import canonical_text, canonicalize, dedup_key
from repro.multiq.engine import (
    MULTIQ_SNAPSHOT_VERSION,
    DispatchStats,
    MultiQueryEngine,
)
from repro.multiq.registry import EvalUnit, MultiplexSink, QueryRegistry, Registration
from repro.multiq.router import AlphabetRouter, machine_alphabet

__all__ = [
    "AlphabetRouter",
    "DispatchStats",
    "EvalUnit",
    "MULTIQ_SNAPSHOT_VERSION",
    "MultiQueryEngine",
    "MultiplexSink",
    "QueryRegistry",
    "Registration",
    "canonical_text",
    "canonicalize",
    "dedup_key",
    "machine_alphabet",
]
