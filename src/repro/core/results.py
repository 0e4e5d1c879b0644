"""Result sinks: incremental emission of query solutions.

The machines report solutions as soon as they are confirmed (when the
containing root match closes, for predicate queries; immediately, for
path-only queries).  A sink decides what to do with them:

* :class:`ResultSink` — the base protocol: ``emit``, ``emit_all``,
  ``end_epoch``.
* :class:`CollectingSink` — accumulates distinct ids in document
  arrival order; what the evaluation functions return.
* :class:`CallbackSink` — forwards each distinct id to a user callback,
  for true pipeline consumption (stock tickers, monitors, ...).
* :class:`CountingSink` — counts distinct solutions without storing them.

The machines say which of their emissions can repeat an id:

* ``emit(node_id)`` is a *new* solution.  PathM and the lazy DFA emit
  each qualifying element once, at its start tag; TwigM's eager return
  entry holds only its own id and uploads nothing; BranchM's child-only
  axes give each candidate exactly one root element, and a candidate
  lives in one slot at a time.  Sinks deliver it and record nothing.
* ``emit_all(ids)`` is a *released candidate set*: TwigM's root pops and
  earliest flushes, where ``//`` uploads copy one candidate into several
  entries, so a later release may repeat an id released earlier.  Sinks
  filter it through a seen-set.
* ``end_epoch()`` says the machine's root stack is empty.  Entries nest,
  so then no entry holds any candidate, and every later candidate is a
  later node with a larger pre-order id: no id released so far can be
  released again, and the seen-set is cleared.

So a sink remembers ids only for the open root match — the paper's
stack bound — instead of every id it ever delivered.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.checkpoint import IDS, NAT, Fields

#: A sink's capture: a collecting sink's ``results``, a callback sink's
#: ``seen`` ids and ``emitted`` count.  Every sink reads every sink's
#: capture: a stream may resume in the other delivery mode.
SINK_STATE = Fields(optional={"seen": (IDS, []), "results": (IDS, []), "emitted": (NAT, None)})


class ResultSink:
    """Protocol for receiving confirmed solution ids."""

    def emit(self, node_id: int) -> None:
        """Deliver a new solution (never emitted before)."""
        raise NotImplementedError

    def emit_all(self, node_ids: Iterable[int]) -> None:
        """Deliver a released candidate set; ids may repeat earlier ones
        from the same root epoch (the default forwards them all)."""
        for node_id in node_ids:
            self.emit(node_id)

    def end_epoch(self) -> None:
        """The machine's root stack emptied: no released id can recur."""

    def reset(self) -> None:
        """Forget emission state before a fresh document (default: none)."""

    # -- checkpointing (see XPathStream.snapshot) ----------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable capture of emission state (default: none)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture (default: nothing to load)."""

    def held_ids(self) -> Iterable[int]:
        """The ids the capture holds for the open root match (default:
        none; a collecting sink's holds every document's results)."""
        return ()


class _DistinctSink(ResultSink):
    """De-duplicates released candidate sets within one root epoch."""

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def emit_all(self, node_ids: Iterable[int]) -> None:
        seen = self._seen
        for node_id in node_ids:
            if node_id not in seen:
                seen.add(node_id)
                self.emit(node_id)

    def end_epoch(self) -> None:
        self._seen.clear()

    def reset(self) -> None:
        self._seen.clear()


class CollectingSink(_DistinctSink):
    """Collect distinct ids in first-confirmation order."""

    def __init__(self) -> None:
        super().__init__()
        self.results: list[int] = []

    def emit(self, node_id: int) -> None:
        self.results.append(node_id)

    @property
    def emitted(self) -> int:
        """Distinct solutions delivered so far."""
        return len(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def reset(self) -> None:
        super().reset()
        self.results.clear()

    def snapshot_state(self) -> dict:
        # The open epoch's seen-set is a subset of the collected ids, so
        # the ordered list alone restores a safe superset of it.
        return {"results": list(self.results)}

    def restore_state(self, state: dict) -> None:
        self.results = SINK_STATE(state, "sink state")["results"]
        self._seen = set(self.results)


class CallbackSink(_DistinctSink):
    """Forward each distinct id to ``callback`` as soon as it is confirmed."""

    def __init__(self, callback: Callable[[int], None]):
        super().__init__()
        self._callback = callback
        #: Distinct solutions delivered so far.
        self.emitted = 0

    def emit(self, node_id: int) -> None:
        self.emitted += 1
        self._callback(node_id)

    def reset(self) -> None:
        super().reset()
        self.emitted = 0

    def snapshot_state(self) -> dict:
        return {"seen": sorted(self._seen), "emitted": self.emitted}

    def restore_state(self, state: dict) -> None:
        # Restoring from a collecting snapshot works too: ids emitted
        # before the checkpoint must not fire the callback again.
        # ``emitted`` is absent from captures that predate it; their
        # ``seen`` held every id ever emitted.
        state = SINK_STATE(state, "sink state")
        self._seen = set(state["seen"] or state["results"])
        self.emitted = len(self._seen) if state["emitted"] is None else state["emitted"]

    def held_ids(self) -> Iterable[int]:
        return self._seen


class CountingSink(_DistinctSink):
    """Count distinct confirmed ids without storing them."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, node_id: int) -> None:
        self.count += 1

    def reset(self) -> None:
        super().reset()
        self.count = 0
