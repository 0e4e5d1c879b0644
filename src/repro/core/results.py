"""Result sinks: incremental emission of query solutions.

The machines report solutions as soon as they are confirmed (when the
containing root match closes, for predicate queries; immediately, for
path-only queries).  A sink decides what to do with them:

* :class:`ResultSink` — the base protocol: ``emit(node_id)``.
* :class:`CollectingSink` — accumulates de-duplicated ids in document
  arrival order; what the evaluation functions return.
* :class:`CallbackSink` — forwards each *new* id to a user callback, for
  true pipeline consumption (stock tickers, monitors, ...).
* :class:`CountingSink` — counts distinct solutions without storing them;
  used by the benchmark harness to keep sink memory out of engine
  measurements.

De-duplication matters because a candidate can be confirmed through
several pattern matches (the paper eliminates duplicates by set union
inside the stacks; across *separate root matches* the sink is the natural
place to finish the job).
"""

from __future__ import annotations

from typing import Callable, Iterable


class ResultSink:
    """Protocol for receiving confirmed solution ids."""

    def emit(self, node_id: int) -> None:
        raise NotImplementedError

    def emit_all(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.emit(node_id)

    def reset(self) -> None:
        """Forget emission state before a fresh document (default: none)."""

    # -- checkpointing (see XPathStream.snapshot) ----------------------

    def snapshot_state(self) -> dict:
        """JSON-serializable capture of emission state (default: none)."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` capture (default: nothing to load)."""


class CollectingSink(ResultSink):
    """Collect distinct ids in first-confirmation order."""

    def __init__(self) -> None:
        self._seen: set[int] = set()
        self.results: list[int] = []

    def emit(self, node_id: int) -> None:
        if node_id not in self._seen:
            self._seen.add(node_id)
            self.results.append(node_id)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def reset(self) -> None:
        self.results.clear()
        self._seen.clear()

    def snapshot_state(self) -> dict:
        # The seen-set is exactly the set of collected ids, so the
        # ordered list alone reconstructs both.
        return {"results": list(self.results)}

    def restore_state(self, state: dict) -> None:
        self.results = list(state.get("results", ()))
        self._seen = set(self.results)


class CallbackSink(ResultSink):
    """Forward each distinct id to ``callback`` as soon as it is confirmed."""

    def __init__(self, callback: Callable[[int], None]):
        self._seen: set[int] = set()
        self._callback = callback

    def emit(self, node_id: int) -> None:
        if node_id not in self._seen:
            self._seen.add(node_id)
            self._callback(node_id)

    def reset(self) -> None:
        self._seen.clear()

    def snapshot_state(self) -> dict:
        return {"seen": sorted(self._seen)}

    def restore_state(self, state: dict) -> None:
        # Restoring from a collecting snapshot works too: ids emitted
        # before the checkpoint must not fire the callback again.
        self._seen = set(state.get("seen", state.get("results", ())))


class DiscardingSink(ResultSink):
    """Count emissions and drop them — zero per-result memory.

    Used by the memory-scalability experiment (figure 10) to measure the
    *engine's* footprint in isolation: a real deployment streams results
    out (socket, pipe), so result storage is the consumer's concern, not
    the evaluator's.  Emission counts include duplicates confirmed via
    separate root matches.
    """

    def __init__(self) -> None:
        self.emissions = 0

    def emit(self, node_id: int) -> None:
        self.emissions += 1


class CountingSink(ResultSink):
    """Count distinct confirmed ids.

    Distinctness still requires remembering ids, but a plain set halves
    the overhead of :class:`CollectingSink`'s list+set pair in long
    benchmark runs where only the count is checked.
    """

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def emit(self, node_id: int) -> None:
        self._seen.add(node_id)

    @property
    def count(self) -> int:
        return len(self._seen)
