"""Push-mode adapters for the machine layer.

The engines (:class:`~repro.core.twigm.TwigM`,
:class:`~repro.core.pathm.PathM`, :class:`~repro.core.branchm.BranchM`)
implement the :class:`~repro.stream.events.EventHandler` protocol
natively — their transition methods *are* the callbacks — so
``engine.as_handler()`` usually returns the engine itself and the fused
pipeline (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`) drives
δs/δe with zero indirection.

The one thing the engines' pull driver (``feed``) does *around* the
transitions is per-event accounting against
:class:`~repro.stream.recovery.ResourceLimits` (``max_total_events``).
When an engine carries limits, :class:`LimitCountingHandler` restores
exactly that accounting in push mode, so limit enforcement is
bit-identical between the two pipelines.  Both live on
:class:`EventDriven`, which every engine extends.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.results import CollectingSink
from repro.stream.events import EndElement, Event, EventHandler, StartElement


class EventDriven:
    """The event-stream loops the engines share.

    An engine supplies the transitions (``start_element``,
    ``end_element``, ``characters``), ``sink``, ``_limits`` and
    ``_event_count``, and says whether character data can change its
    state (:attr:`reads_text`).
    """

    #: False when ``characters`` is a no-op: :meth:`feed` then skips
    #: character data.
    reads_text = False

    def as_handler(self):
        """Push-pipeline adapter.

        Without resource limits the engine itself is the handler — its
        transition methods *are* the callbacks, so
        :meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into` drives
        δs/δe with zero indirection.  With limits, a counting wrapper
        preserves :meth:`feed`'s per-event accounting.
        """
        if self._limits is None:
            return self
        return LimitCountingHandler(self)

    def feed(self, events: Iterable[Event]) -> None:
        """Process a batch of modified-SAX events (the pull loop)."""
        limits = self._limits
        reads_text = self.reads_text
        for event in events:
            if limits is not None:
                self._event_count += 1
                limits.check("max_total_events", self._event_count)
            if isinstance(event, StartElement):
                self.start_element(event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, EndElement):
                self.end_element(event.tag, event.level)
            elif reads_text:
                self.characters(event.text)

    def held_ids(self) -> Iterable[int]:
        """The node ids the machine buffers (none by default)."""
        return ()

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        raise AttributeError("results are only collected by the default sink")

    def run(self, events: Iterable[Event]) -> list[int]:
        """Evaluate over a complete event stream; return solution ids."""
        self.feed(events)
        if isinstance(self.sink, CollectingSink):
            return self.sink.results
        return []


class LimitCountingHandler(EventHandler):
    """Wrap an engine to count events against its resource limits.

    Mirrors the accounting in the engines' ``feed``: the event is counted
    (and ``max_total_events`` checked) *before* the transition runs, for
    every event kind — including ``Characters`` the engine then skips.
    """

    __slots__ = ("_engine", "_limits")

    def __init__(self, engine) -> None:
        self._engine = engine
        self._limits = engine._limits

    def _counted(self):
        engine = self._engine
        engine._event_count += 1
        self._limits.check("max_total_events", engine._event_count)
        return engine

    def start_element(self, tag, level, node_id, attributes) -> None:
        self._counted().start_element(tag, level, node_id, attributes)

    def characters(self, text, level) -> None:
        self._counted().characters(text, level)

    def end_element(self, tag, level) -> None:
        self._counted().end_element(tag, level)
