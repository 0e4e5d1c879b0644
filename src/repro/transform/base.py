"""Shared plumbing of the transformation layer.

Both transform faces — substream extraction (:mod:`repro.transform.extract`)
and match/rewrite transformation (:mod:`repro.transform.rewrite`) — are
push-mode :class:`~repro.stream.events.EventHandler` consumers built on the
same skeleton:

* a :class:`~repro.multiq.engine.MultiQueryEngine` evaluates the standing
  queries (one per select, one per rule) over the *input* stream, with a
  :class:`_FragmentTracker` attached to each query so candidate lifetimes —
  created / retained / released / emitted — become observable;
* every input event is fed to the match engine **first**, then to the
  transform's own buffering/output logic, so verdicts queued by the engine
  during an event are processed after the transform has recorded the event;
* the verdict of a candidate is derived from its tracker story: *emitted*
  means the query confirmed the node (the subtree is a match), a refcount
  reaching zero without an emission means every pattern match involving the
  node collapsed (a definite non-match).

The tracker story gives every candidate exactly one verdict by end of
document, which is what lets the transforms bound their buffering: a
subtree is held only while its verdict is genuinely unknowable.

:func:`immediate_match` classifies queries whose verdict is known at the
candidate's *start* tag — creation already implies emission at its own end
tag — enabling the zero-buffering fast paths (streamed fragment
serialization, on-the-fly rename/wrap/drop).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.textfeed import TextFeed
from repro.core.twigm import CandidateTracker
from repro.errors import CheckpointError
from repro.multiq.engine import MultiQueryEngine
from repro.stream.events import (
    Characters,
    EndElement,
    Event,
    EventHandler,
    StartElement,
    events_to_handler,
)
from repro.stream.recovery import RecoveryPolicy, ResourceLimits

#: Version of every transform snapshot schema (extractor and rewriter).
TRANSFORM_SNAPSHOT_VERSION = 1


def immediate_match(unit) -> bool:
    """True when candidate creation already implies emission.

    For a TwigM unit whose machine emits eagerly (no predicates above the
    return node), whose return node carries no child-pattern requirements
    (``complete_mask == 0``), no value tests, and no compiled condition,
    a return-node stack entry is necessarily *satisfied* when it pops —
    so a candidate created at a start tag is guaranteed to be emitted at
    the matching end tag.  Attribute tests do not break this: they are
    checked at push time, before the candidate is created at all.

    Immediate queries let the transforms skip verdict buffering entirely:
    the match decision is available while the subtree is still arriving.
    """
    machine = unit.engine.machine
    if not getattr(machine, "eager_return", False):
        return False
    node = machine.return_node
    return (
        node.complete_mask == 0
        and not node.value_tests
        and node.compiled_condition is None
    )


class _FragmentTracker(CandidateTracker):
    """Reference-counted candidate lifetimes for one query.

    Mirrors the bookkeeping of
    :class:`repro.core.fragments.FragmentCapture`: a candidate is *dead*
    when its last reference is released without an emission ever having
    happened; releases that follow an emission are not death (the eager
    path emits and releases in the same breath).  Verdicts are forwarded
    to the owning transform as ``("emit" | "dead", name, node_id)``.

    The counters are plain JSON-serializable data, so tracker state rides
    transform snapshots and a restored tracker resumes mid-story.
    """

    __slots__ = ("name", "_owner", "counts", "emitted_live")

    def __init__(self, name: str, owner: "StreamTransform"):
        self.name = name
        self._owner = owner
        #: node_id → live reference count.
        self.counts: dict[int, int] = {}
        #: Emitted candidates whose references have not all drained yet;
        #: their remaining releases must not read as death.
        self.emitted_live: set[int] = set()

    def created(self, node_id: int) -> None:
        self.counts[node_id] = 1
        self._owner._note_created(self.name, node_id)

    def retained(self, node_id: int) -> None:
        self.counts[node_id] = self.counts.get(node_id, 0) + 1

    def released(self, node_ids) -> None:
        counts = self.counts
        for node_id in node_ids:
            remaining = counts.get(node_id, 0) - 1
            if remaining > 0:
                counts[node_id] = remaining
                continue
            counts.pop(node_id, None)
            if node_id in self.emitted_live:
                self.emitted_live.discard(node_id)
            else:
                self._owner._note_verdict("dead", self.name, node_id)

    def emitted(self, node_ids) -> None:
        for node_id in node_ids:
            if node_id in self.emitted_live:
                continue  # duplicate confirmation via a second root match
            self.emitted_live.add(node_id)
            self._owner._note_verdict("emit", self.name, node_id)

    # -- checkpointing ---------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "counts": {str(k): v for k, v in self.counts.items()},
            "emitted_live": sorted(self.emitted_live),
        }

    def restore_state(self, state: dict) -> None:
        self.counts = {int(k): int(v) for k, v in state["counts"].items()}
        self.emitted_live = set(int(v) for v in state["emitted_live"])


# -- event (de)serialization for snapshots --------------------------------


def pack_event(event: Event) -> list:
    """One event as a JSON-serializable list (``s``/``t``/``e`` tagged)."""
    cls = event.__class__
    if cls is StartElement:
        return ["s", event.tag, event.level, event.node_id,
                dict(event.attributes)]
    if cls is Characters:
        return ["t", event.text, event.level]
    return ["e", event.tag, event.level]


def unpack_event(payload: list) -> Event:
    """Inverse of :func:`pack_event`."""
    kind = payload[0]
    if kind == "s":
        return StartElement(payload[1], int(payload[2]), int(payload[3]),
                            dict(payload[4]))
    if kind == "t":
        return Characters(payload[1], int(payload[2]))
    if kind == "e":
        return EndElement(payload[1], int(payload[2]))
    raise CheckpointError(f"unknown packed event kind {kind!r}")


def pack_events(events: Iterable[Event]) -> list:
    return [pack_event(event) for event in events]


def unpack_events(payloads: Iterable[list]) -> list[Event]:
    return [unpack_event(payload) for payload in payloads]


class StreamTransform(TextFeed, EventHandler):
    """Common skeleton: match engine, trackers, verdict queue, feeding.

    Subclasses call :meth:`_feed_start` / :meth:`_feed_chars` /
    :meth:`_feed_end` from their handler methods; the helpers drive the
    match engine and return the candidate creations (start) or the drained
    verdict queue (end), in engine-callback order.
    """

    def __init__(
        self,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic=None,
        limits: ResourceLimits | None = None,
        metrics=None,
        emission: str = "default",
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics)
        #: Emission mode of the match machines ("default"/"earliest").
        #: Under ``earliest`` a candidate's *emit* verdict can arrive
        #: while its subtree is still streaming in — subclasses defer
        #: acting on a verdict until the candidate closes.
        self._emission = emission
        self._engine = MultiQueryEngine(metrics=metrics)
        self._eh = None
        self._trackers: dict[str, _FragmentTracker] = {}
        self._creations: list[str] = []
        self._verdicts: list[tuple[str, str, int]] = []
        self.events_in = 0

    # -- query registration ----------------------------------------------

    def _register(self, name: str, query, *, limits=None) -> bool:
        """Register a tracked query; return its immediate-match class."""
        tracker = _FragmentTracker(name, self)
        self._trackers[name] = tracker
        self._engine.add_query(
            name, query, on_match=_noop, limits=limits, tracker=tracker,
            emission=self._emission,
        )
        return immediate_match(self._engine.registration(name).unit)

    def _rebuild_engine(self, payload: dict) -> None:
        """Swap in a restored match engine (snapshot restore path).

        ``self._trackers`` must already hold restored trackers keyed by
        query name; the engine restore re-attaches them to the rebuilt
        units.
        """
        old = self._engine
        if self._metrics is not None:
            sync = getattr(old, "_sync_metrics", None)
            if sync is not None:
                self._metrics.remove_collector(sync)
        self._engine = MultiQueryEngine.restore(
            payload, metrics=self._metrics, trackers=self._trackers
        )
        self._eh = None

    # -- tracker callbacks ------------------------------------------------

    def _note_created(self, name: str, node_id: int) -> None:
        self._creations.append(name)

    def _note_verdict(self, kind: str, name: str, node_id: int) -> None:
        self._verdicts.append((kind, name, node_id))

    # -- engine feeding ----------------------------------------------------

    def _handler(self):
        if self._eh is None:
            self._eh = self._engine.as_handler()
        return self._eh

    def _feed_start(self, tag, level, node_id, attributes) -> list[str]:
        """Feed a start tag to the match engine; drain creations."""
        self.events_in += 1
        self._handler().start_element(tag, level, node_id, attributes)
        if not self._creations:
            return _EMPTY
        created = self._creations
        self._creations = []
        return created

    def _feed_chars(self, text, level) -> None:
        self.events_in += 1
        self._handler().characters(text, level)

    def _feed_end(self, tag, level) -> list[tuple[str, str, int]]:
        """Feed an end tag to the match engine; drain queued verdicts."""
        self.events_in += 1
        self._handler().end_element(tag, level)
        if not self._verdicts:
            return _EMPTY
        verdicts = self._verdicts
        self._verdicts = []
        return verdicts

    # -- input plumbing ----------------------------------------------------

    def feed_events(self, events: Iterable[Event]) -> None:
        """Process a batch of modified-SAX events (pull-side adapter)."""
        events_to_handler(events, self)

    def close(self):  # pragma: no cover - subclasses override
        self._close_text()
        return None

    # -- snapshot helpers --------------------------------------------------

    def _base_snapshot(self) -> dict:
        return {
            "engine": self._engine.snapshot(),
            "trackers": {
                name: tracker.snapshot_state()
                for name, tracker in self._trackers.items()
            },
            "tokenizer": self._tokenizer_snapshot(),
            "events_in": self.events_in,
        }

    def _restore_base(self, payload: dict, names: Iterable[str]) -> None:
        self._trackers = {}
        for name in names:
            tracker = _FragmentTracker(name, self)
            tracker.restore_state(payload["trackers"][name])
            self._trackers[name] = tracker
        self._rebuild_engine(payload["engine"])
        self._restore_tokenizer(payload.get("tokenizer"))
        self.events_in = int(payload.get("events_in", 0))

    def detach(self) -> None:
        """Unhook metrics collectors (long-lived registries)."""
        if self._metrics is not None:
            sync = getattr(self._engine, "_sync_metrics", None)
            if sync is not None:
                self._metrics.remove_collector(sync)
            own = getattr(self, "_sync_metrics", None)
            if own is not None:
                self._metrics.remove_collector(own)


def _noop(_node_id: int) -> None:
    """Sink callback for tracked queries: verdicts flow via the tracker."""


_EMPTY: list = []


def coerce_queries(queries) -> dict:
    """Normalize ``queries`` to an ordered name → query mapping.

    A single string/:class:`QueryTree` becomes ``{"select": query}``; a
    sequence labels each query by its source text (duplicates rejected);
    a mapping passes through.
    """
    from repro.xpath.querytree import QueryTree

    if isinstance(queries, (str, QueryTree)):
        return {"select": queries}
    if isinstance(queries, Mapping):
        return dict(queries)
    named: dict = {}
    for query in queries:
        name = query.source if isinstance(query, QueryTree) else str(query)
        if name in named:
            raise ValueError(f"duplicate query {name!r}")
        named[name] = query
    return named
