"""The public front door: :class:`XPathStream` and :func:`evaluate`.

``XPathStream`` parses a query, classifies its fragment, and instantiates
the cheapest machine that handles it:

* XP{/,//,*} (no predicates)      → :class:`~repro.compile.dfa.DfaPathM`
* XP{/,[]}   (no '//' and no '*') → :class:`~repro.core.branchm.BranchM`
* XP{/,//,*,[]} (everything)      → :class:`~repro.core.twigm.TwigM`

Predicate-free queries run on the lazy DFA, which evaluates the paper's
PathM (section 3.1) with one transition lookup per start tag.  PathM
itself runs only when named (``engine="pathm"``), or when a capture that
names it, or a fallen DFA capture, is restored.

The evaluator is fed from any event source accepted by
:func:`repro.stream.tokenizer.events_from` — an XML string, a file path,
an open file, chunk iterables, or pre-built event streams — so the same
object serves one-shot evaluation and long-running pipelines.

For always-on deployments the stream carries the resilience options of
:mod:`repro.stream.recovery` (a recovery ``policy``, an
``on_diagnostic`` callback, and ``limits``) and supports
**checkpoint/resume**: :meth:`XPathStream.snapshot` captures the machine
stacks, result buffers, and mid-parse tokenizer state as a versioned,
JSON-serializable dict, and :meth:`XPathStream.restore` resumes
bit-exactly — a stream suspended at any event boundary produces the same
matches in the same order as an uninterrupted run.

Example::

    from repro import XPathStream

    stream = XPathStream("//book[price < 30]//title")
    ids = stream.evaluate("catalog.xml")

    # or push-style, emitting matches as they are confirmed:
    stream = XPathStream("//alert[severity = 'high']//source",
                         on_match=print)
    for chunk in network_chunks:
        stream.feed_text(chunk)
        persist(stream.snapshot())   # crash-safe: resume from the capture
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable

from repro.checkpoint import (
    BOOL, NAT, OBJECT, STR, Fields, Nullable, enum, read_envelope, restoring)
from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM, fallen_pathm_states
from repro.core.branchm import BranchM
from repro.core.machine import engine_figures
from repro.core.pathm import PathM
from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.core.textfeed import TextFeed
from repro.core.twigm import TwigM
from repro.stream.events import Event
from repro.stream.recovery import POLICY, RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.xpath.querytree import QueryTree, compile_query

#: The engine classes by fragment, in dispatch order.
_FRAGMENT_ENGINES = {
    "XP{/,//,*}": DfaPathM,
    "XP{/,[]}": BranchM,
    "XP{/,//,*,[]}": TwigM,
}

_ENGINES_BY_NAME = {"pathm": PathM, "dfa": DfaPathM, "branchm": BranchM,
                    "twigm": TwigM}

#: A captured emission mode.
EMISSION = enum("default", "earliest")

#: Version of the snapshot schema :meth:`XPathStream.snapshot` writes.
SNAPSHOT_VERSION = 1
#: Its fields: ``compiled`` is written by older releases and ignored;
#: ``retired`` (the finished documents' events and emissions) is written
#: once there are any, ``state_cap`` by a lazy-DFA stream.
_SNAPSHOT = Fields({
    "query": STR, "engine": enum(*_ENGINES_BY_NAME), "policy": POLICY,
    "limits": Nullable(OBJECT), "tokenizer": Nullable(OBJECT),
    "machine": OBJECT, "sink": OBJECT,
}, {
    "compiled": (BOOL, False), "emission": (EMISSION, "default"),
    "state_cap": (NAT, DEFAULT_STATE_CAP),
    "retired": (Fields({"events": NAT, "emitted": NAT}), {"events": 0, "emitted": 0}),
})


def select_engine_class(query: QueryTree):
    """The cheapest machine class for ``query``'s fragment.

    Queries using the boolean-connective extension (or/not) always run
    on TwigM, whose entries carry the general condition state.
    """
    if query.has_boolean_connectives():
        return TwigM
    return _FRAGMENT_ENGINES[query.fragment()]


def build_engine(query: QueryTree, sink: ResultSink, *,
                 engine: str | None = None,
                 limits: ResourceLimits | None = None,
                 emission: str = "default", lag_probe=None,
                 state_cap: int | None = None, tracker=None):
    """Construct the machine that evaluates ``query`` under these options.

    An explicitly named ``engine`` is always honoured; otherwise the
    cheapest machine for the fragment is chosen
    (:func:`select_engine_class`).

    Each option reaches only the engines that take it: ``emission`` and
    ``lag_probe`` the buffering machines (TwigM/BranchM; path engines
    already emit at the earliest point), ``state_cap`` the lazy DFA.
    """
    if engine is None:
        engine_class = select_engine_class(query)
    else:
        try:
            engine_class = _ENGINES_BY_NAME[engine]
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}") from None
    name = engine_class.machine_name
    options = {} if tracker is None else {"tracker": tracker}
    if name in ("twigm", "branchm"):
        if emission != "default":
            options["emission"] = emission
        if lag_probe is not None:
            options["lag_probe"] = lag_probe
            # Emissions flow through the probe so it can pair each
            # result's provable point with its emission point.
            sink = lag_probe.wrap_sink(sink)
    if name == "dfa" and state_cap is not None:
        options["state_cap"] = state_cap
    return engine_class(query, sink=sink, limits=limits, **options)


class XPathStream(TextFeed):
    """A streaming XPath processor bound to one query.

    Parameters
    ----------
    query:
        An XPath string or a compiled :class:`QueryTree` in
        XP{/,//,*,[]} (+ attributes and value tests).
    on_match:
        Optional callback invoked with each confirmed solution id as soon
        as it is known.  Without it, ids are collected and returned.
    engine:
        Force a specific machine: ``"dfa"``, ``"pathm"``, ``"branchm"``,
        ``"twigm"``, or ``None`` (automatic; the default).
    policy:
        Malformed-input handling for text feeds: ``"strict"`` (default),
        ``"skip"``, or ``"repair"`` — see
        :class:`~repro.stream.recovery.RecoveryPolicy`.
    on_diagnostic:
        Callback receiving each
        :class:`~repro.stream.recovery.StreamDiagnostic` a lenient policy
        produces.
    limits:
        Optional :class:`~repro.stream.recovery.ResourceLimits`, enforced
        by both the tokenizer and the machine.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the tokenizers publish ``repro_tokenizer_*`` and the stream
        registers one collector (:mod:`repro.obs.machines`) that reads
        the counters the machine keeps anyway when the registry is
        scraped: the ``repro_machine_*`` families, and
        ``repro_compile_*`` for the lazy DFA.  The same machine runs
        either way.
    compiled:
        Ignored.  Predicate-free queries always run on the lazy DFA; the
        keyword is accepted for callers written when it selected it.
    state_cap:
        Optional override for the lazy DFA's materialised-state ceiling
        (default :data:`repro.compile.DEFAULT_STATE_CAP`); at it the
        engine clears its cache and goes on.  Snapshots record it.
    emission:
        ``"default"`` (the paper's buffering) or ``"earliest"`` — flush
        each result at the first event where it is provable (same result
        set, earlier and possibly reordered emissions; see
        docs/LATENCY.md).  Predicate-free queries on PathM/DFA engines
        already emit at the earliest point, so the mode is a no-op for
        them.
    """

    def __init__(
        self,
        query: "str | QueryTree",
        on_match: Callable[[int], None] | None = None,
        engine: str | None = None,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        metrics=None,
        compiled: bool = False,
        state_cap: int | None = None,
        emission: str = "default",
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics)
        if isinstance(query, str):
            query = compile_query(query)
        self.query = query
        if emission not in ("default", "earliest"):
            raise ValueError(
                f"emission must be 'default' or 'earliest', got {emission!r}"
            )
        self._emission = emission
        if on_match is None:
            sink: ResultSink = CollectingSink()
        else:
            sink = CallbackSink(on_match)
        self.engine = build_engine(
            query, sink, engine=engine, limits=limits, emission=emission,
            state_cap=state_cap,
        )
        self._sink = sink
        self._push_handler = None
        # Events and emissions of documents already finished (or reset):
        # the tokenizer and the sink count only the current one.
        self._retired = {"events": 0, "emitted": 0}
        if metrics is not None:
            from repro.obs.machines import MachineMetrics

            self._machine_metrics = MachineMetrics(metrics)
            metrics.add_collector(self._sync_metrics)

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this query: pathm, branchm, twigm or dfa."""
        return self.engine.machine_name

    def _sync_metrics(self) -> None:
        """Publish the machine's figures (the registry's collector)."""
        tokenizer = self._tokenizer
        events = self._retired["events"]
        if tokenizer is not None:
            events += tokenizer.event_count
        figures = engine_figures(self.engine)
        figures["events"] = events
        figures["emitted"] = self._retired["emitted"] + self._sink.emitted
        self._machine_metrics.publish({self.engine_name: figures})

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (collecting mode only)."""
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        raise AttributeError("results are not collected when on_match is set")

    @property
    def diagnostics(self) -> list[StreamDiagnostic]:
        """Recovery diagnostics from the incremental text feed (if any)."""
        if self._tokenizer is None:
            return []
        return self._tokenizer.diagnostics

    # -- push-style ---------------------------------------------------------

    def push_handler(self):
        """The engine as an :class:`~repro.stream.events.EventHandler`.

        Feed it from :meth:`XmlTokenizer.feed_into`, or call the
        callbacks from any parser.  Cached: repeated calls return the
        same handler.
        """
        if self._push_handler is None:
            self._push_handler = self.engine.as_handler()
        return self._push_handler

    _text_handler = push_handler

    def feed_events(self, events: Iterable[Event]) -> None:
        """Push pre-parsed modified-SAX events through the engine."""
        if self._metrics is not None:
            events = self._counted(events)
        self.engine.feed(events)

    def _counted(self, events: Iterable[Event]) -> Iterable[Event]:
        """``events``, counted as delivered (no tokenizer counts them)."""
        retired = self._retired
        for event in events:
            retired["events"] += 1
            yield event

    def _drop_tokenizer(self) -> None:
        if self._tokenizer is not None:
            self._retired["events"] += self._tokenizer.event_count
        self._tokenizer = None

    def close(self) -> list[int]:
        """Finish an incremental text feed; return collected ids (if any).

        Under a lenient policy the tokenizer may synthesize end events for
        a truncated document here; they are fed through the engine so a
        match pending only on missing end tags is still confirmed.
        """
        self._close_text()
        if isinstance(self._sink, CollectingSink):
            return self._sink.results
        return []

    def reset(self) -> None:
        """Prepare for a fresh document (keeps the compiled machine)."""
        self.engine.reset()
        self._drop_tokenizer()
        self._retired["emitted"] += self._sink.emitted
        self._sink.reset()

    # -- checkpoint / resume ------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full evaluation state as a versioned, serializable dict.

        The capture spans the machine stacks, the candidate/result
        buffers, the sink's de-duplication ids for the open root match and
        its emitted count, and — mid-document — the incremental
        tokenizer (pending buffer, open-element stack, cursor, pre-order
        counter), so ``restore`` resumes bit-exactly.  Everything in it is
        JSON-serializable; persist it however suits the deployment.
        Once a document has finished, ``"retired"`` carries the events
        and emissions of the finished ones (metrics totals).  A lazy-DFA
        stream records its ``"state_cap"``.
        """
        snapshot = {
            "version": SNAPSHOT_VERSION,
            "query": self.query.source,
            "engine": self.engine_name,
            "emission": self._emission,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "tokenizer": self._tokenizer_snapshot(),
            "machine": self.engine.snapshot_state(),
            "sink": self._sink.snapshot_state(),
        }
        if isinstance(self.engine, DfaPathM):
            snapshot["state_cap"] = self.engine.state_cap
        if any(self._retired.values()):
            snapshot["retired"] = dict(self._retired)
        return snapshot

    def _held_ids(self) -> Iterable[int]:
        return chain(self.engine.held_ids(), self._sink.held_ids())

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_match: Callable[[int], None] | None = None,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        metrics=None,
    ) -> "XPathStream":
        """Rebuild a stream from a :meth:`snapshot` capture.

        Callbacks are not serializable, so ``on_match``/``on_diagnostic``
        are supplied anew; ids emitted before the checkpoint will not
        fire ``on_match`` again.  Passing ``metrics`` resumes with
        instrumentation: cumulative counters carried in the snapshot are
        re-published, so the registry of a resumed stream reports the
        same totals as an uninterrupted run.  A fallen lazy-DFA capture
        resumes on PathM (:func:`~repro.compile.dfa.fallen_pathm_states`).
        """
        snapshot = read_envelope(snapshot, "snapshot", SNAPSHOT_VERSION, _SNAPSHOT)
        with restoring("snapshot"):
            engine, machine = snapshot["engine"], snapshot["machine"]
            if fallen := fallen_pathm_states(machine, 1):
                engine, (machine,) = "pathm", fallen
            stream = cls(
                snapshot["query"],
                on_match=on_match,
                engine=engine,
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot["limits"]),
                metrics=metrics,
                emission=snapshot["emission"],
                state_cap=snapshot["state_cap"],
            )
            stream.engine.restore_state(machine)
            stream._sink.restore_state(snapshot["sink"])
            if not stream.engine.epoch_open:
                # Older captures keep every id ever emitted in ``seen``.
                stream._sink.end_epoch()
            stream._restore_tokenizer(snapshot["tokenizer"])
            stream._retired = snapshot["retired"]
        return stream


def evaluate(query: "str | QueryTree", source) -> list[int]:
    """One-shot convenience: evaluate ``query`` over ``source``.

    Returns the distinct solution node ids (pre-order positions) in
    confirmation order.
    """
    return XPathStream(query).evaluate(source)
