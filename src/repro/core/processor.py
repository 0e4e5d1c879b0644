"""The public front door: :class:`XPathStream` and :func:`evaluate`.

``XPathStream`` parses a query, classifies its fragment, and instantiates
the cheapest machine that handles it, as the paper's system does:

* XP{/,//,*} (no predicates)      → :class:`~repro.core.pathm.PathM`
* XP{/,[]}   (no '//' and no '*') → :class:`~repro.core.branchm.BranchM`
* XP{/,//,*,[]} (everything)      → :class:`~repro.core.twigm.TwigM`

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

from typing import Callable, Iterable

from repro.core.branchm import BranchM
from repro.core.pathm import PathM
from repro.core.results import CallbackSink, CollectingSink, ResultSink
from repro.core.textfeed import TextFeed
from repro.core.twigm import TwigM
from repro.errors import CheckpointError
from repro.stream.events import Event
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.xpath.querytree import QueryTree, compile_query

#: The engine classes by fragment, in dispatch order.
_FRAGMENT_ENGINES = {
    "XP{/,//,*}": PathM,
    "XP{/,[]}": BranchM,
    "XP{/,//,*,[]}": TwigM,
}

_ENGINES_BY_NAME = {"pathm": PathM, "branchm": BranchM, "twigm": TwigM}

#: Version of the snapshot schema :meth:`XPathStream.snapshot` writes.
SNAPSHOT_VERSION = 1


def _engine_class_by_name(name: str):
    """Resolve an engine name, including the lazily-imported ``dfa``."""
    if name == "dfa":
        from repro.compile.dfa import DfaPathM

        return DfaPathM
    try:
        return _ENGINES_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}") from None


def select_engine_class(query: QueryTree):
    """The cheapest machine class for ``query``'s fragment.

    Queries using the boolean-connective extension (or/not) always run
    on TwigM, whose entries carry the general condition state.
    """
    if query.has_boolean_connectives():
        return TwigM
    return _FRAGMENT_ENGINES[query.fragment()]


def build_engine(query: QueryTree, sink: ResultSink, *,
                 engine: str | None = None, compiled: bool = False,
                 limits: ResourceLimits | None = None, metrics=None,
                 emission: str = "default", lag_probe=None,
                 state_cap: int | None = None, tracker=None):
    """Construct the machine that evaluates ``query`` under these options.

    An explicitly named ``engine`` is always honoured.  Otherwise the
    cheapest machine for the fragment is chosen, and under ``compiled``
    an automatically selected PathM upgrades to the lazy-DFA front-end
    (:class:`~repro.compile.dfa.DfaPathM`, whose state cap guarantees
    PathM behaviour in the worst case).

    Each option reaches only the engines that take it: ``emission`` and
    ``lag_probe`` the buffering machines (TwigM/BranchM; path engines
    already emit at the earliest point), ``state_cap`` the lazy DFA.
    With ``metrics`` the lazy DFA publishes ``repro_compile_*`` itself
    and the interpreted machines run as their observed subclass
    (:func:`repro.obs.machines.observed_class`).
    """
    if engine is not None:
        engine_class = _engine_class_by_name(engine)
    else:
        engine_class = select_engine_class(query)
        if compiled and engine_class is PathM:
            engine_class = _engine_class_by_name("dfa")
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
    if metrics is not None:
        if name != "dfa":
            # Lazy import: the obs layer sits above core and is only
            # loaded when instrumentation is requested.
            from repro.obs.machines import observed_class

            engine_class = observed_class(engine_class)
        options["metrics"] = metrics
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
        Force a specific machine: ``"pathm"``, ``"branchm"``, ``"twigm"``,
        or ``None`` (automatic; the default).
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
        PathM/BranchM/TwigM run as their *observed* subclass
        (:func:`repro.obs.machines.observed_class`) and the tokenizers
        publish metrics, so the ``repro_machine_*`` and
        ``repro_tokenizer_*`` families populate; the lazy-DFA engine
        publishes ``repro_compile_*`` instead.  When ``None`` (the
        default) the plain classes run — the hot loops contain no
        metrics code at all.
    compiled:
        Upgrade an automatically selected PathM (a predicate-free query)
        to the lazy-DFA front-end of :mod:`repro.compile`
        (``engine_name`` ``"dfa"``), whose text feeds run the turbo
        scanner.  Every other engine — including an explicit
        ``engine="pathm"`` — is built exactly as with ``compiled=False``.
        Matches, order, errors, limits and snapshots are identical to
        the interpreted engines.
    state_cap:
        Optional override for the lazy DFA's materialised-state ceiling
        (default :data:`repro.compile.DEFAULT_STATE_CAP`); past it the
        engine falls back to interpreted PathM mid-stream.
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
        self._compiled = bool(compiled) or engine == "dfa"
        self._state_cap = state_cap
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
            query, sink, engine=engine, compiled=self._compiled,
            limits=limits, metrics=metrics, emission=emission,
            state_cap=state_cap,
        )
        self._sink = sink
        self._push_handler = None

    @property
    def engine_name(self) -> str:
        """Which machine evaluates this query: pathm, branchm or twigm.

        Instrumented subclasses report their base engine's name, so
        snapshots restore onto either variant.
        """
        return getattr(type(self.engine), "machine_name",
                       type(self.engine).__name__.lower())

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
        self.engine.feed(events)

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
        self._tokenizer = None
        self._sink.reset()

    # -- checkpoint / resume ------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full evaluation state as a versioned, serializable dict.

        The capture spans the machine stacks, the candidate/result
        buffers, the emitted-id set, and — mid-document — the incremental
        tokenizer (pending buffer, open-element stack, cursor, pre-order
        counter), so ``restore`` resumes bit-exactly.  Everything in it is
        JSON-serializable; persist it however suits the deployment.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "query": self.query.source,
            "engine": self.engine_name,
            "compiled": self._compiled,
            "emission": self._emission,
            "policy": self._policy.value,
            "limits": self._limits.to_dict() if self._limits is not None else None,
            "tokenizer": self._tokenizer_snapshot(),
            "machine": self.engine.snapshot_state(),
            "sink": self._sink.snapshot_state(),
        }

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
        are supplied anew; ids emitted before the checkpoint are
        remembered and will not fire ``on_match`` again.  Passing
        ``metrics`` resumes with instrumentation: cumulative counters
        carried in the snapshot are re-published, so the registry of a
        resumed stream reports the same totals as an uninterrupted run.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
            )
        try:
            stream = cls(
                snapshot["query"],
                on_match=on_match,
                engine=snapshot["engine"],
                policy=snapshot["policy"],
                on_diagnostic=on_diagnostic,
                limits=ResourceLimits.from_dict(snapshot.get("limits")),
                metrics=metrics,
                compiled=bool(snapshot.get("compiled")),
                emission=snapshot.get("emission", "default"),
            )
            stream.engine.restore_state(snapshot["machine"])
            stream._sink.restore_state(snapshot["sink"])
            stream._restore_tokenizer(snapshot.get("tokenizer"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed snapshot: {exc}") from exc
        return stream


def evaluate(query: "str | QueryTree", source) -> list[int]:
    """One-shot convenience: evaluate ``query`` over ``source``.

    Returns the distinct solution node ids (pre-order positions) in
    confirmation order.
    """
    return XPathStream(query).evaluate(source)


#: Former name of :func:`evaluate`, kept for callers that still use it.
evaluate_push = evaluate
