"""An incremental, non-validating XML tokenizer over Expat and a Python scanner.

The paper's implementation parses with Expat (section 2.1), and so does
this tokenizer under every recovery policy: :meth:`XmlTokenizer.feed_into`
drives the stdlib ``xml.parsers.expat`` binding, whose callbacks compute
``level`` and pre-order ``node_id``, intern tags, coalesce text and check
:class:`~repro.stream.recovery.ResourceLimits` themselves.  The pure-Python
scanner (:meth:`XmlTokenizer._scan_into`) reads what Expat cannot: a
document Expat would report differently (a leading byte-order mark, any
DOCTYPE, a non-ASCII name the scanner rejects) goes to it before any
event is delivered, and on any Expat error the chunk is re-scanned by it
from the chunk-start state, dropping the events already delivered, so
errors, diagnostics and recovery are always the scanner's.  A fresh
parser, primed with the open elements, takes over again at the next
chunk once the scanner has read past the damage.  Under ``strict`` the
scanner rejects what Expat rejects in character references (``&#0;``,
surrogates: any code point outside XML's ``Char``), attribute lists (a
literal ``<`` in a value, no whitespace between attributes), character
data (``]]>``, control characters), processing instructions (a target
that is not a name, an XML declaration anywhere but at the very start)
and comments (one ending ``--->``).  Both deliver identical events and
take identical snapshots.

The tokenizer is *streaming*: it accepts arbitrary chunks of text and
reports every event that is complete so far, buffering only the
unfinished tail.  :meth:`XmlTokenizer.feed_into` drives an
:class:`~repro.stream.events.EventHandler`'s callbacks directly;
:meth:`XmlTokenizer.feed` is a pull view over the same parse, collecting
the callbacks as event objects and yielding them in batches.  It
understands the XML constructs a non-validating processor must recognise
— element tags with attributes, self-closing tags, character data with
the five predefined entities and numeric character references, CDATA
sections, comments, processing instructions, the XML declaration, and a
DOCTYPE declaration (skipped, including an internal subset).

Three robustness facilities sit on top of the basic scan:

* **Recovery policies** (:class:`~repro.stream.recovery.RecoveryPolicy`):
  under ``strict`` (the default) ill-formed input raises
  :class:`~repro.errors.XmlSyntaxError` with a line/column position;
  under ``skip`` malformed regions are dropped and scanning resumes at
  the next tag boundary; under ``repair`` the tokenizer additionally
  synthesizes missing end tags so the emitted event stream is always
  well-nested.  Every recovery action is surfaced as a
  :class:`~repro.stream.recovery.StreamDiagnostic` through the
  ``on_diagnostic`` callback and the bounded :attr:`diagnostics` list.

* **Resource limits** (:class:`~repro.stream.recovery.ResourceLimits`):
  depth, attribute-count, text-length, pending-input, and event-count
  bounds enforced during the scan, so hostile documents fail after
  O(limit) work and memory, never O(input).

* **Checkpointing**: :meth:`snapshot` captures the complete mutable
  state (pending buffer, open-element stack, cursor, counters) as a
  JSON-serializable dict; :meth:`XmlTokenizer.restore` resumes a parse
  bit-exactly, even from a position in the middle of a tag.

Events carry ``level`` (depth, document element = 1) and ``node_id``
(pre-order position, starting at 1) exactly as section 2 of the paper
prescribes.
"""

from __future__ import annotations

import copy
import itertools
import os
import pathlib
import re
from sys import intern as _intern
from typing import IO, Callable, Iterable, Iterator, NoReturn
from xml.parsers import expat

from repro.checkpoint import BOOL, LABELS, NAT, STR, Fields, read_envelope
from repro.errors import ReproError, XmlSyntaxError
from repro.stream.events import Event, EventCollector
from repro.stream.recovery import (
    ACTION_REPAIRED,
    ACTION_SKIPPED,
    POLICY,
    RecoveryPolicy,
    ResourceLimits,
    StreamDiagnostic,
)

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_WHITESPACE = set(" \t\r\n")

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "apos": "'",
    "quot": '"',
}

#: Diagnostics retained on the tokenizer itself are capped so that a
#: thoroughly corrupt multi-gigabyte feed cannot grow the list without
#: bound; :attr:`XmlTokenizer.diagnostic_count` keeps the true total and
#: the ``on_diagnostic`` callback sees every one.
MAX_RETAINED_DIAGNOSTICS = 1000

#: Snapshot schema version produced by :meth:`XmlTokenizer.snapshot`.
TOKENIZER_SNAPSHOT_VERSION = 1
#: Its fields, most of them bound to the attributes they mirror (the
#: ``buffer`` written is the unread rest of ``_buffer``): ``bytes_fed``
#: is absent from pre-observability captures; ``dropping_run`` is
#: written only while it is set.
_SNAPSHOT = Fields({
    "buffer": STR, "text_parts": LABELS, "text_len": NAT, "stack": LABELS,
    "next_id": NAT, "seen_root": BOOL, "closed": BOOL, "line": NAT, "column": NAT,
    "skip_whitespace": BOOL, "policy": POLICY, "ignore_depth": NAT,
    "event_count": NAT, "diagnostic_count": NAT,
}, {"bytes_fed": (NAT, 0), "dropping_run": (BOOL, False)}, (
    "_buffer", "_text_parts", "_text_len", "_stack", "_next_id", "_seen_root", "_closed",
    "_skip_whitespace", "_ignore_depth", "_event_count", "diagnostic_count", "bytes_fed"),
    writes=("buffer", "line", "column", "policy"))

#: Characters no XML text may hold literally (Expat rejects each): C0
#: controls other than tab, LF and CR, and U+FFFE/U+FFFF.
_BAD_CHAR_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
#: What literal character data may not hold under ``strict``: those
#: characters and the CDATA end marker.
_BAD_TEXT_RE = re.compile("]]>|" + _BAD_CHAR_RE.pattern)

#: An XML declaration (not ``<?xml-stylesheet``, say).
_XML_DECL_RE = re.compile(r"<\?xml[\s?]")

#: The body of a well-formed XML declaration, as Expat reads one: a
#: version, then optionally an encoding and a standalone flag, in order.
_S = "[ \t\r\n]"
_XML_DECL_BODY_RE = re.compile(
    f"xml{_S}+version{_S}*={_S}*(?:'[A-Za-z0-9_.:-]+'|\"[A-Za-z0-9_.:-]+\")"
    f"(?:{_S}+encoding{_S}*={_S}*(?:'[A-Za-z][A-Za-z0-9._-]*'|\"[A-Za-z][A-Za-z0-9._-]*\"))?"
    f"(?:{_S}+standalone{_S}*={_S}*(?:'(?:yes|no)'|\"(?:yes|no)\"))?{_S}*\\Z"
)

#: What ends a DOCTYPE or nests its internal subset.
_DOCTYPE_MARK_RE = re.compile(r"[][>]")

#: How much of a text run outside the document element its message
#: quotes, and the most of it the scanner holds.
_RUN_WINDOW = 40

# Return codes of :meth:`XmlTokenizer._handle_misc_markup`.
_MISC_NOT = 0  # the construct at pos is a plain tag
_MISC_CONSUMED = 1  # comment/CDATA/PI/DOCTYPE consumed; rescan
_MISC_INCOMPLETE = 2  # construct still incomplete; wait for more input


def _is_xml_char(code: int) -> bool:
    """XML 1.0 ``Char``: tab, LF, CR and the non-surrogate code points
    from U+0020, less U+FFFE and U+FFFF."""
    if code < 0x20:
        return code in (0x9, 0xA, 0xD)
    return code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF


def _is_name(text: str) -> bool:
    """Return True when ``text`` is a syntactically valid XML name."""
    if not text or text[0] not in _NAME_START and not text[0].isalpha():
        return False
    return all(ch in _NAME_CHARS or ch.isalnum() for ch in text)


# -- the Expat path's hand-over to the Python scanner ---------------------
#
# The Python scanner decides every case where it and Expat could differ.
# An Expat callback that meets such a case raises _Divert; the tokenizer
# then re-scans the chunk with the Python scanner from the chunk-start
# state, dropping the events Expat already delivered (_Replay).

#: Largest number of names remembered by the per-name check.
_NAME_CACHE_LIMIT = 4096


class _Divert(Exception):
    """Raised in an Expat callback: let the Python scanner decide."""


class _Stop(Exception):
    """Raised by :class:`_Replay` once it has dropped its events."""


class _Replay:
    """Drop the first ``count`` events, then forward to ``handler``.

    With ``handler`` None, raise :class:`_Stop` at the last dropped
    event instead: the scanner then stands where a handler exception
    left the Expat path.
    """

    __slots__ = ("handler", "count")

    def __init__(self, handler, count: int):
        self.handler = handler
        self.count = count

    def _drop(self) -> bool:
        if not self.count:
            return False
        self.count -= 1
        if not self.count and self.handler is None:
            raise _Stop
        return True

    def start_element(self, tag, level, node_id, attributes) -> None:
        if not self._drop():
            self.handler.start_element(tag, level, node_id, attributes)

    def characters(self, text, level) -> None:
        if not self._drop():
            self.handler.characters(text, level)

    def end_element(self, tag, level) -> None:
        if not self._drop():
            self.handler.end_element(tag, level)


class _NoEvents:
    """Handler for settling the Expat path's unparsed tail into the
    Python scanner's: an event completed there means the scanner reads
    the tail otherwise, and raises :class:`_Divert`."""

    def _fail(self, *_args) -> NoReturn:
        raise _Divert

    start_element = characters = end_element = _fail


_NO_EVENTS = _NoEvents()


def _no_settle() -> None:
    """``_settle`` of callbacks that step no automaton inline."""


class _Cursor:
    """Line/column bookkeeping for error messages."""

    __slots__ = ("line", "column")

    def __init__(self) -> None:
        self.line = 1
        self.column = 1

    def advance(self, text: str) -> None:
        newlines = text.count("\n")
        if newlines:
            self.line += newlines
            self.column = len(text) - text.rfind("\n")
        else:
            self.column += len(text)


class XmlTokenizer:
    """Incremental tokenizer producing modified-SAX events.

    Typical use::

        tok = XmlTokenizer()
        for chunk in chunks:
            tok.feed_into(chunk, handler)   # or: for event in tok.feed(chunk)
        tok.close_into(handler)             # raises (strict) if incomplete;
                                            # synthesizes ends (repair)

    Parameters
    ----------
    skip_whitespace:
        When true (the default), character runs consisting solely of
        whitespace are not reported.  Query engines only consume text for
        value predicates, so indentation noise is pure overhead.
    policy:
        Malformed-input handling: ``"strict"`` (raise), ``"skip"`` (drop
        and resynchronise), or ``"repair"`` (drop, resynchronise, and
        synthesize missing end tags).  See
        :class:`~repro.stream.recovery.RecoveryPolicy`.
    on_diagnostic:
        Callback invoked with each
        :class:`~repro.stream.recovery.StreamDiagnostic` as recovery
        actions happen (lenient policies only).
    limits:
        Optional :class:`~repro.stream.recovery.ResourceLimits`; crossing
        any bound raises :class:`~repro.errors.ResourceLimitError`
        regardless of policy.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the tokenizer publishes ``repro_tokenizer_*`` families (bytes
        fed, events produced, recovery actions, current depth) once per
        ``feed``/``feed_into``/``close`` call — deltas only, so several
        tokenizers can share one registry and a tokenizer restored from
        a snapshot re-publishes its cumulative history into a fresh
        registry.  When ``None`` (the default) the only trace of the
        feature on the hot path is one integer addition per chunk.
    """

    #: Whether feeds parse with Expat; a subclass that sets it False
    #: runs the Python scanner alone.
    _expat = True

    def __init__(
        self,
        skip_whitespace: bool = True,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ):
        self._buffer = ""
        self._pos = 0  # scan offset into _buffer; compacted between feeds
        # Chunks accepted by feed()/feed_into() but not yet merged into
        # _buffer.  Buffering them as a list and joining once per drain
        # keeps N unconsumed feeds O(total), not O(total²) string
        # re-copies, and means a feed() whose iterator is never consumed
        # still retains (rather than silently drops) its chunk.
        self._pending: list[str] = []
        self._text_parts: list[str] = []  # pending character data
        self._text_len = 0  # total characters staged in _text_parts
        self._skip_whitespace = skip_whitespace
        self._stack: list[str] = []
        self._next_id = 1
        self._seen_root = False
        self._closed = False
        self._cursor = _Cursor()
        self._policy = RecoveryPolicy.coerce(policy)
        self._on_diagnostic = on_diagnostic
        self._limits = limits
        self._event_count = 0
        # Depth of a subtree being dropped by a lenient policy (a second
        # document element, say): >0 means tags are balance-tracked but
        # produce no events.
        self._ignore_depth = 0
        #: Recovery actions taken so far (capped at
        #: :data:`MAX_RETAINED_DIAGNOSTICS`; see :attr:`diagnostic_count`).
        self.diagnostics: list[StreamDiagnostic] = []
        #: Total number of recovery actions, including any beyond the cap.
        self.diagnostic_count = 0
        #: Characters of XML text accepted by feed()/feed_into() so far
        #: (str length — decoded characters, not encoded bytes).
        self.bytes_fed = 0
        self._metrics = metrics
        if metrics is not None:
            self._bind_metrics(metrics)
        # The Expat path.  While it runs, _buffer holds the input Expat
        # has not consumed (from an open CDATA section's start, if one is
        # open) and _cursor points at its start.
        self._parser = None  # built at the first feed Expat can read
        # Characters of _buffer up to and including the point where Expat
        # last failed, or of a construct Expat held past
        # DEFAULT_CHUNK_SIZE: while the scanner holds them, no parser is
        # primed.
        self._damage = 0
        # Where the last search for the end of a held tag, DOCTYPE,
        # comment, CDATA section or PI stopped: ((line, column) of its
        # start, characters searched, and for a tag or DOCTYPE the open
        # quote or the bracket depth there).  Keyed by the start, a search
        # only resumes on the construct that left it.
        self._tag_search = None
        self._doctype_search = None
        self._markup_search = None
        # Set while the rest of a text run outside the document element,
        # already judged by its window, is dropped as it arrives.
        self._dropping_run = False
        self._held_at = 0  # Expat byte index of _buffer[0]
        self._cdata_at = -1  # Expat byte index of an open CDATA section
        self._cdata_mark = 0  # its first entry in _text_parts
        self._bound = None  # the handler the callbacks deliver to
        self._names: dict[str, bool] = {}  # non-ASCII name -> _is_name

    # -- public API ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Current element nesting depth."""
        return len(self._stack)

    @property
    def open_elements(self) -> tuple[str, ...]:
        """Tags of the open elements, outermost first."""
        return tuple(self._stack)

    @property
    def policy(self) -> RecoveryPolicy:
        """The recovery policy this tokenizer runs under."""
        return self._policy

    @property
    def event_count(self) -> int:
        """Events delivered since the document start (exact between feeds)."""
        return self._event_count

    def feed(self, chunk: str) -> Iterator[Event]:
        """Consume ``chunk`` and yield all events completed by it.

        The pull view of :meth:`feed_into`: the same parse runs into a
        private :class:`~repro.stream.events.EventCollector`, at most
        :data:`DEFAULT_CHUNK_SIZE` characters of input per batch, and
        each batch's events are yielded before the next batch is
        scanned.  An error part-way through a batch is raised only
        after the events that precede it have been yielded.  The chunk
        is retained immediately (even if the returned iterator is never
        consumed); scanning happens lazily as events are pulled.
        """
        self._accept(chunk)
        return self._collect_batches()

    def _collect_batches(self) -> Iterator[Event]:
        collector = EventCollector()
        events = collector.events
        data = "".join(self._pending)
        self._pending.clear()
        start = 0
        try:
            while True:
                piece = data[start:start + DEFAULT_CHUNK_SIZE]
                start += DEFAULT_CHUNK_SIZE
                try:
                    self._feed_piece(piece, collector)
                except BaseException:
                    yield from events
                    raise
                yield from events
                events.clear()
                if start >= len(data):
                    break
        finally:
            # Input not parsed yet (the consumer stopped pulling, or a
            # piece raised) waits for the next drain.
            if start < len(data):
                self._pending.insert(0, data[start:])
        self._check_buffered()

    def feed_into(self, chunk: str, handler) -> None:
        """Push-mode feed: parse ``chunk`` and drive ``handler`` callbacks.

        Events completed by the chunk are delivered as direct
        ``start_element`` / ``characters`` / ``end_element`` calls on
        ``handler`` (any :class:`~repro.stream.events.EventHandler`),
        with no event objects: from Expat's callbacks, or from the
        Python scanner where Expat cannot read the input.  :meth:`feed`
        is a view over it, so pull and push feeds can be mixed on one
        tokenizer and :meth:`snapshot` captures either.
        """
        self._accept(chunk)
        data = "".join(self._pending)
        self._pending.clear()
        self._feed_piece(data, handler)
        self._check_buffered()

    def _accept(self, chunk: str) -> None:
        """Queue ``chunk`` for scanning (shared by every feed flavour)."""
        if self._closed:
            raise XmlSyntaxError("feed() after close()", self._cursor.line, self._cursor.column)
        self.bytes_fed += len(chunk)
        self._pending.append(chunk)

    def _check_buffered(self) -> None:
        """End-of-feed bookkeeping: the pending-input bound and metrics.

        After a feed the buffer holds exactly the unfinished tail; the
        bound caps what a single unterminated construct (one giant tag,
        an unclosed CDATA section) can make us remember.
        """
        limits = self._limits
        if limits is not None:
            bound = limits.max_buffered_input
            if self._parser is not None and bound is not None and len(self._buffer) > bound:
                # Expat may hold a trailing ']' the scanner would have
                # staged as text: judge the scanner's tail.
                self._leave_expat(_NO_EVENTS)
            limits.check("max_buffered_input", len(self._buffer))
        if self._metrics is not None:
            self._sync_metrics()

    def close_into(self, handler) -> None:
        """Declare end of input, delivering final events to ``handler``.

        Under ``strict``, raises :class:`~repro.errors.XmlSyntaxError` if
        the document is incomplete.  Under lenient policies, delivers the
        pending character data and synthesized end tags that close any
        still-open elements (with diagnostics for each).  Idempotent: a
        second close delivers nothing.
        """
        if self._closed:
            return
        if self._parser is not None:
            self._leave_expat(handler)
        self._merge_pending()
        self._closed = True
        if not self._stack and "<" not in self._buffer[self._pos:]:
            # The end of a text run outside the document element (see
            # _push_outside_text).
            self._push_raw_text(len(self._buffer))
        leftover = self._buffer[self._pos:].strip()
        self._buffer = ""
        self._pos = 0
        if leftover:
            if self._policy is RecoveryPolicy.STRICT:
                self._error(f"unparsed trailing input {leftover[:40]!r}")
            self._diagnose(
                f"dropped unparsed trailing input {leftover[:40]!r}", ACTION_SKIPPED
            )
        if self._stack:
            if self._policy is RecoveryPolicy.STRICT:
                self._error(f"unexpected end of input with <{self._stack[-1]}> still open")
            self._flush_text_into(handler)
            while self._stack:
                self._diagnose(
                    f"synthesized missing </{self._stack[-1]}> at end of input",
                    ACTION_REPAIRED,
                )
                self._pop_end(handler)
        if not self._seen_root:
            if self._policy is RecoveryPolicy.STRICT:
                self._error("document contains no element")
            self._diagnose("document contains no element", ACTION_SKIPPED)
        if self._metrics is not None:
            self._sync_metrics()

    def close(self) -> list[Event]:
        """Pull-mode :meth:`close_into`: return the final events as a list."""
        collector = EventCollector()
        self.close_into(collector)
        return collector.events

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the complete mutable state as a JSON-serializable dict.

        The pending buffer may hold a half-received tag: restore resumes
        exactly there.  Configuration that is not plain data — the
        ``on_diagnostic`` callback and the limits object — is supplied
        anew to :meth:`restore`.  The Expat path reports the state the
        Python scanner would have at the same input boundary.
        """
        if self._parser is not None:
            return self._settled().snapshot()
        self._merge_pending()
        state = {"version": TOKENIZER_SNAPSHOT_VERSION, **_SNAPSHOT.capture(
            self, buffer=self._buffer[self._pos:], line=self._cursor.line,
            column=self._cursor.column, policy=self._policy.value)}
        if self._dropping_run:
            state["dropping_run"] = True
        return state

    @classmethod
    def restore(
        cls,
        state: dict,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ) -> "XmlTokenizer":
        """Rebuild a tokenizer from a :meth:`snapshot` capture."""
        state = read_envelope(state, "tokenizer snapshot",
                              TOKENIZER_SNAPSHOT_VERSION, _SNAPSHOT)
        tokenizer = cls(
            policy=state["policy"],
            on_diagnostic=on_diagnostic,
            limits=limits,
            metrics=metrics,
        )
        _SNAPSHOT.apply(tokenizer, state)
        tokenizer._dropping_run = state["dropping_run"]
        tokenizer._cursor.line = state["line"]
        tokenizer._cursor.column = state["column"]
        return tokenizer

    # -- recovery / accounting ----------------------------------------

    def _error(self, message: str) -> NoReturn:
        raise XmlSyntaxError(message, self._cursor.line, self._cursor.column)

    def _diagnose(
        self,
        message: str,
        action: str,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        """Record one recovery action (lenient policies only)."""
        diagnostic = StreamDiagnostic(
            message,
            line if line is not None else self._cursor.line,
            column if column is not None else self._cursor.column,
            action,
        )
        self.diagnostic_count += 1
        if len(self.diagnostics) < MAX_RETAINED_DIAGNOSTICS:
            self.diagnostics.append(diagnostic)
        if self._on_diagnostic is not None:
            self._on_diagnostic(diagnostic)

    def _note_event(self) -> None:
        self._event_count += 1
        if self._limits is not None:
            self._limits.check("max_total_events", self._event_count)

    # -- metrics -------------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_bytes = metrics.counter(
            "repro_tokenizer_bytes_total",
            "Characters of XML text fed (str length, not encoded bytes).",
        )
        self._m_events = metrics.counter(
            "repro_tokenizer_events_total",
            "Modified-SAX events produced by the tokenizer.",
        )
        self._m_recovery = metrics.counter(
            "repro_tokenizer_recovery_actions_total",
            "Recovery actions taken under lenient policies.",
        )
        self._m_depth = metrics.gauge(
            "repro_tokenizer_depth", "Current element nesting depth."
        )
        # Totals already published; the authoritative counts live on the
        # tokenizer (and ride through snapshots), so publishing deltas
        # makes the registry additive across tokenizers and restores.
        self._reported = [0, 0, 0]

    def _sync_metrics(self) -> None:
        """Publish counter deltas accumulated since the last sync."""
        reported = self._reported
        delta = self.bytes_fed - reported[0]
        if delta:
            self._m_bytes.inc(delta)
            reported[0] = self.bytes_fed
        delta = self._event_count - reported[1]
        if delta:
            self._m_events.inc(delta)
            reported[1] = self._event_count
        delta = self.diagnostic_count - reported[2]
        if delta:
            self._m_recovery.inc(delta)
            reported[2] = self.diagnostic_count
        self._m_depth.set(len(self._stack))

    # -- the Expat path -------------------------------------------------

    def _start_expat(self):
        """Build the parser, primed to stand where the scanner stands.

        A restored tokenizer may have open elements: a muted ``<s1>…<sn>``
        prefix (``<_/>`` once the document element has closed) gives
        Expat the same nesting, and so does a parser primed again after
        the scanner took over.  Returns None when Expat rejects the
        prefix.
        """
        parser = expat.ParserCreate()
        if hasattr(parser, "SetReparseDeferralEnabled"):
            # Expat >= 2.6 may otherwise hold a complete tag back until
            # more input arrives; events must come with their chunk.
            parser.SetReparseDeferralEnabled(False)
        if self._stack:
            prefix = "".join(f"<{tag}>" for tag in self._stack)
        else:
            prefix = "<_/>" if self._seen_root else ""
        try:
            parser.Parse(prefix, False)
        except expat.ExpatError:
            return None
        self._parser = parser
        self._held_at = len(prefix.encode("utf-8"))
        self._cdata_at = -1
        self._bound = None
        self._interned = 0
        parser.StartCdataSectionHandler = self._cdata_start
        parser.EndCdataSectionHandler = self._cdata_end
        return parser

    def _cdata_start(self) -> None:
        self._cdata_at = self._parser.CurrentByteIndex
        self._cdata_mark = len(self._text_parts)

    def _cdata_end(self) -> None:
        self._cdata_at = -1

    def _feed_piece(self, data: str, handler) -> None:
        """Parse ``data`` with Expat, or hand it to the Python scanner.

        After the scanner took over, a parser is primed again at the
        next piece, unless the scanner is inside a dropped subtree (which
        Expat cannot mute) or a text run it drops, or still holds the
        input Expat failed on: parsing that again at every piece would
        make held input quadratic.
        """
        if self._parser is None and (not self._expat or self._ignore_depth
                                     or self._dropping_run or self._damage):
            self._scan(handler, data)
            return
        if not self._seen_root:
            prolog = self._buffer + data
            cursor = self._cursor
            if "<!DOCTYPE" in prolog or "\ufeff" in prolog or (
                (cursor.line, cursor.column) != (1, 1)
                and _XML_DECL_RE.search(prolog)
            ):
                # A DOCTYPE can declare entities and default attributes,
                # Expat skips a byte-order mark the scanner rejects, and
                # a parser built past the document's start takes an XML
                # declaration for its own start.
                self._leave_expat(handler, data)
                return
        if self._parser is None:
            if self._start_expat() is None:
                self._scan(handler, data)
                return
            # Expat has not seen what the scanner held back.
            data = self._buffer + data
            self._buffer = ""
        if handler is not self._bound:
            self._bind(handler)
        bound = self._limits.max_attribute_length if self._limits is not None else None
        if bound is None:
            self._parse_piece(data, handler)
            return
        # The scanner bounds raw attribute values, which Expat never
        # shows; a value lies within the held tail and the piece, so
        # keeping both under the bound keeps every value under it.
        start = 0
        while start < len(data):
            room = bound - len(self._buffer)
            if room <= 0 or self._parser is None:
                self._leave_expat(handler, data[start:])
                return
            self._parse_piece(data[start:start + room], handler)
            start += room

    def _parse_piece(self, data: str, handler) -> None:
        """One ``Parse`` call; on failure the Python scanner takes over."""
        if not data:
            return
        parser = self._parser
        saved = (
            self._stack[:], self._next_id, self._event_count, self._seen_root,
            self._text_parts[:], self._cdata_at, self._cdata_mark,
        )
        parser.StartElementHandler = (
            self._on_start if data.isascii() and self._buffer.isascii()
            else self._on_start_checked
        )
        self._mark(self._next_id, self._event_count)
        try:
            parser.Parse(data, False)
        except (expat.ExpatError, _Divert):
            self._settle()
            # The scanner reads the chunk from its start, holding any
            # unfinished construct: mark how far the failure lies.
            failed = max(0, parser.CurrentByteIndex - self._held_at)
            text = self._buffer + data
            if not text.isascii():
                failed = len(text.encode("utf-8")[:failed].decode("utf-8", "ignore"))
            self._damage = failed + 1
            self._leave_expat(_Replay(handler, self._tally()[1]), data, saved)
            return
        except BaseException:
            # The handler raised: stand where the scanner would, then
            # let the exception go on.
            self._settle()
            delivered = self._tally()[1]
            if delivered:
                try:
                    self._leave_expat(_Replay(None, delivered), data, saved)
                except _Stop:
                    pass
            else:
                self._drop_parser(saved)
                self._buffer += data
            raise
        self._settle()
        next_id, delivered = self._tally()
        if delivered:
            self._next_id = next_id
            self._event_count += delivered
            self._seen_root = True
        names = parser.intern
        if len(names) != self._interned:
            # Expat hands out the values of this dict as names: make them
            # the interned strings, so downstream dict lookups hit by
            # identity from the next piece on.
            for name in names:
                names[name] = _intern(name)
            self._interned = len(names)
        self._advance_held(data)
        if len(self._buffer) > DEFAULT_CHUNK_SIZE:
            # Expat parses a held construct again from its start at every
            # piece: past one piece's worth, the scanner, which resumes
            # its search, holds it until it is read.
            self._damage = len(self._buffer)
            self._leave_expat(handler)
        elif self._buffer and (not self._stack or self._limits is not None):
            # Outside the document element Expat waits for a second byte
            # at the start (for a byte-order mark) and reads a quote as
            # the start of a literal, holding all later input; and it
            # holds a trailing ']' the scanner stages as text (counting
            # it against max_text_length): where the scanner reads such
            # a held tail otherwise — an error, a recovery action or an
            # event — it takes over.
            try:
                settled = self._settled().diagnostic_count == self.diagnostic_count
            except (ReproError, _Divert):
                settled = False
            if not settled:
                self._leave_expat(handler)

    def _advance_held(self, data: str) -> None:
        """Move the held tail and the cursor to Expat's new hold point:
        its first unconsumed byte, or an open CDATA section's start."""
        hold = self._cdata_at if self._cdata_at >= 0 else self._parser.CurrentByteIndex
        drop = hold - self._held_at
        self._held_at = hold
        old = self._buffer
        if drop >= len(old) and data.isascii() and old.isascii():
            # The usual case: Expat consumed the old tail and part of
            # ``data``; keep the rest of ``data`` without joining the two.
            drop -= len(old)
            self._cursor.advance(old)
            held = data
        else:
            held = old + data
            if drop and not held.isascii():
                drop = len(held.encode("utf-8")[:drop].decode("utf-8"))
        self._buffer = held
        self._advance_span(0, drop)
        self._compact()

    def _restore_saved(self, saved: tuple) -> None:
        """Put back the state :meth:`_parse_piece` saved at its start."""
        stack, self._next_id, self._event_count, self._seen_root, parts, \
            self._cdata_at, self._cdata_mark = saved
        self._stack[:] = stack
        self._text_parts[:] = parts

    def _leave_expat(self, handler, data: str = "", saved: tuple | None = None) -> None:
        """Switch to the Python scanner and scan the held tail plus ``data``.

        ``saved`` (a chunk-start state) is restored first.  An open CDATA
        section's text goes back into the buffer, where the scanner
        holds it.
        """
        self._drop_parser(saved)
        self._scan(handler, data)

    def _scan(self, handler, data: str = "") -> None:
        """Scan the held tail plus ``data`` with the Python scanner."""
        self._buffer += data
        try:
            self._scan_into(handler)
        finally:
            self._damage = max(0, self._damage - self._pos)
            self._compact()

    def _drop_parser(self, saved: tuple | None = None) -> None:
        """Turn the Expat path's state into the Python scanner's."""
        if saved is not None:
            self._restore_saved(saved)
        if self._cdata_at >= 0:
            del self._text_parts[self._cdata_mark:]
            self._cdata_at = -1
        self._text_len = sum(map(len, self._text_parts))
        # The parser's callbacks refer back to this tokenizer; dropping
        # both references frees the parser without the cycle collector.
        self._parser = self._on_start = self._bound = None
        self._mark = self._tally = self._settle = None

    def _settled(self) -> "XmlTokenizer":
        """A Python-scanner copy of this tokenizer at the same input.

        The copy counts the recovery actions its scan of the held tail
        takes but reports none: this tokenizer reports them once its
        own scanner reads that input.
        """
        clone = copy.copy(self)
        clone._stack = self._stack[:]
        clone._text_parts = self._text_parts[:]
        clone._pending = self._pending[:]
        clone._cursor = copy.copy(self._cursor)
        clone._metrics = None
        clone.diagnostics = []
        clone._on_diagnostic = None
        clone._leave_expat(_NO_EVENTS)
        return clone

    def _check_name(self, name: str) -> bool:
        """:func:`_is_name`, cached for the Expat path's non-ASCII names."""
        names = self._names
        known = names.get(name)
        if known is None:
            if len(names) >= _NAME_CACHE_LIMIT:
                names.clear()
            known = names[name] = _is_name(name)
        return known

    def _on_start_checked(self, tag, attributes) -> None:
        """Start callback for input with non-ASCII characters: names the
        Python scanner rejects go to it."""
        if not tag.isascii() and not self._check_name(tag):
            raise _Divert
        for name in attributes:
            if not name.isascii() and not self._check_name(name):
                raise _Divert
        self._on_start(tag, attributes)

    def _bind(self, handler) -> None:
        """Build the Expat callbacks that drive ``handler``.

        They count only node ids and character events: every start
        pushes and every end pops the shared stack, so one ``Parse``
        delivers ``2 * starts - (depth change) + characters`` events,
        which ``_tally`` reports to :meth:`_parse_piece`.  Limits are
        checked conservatively: crossing one (or coming close to
        ``max_total_events``) diverts to the Python scanner, which raises
        at the exact event.
        """
        self._bound = handler
        stack = self._stack
        push, pop = stack.append, stack.pop
        parts = self._text_parts
        skip_whitespace = self._skip_whitespace
        on_start = handler.start_element
        on_end = handler.end_element
        on_characters = handler.characters
        # A handler that declares it ignores character data is not
        # called with it; the events are still counted.
        deliver_text = not getattr(handler, "turbo_scan_safe", False)
        # Such a handler may also let the callbacks step its automaton
        # themselves while it stays in step with the open elements:
        # ``states``/``tags`` are its stacks, each state has ``trans``
        # (tag -> state) and ``fire`` (None or a node-id callback).  A
        # missing transition goes through ``start_element``.
        automaton = None
        if not deliver_text and self._limits is None:
            automaton = getattr(handler, "inline_automaton", lambda: None)()
        inline = automaton is not None and len(automaton[0]) == len(stack) + 1
        if inline:
            states, tags, count_starts = automaton
            step_in, step_out = states.append, states.pop
            tag_in, tag_out = tags.append, tags.pop
        next_id = first_id = depth = characters = events = text_len = steps = 0

        def mark(node_id: int, event_count: int) -> None:
            nonlocal next_id, first_id, depth, characters, events, text_len
            next_id = first_id = node_id
            depth = len(stack)
            characters = 0
            events = event_count
            text_len = sum(map(len, parts))

        def tally() -> tuple[int, int]:
            return next_id, 2 * (next_id - first_id) - (len(stack) - depth) + characters

        def settle() -> None:
            """Credit the automaton with the starts stepped inline."""
            nonlocal steps
            if steps:
                count_starts(steps)
                steps = 0

        # The text flush is written out in both callbacks: it runs on
        # most events, and a call per event is a measurable share here.
        def start(tag, attributes) -> None:
            nonlocal next_id, characters, steps
            if parts:
                text = "".join(parts)
                parts.clear()
                if not (skip_whitespace and (text.isspace() or not text)):
                    characters += 1
                    if deliver_text:
                        on_characters(text, len(stack))
            push(tag)
            node_id = next_id
            next_id = node_id + 1
            if inline:
                state = states[-1].trans.get(tag)
                if state is not None:
                    steps += 1
                    step_in(state)
                    tag_in(tag)
                    if state.fire is not None:
                        state.fire(node_id)
                    return
            on_start(tag, len(stack), node_id, attributes)

        def end(_tag) -> None:
            nonlocal characters
            if parts:
                text = "".join(parts)
                parts.clear()
                if not (skip_whitespace and (text.isspace() or not text)):
                    characters += 1
                    if deliver_text:
                        on_characters(text, len(stack))
            level = len(stack)
            if inline:
                pop()
                step_out()
                tag_out()
                return
            on_end(pop(), level)

        characters_handler = parts.append
        limits = self._limits
        if limits is not None:
            max_depth = limits.max_depth
            max_attributes = limits.max_attributes
            max_text = limits.max_text_length
            max_events = limits.max_total_events
            unchecked_start, unchecked_end = start, end

            def near_max_events() -> bool:
                # Two events at most: the pending text and the tag.
                return max_events is not None and events + tally()[1] + 2 > max_events

            def start(tag, attributes) -> None:
                if (max_attributes is not None and len(attributes) > max_attributes
                        or max_depth is not None and len(stack) >= max_depth
                        or near_max_events()):
                    raise _Divert
                unchecked_start(tag, attributes)

            def end(tag) -> None:
                if near_max_events():
                    raise _Divert
                unchecked_end(tag)

            if max_text is not None:
                def characters_handler(text) -> None:
                    nonlocal text_len
                    parts.append(text)
                    # A flush empties parts: a lone part starts a new run.
                    text_len = text_len + len(text) if len(parts) > 1 else len(text)
                    if text_len > max_text:
                        raise _Divert

        self._mark = mark
        self._tally = tally
        self._settle = settle if inline else _no_settle
        self._on_start = start
        parser = self._parser
        parser.EndElementHandler = end
        parser.CharacterDataHandler = characters_handler

    # -- scanning -----------------------------------------------------

    def _consume(self, length: int) -> str:
        """Advance the scan offset by ``length``; return the skipped text."""
        start = self._pos
        self._pos = start + length
        text = self._buffer[start:self._pos]
        self._cursor.advance(text)
        return text

    def _compact(self) -> None:
        """Drop consumed input so the buffer never grows unboundedly."""
        if self._pos:
            self._buffer = self._buffer[self._pos:]
            self._pos = 0

    def _merge_pending(self) -> None:
        """Fold chunks accepted by ``feed`` into the scan buffer.

        Compacts first, so the join concatenates the unfinished tail with
        the new chunks in one pass — the only string copies the buffer
        ever pays, regardless of how many chunks arrived in between.
        """
        if self._pending:
            self._compact()
            if self._buffer:
                self._pending.insert(0, self._buffer)
            self._buffer = "".join(self._pending)
            self._pending.clear()

    def _advance_span(self, start: int, end: int) -> None:
        """Advance the scan offset and cursor over ``buffer[start:end]``.

        Equivalent to :meth:`_consume` without materialising the slice,
        for spans whose text is not needed.
        """
        self._pos = end
        buffer = self._buffer
        newlines = buffer.count("\n", start, end)
        cursor = self._cursor
        if newlines:
            cursor.line += newlines
            cursor.column = end - buffer.rfind("\n", start, end)
        else:
            cursor.column += end - start

    def _stage_text_tail(self, pos: int) -> None:
        """Stage trailing character data when the buffer holds no ``<``.

        Holds back what a later chunk may still change: everything from
        the first ``&`` with no ``;`` after it (an entity reference split
        across chunks), otherwise a final ``\\r`` (the first half of a
        ``\\r\\n`` pair), and under ``strict`` a final ``]`` or ``]]``
        inside the document element, so a ``]]>`` split across chunks is
        seen whole.  Outside the document element a run of text is held
        only until its window is complete (see :meth:`_push_outside_text`).
        """
        buffer = self._buffer
        if not self._stack and not self._ignore_depth:
            self._push_outside_text(len(buffer), False)
            return
        cut = len(buffer)
        amp = buffer.find("&", max(pos, buffer.rfind(";", pos) + 1))
        if amp != -1:
            cut = amp
        elif cut > pos and buffer[cut - 1] == "\r":
            cut -= 1
        elif self._policy is RecoveryPolicy.STRICT:
            while cut > max(pos, len(buffer) - 2) and buffer[cut - 1] == "]":
                cut -= 1
        if cut > pos:
            self._push_raw_text(cut)

    def _push_raw_text(self, end: int) -> None:
        """Consume ``buffer[pos:end]`` and stage it as character data.

        Under ``strict`` a literal ``]]>`` or a character
        :data:`_BAD_TEXT_RE` names is an error at its own position.
        Inside the document element each entity reference is decoded on
        its own, with the cursor just past it: a bad one is judged alone
        (see :meth:`_push_reference`), however the chunks split the text.
        Outside it the run ends at ``end``: see :meth:`_push_outside_text`.
        """
        if not self._stack and not self._ignore_depth:
            self._push_outside_text(end, True)
            return
        self._check_text(end)
        pos = self._pos
        buffer = self._buffer
        if not self._ignore_depth:
            amp = buffer.find("&", pos, end)
            while amp != -1:
                if amp > pos:
                    self._push_text(self._consume(amp - pos))
                semi = buffer.find(";", amp, end)
                pos = end if semi == -1 else semi + 1
                self._push_reference(self._consume(pos - amp))
                amp = buffer.find("&", pos, end)
        if end > pos:
            self._push_text(self._consume(end - pos))

    def _push_outside_text(self, end: int, whole: bool) -> None:
        """Consume a text run outside the document element up to ``end``;
        ``whole`` when the run ends there.

        A run is judged by its window, its first :data:`_RUN_WINDOW`
        characters past its leading whitespace: the window is held until
        it is complete or the run ends, then quoted once by the error or
        the diagnostic, and the rest of the run is dropped as it arrives.
        So the message does not depend on the chunking, and a long run
        is held no longer than its window.
        """
        if not self._dropping_run:
            buffer = self._buffer
            pos = self._pos
            start = end - len(buffer[pos:end].lstrip())
            judged = whole or end - start >= _RUN_WINDOW
            window = min(end, start + _RUN_WINDOW) if judged else start
            self._check_text(window)
            self._push_text(self._consume(window - pos))
            if not judged:
                return
        self._advance_span(self._pos, end)
        self._dropping_run = not whole

    def _check_text(self, end: int) -> None:
        """Under ``strict``, reject a literal ``]]>`` or a character
        :data:`_BAD_TEXT_RE` names in ``buffer[pos:end]``, at its own
        position."""
        if self._policy is RecoveryPolicy.STRICT:
            pos = self._pos
            bad = _BAD_TEXT_RE.search(self._buffer, pos, end)
            if bad is not None:
                self._advance_span(pos, bad.start())
                if bad.group() == "]]>":
                    self._error("']]>' not allowed in character data")
                self._error(f"character {bad.group()!r} not allowed in character data")

    def _handle_misc_markup(self, pos: int, strict: bool) -> int:
        """Handle a non-element construct at ``pos`` (which holds ``<``).

        Comments, CDATA sections, processing instructions, DOCTYPE, and
        unrecognised ``<!`` markup.  Returns :data:`_MISC_NOT` when
        ``pos`` starts a plain tag instead, :data:`_MISC_CONSUMED` when a
        construct was consumed (rescan from the new offset), or
        :data:`_MISC_INCOMPLETE` when more input is needed.
        """
        buffer = self._buffer
        if buffer.startswith("<!--", pos):
            end = self._markup_end(pos, 4, "-->")
            if end == -1:
                return _MISC_INCOMPLETE
            comment = buffer[pos + 4:end]
            if "--" in comment or (strict and comment.endswith("-")):
                if strict:
                    self._error("'--' not allowed inside a comment")
                self._diagnose("'--' inside a comment", ACTION_SKIPPED)
            if strict:
                self._check_chars(comment, "a comment")
            self._consume(end + 3 - pos)
            return _MISC_CONSUMED
        if buffer.startswith("<![CDATA[", pos):
            end = self._markup_end(pos, 9, "]]>")
            if end == -1:
                return _MISC_INCOMPLETE
            text = buffer[pos + 9:end]
            if strict:
                self._check_chars(text, "a CDATA section")
            self._consume(end + 3 - pos)
            if text:  # an empty section adds no character data
                self._push_text(text)
            return _MISC_CONSUMED
        if buffer.startswith("<?", pos):
            end = self._markup_end(pos, 2, "?>")
            if end == -1:
                return _MISC_INCOMPLETE
            if strict:
                self._check_pi(buffer[pos + 2:end])
            self._consume(end + 2 - pos)
            return _MISC_CONSUMED
        if buffer.startswith("<!", pos):
            head = buffer[pos:pos + 9]
            maybe_incomplete = len(head) < 9 and any(
                prefix.startswith(head)
                for prefix in ("<!--", "<![CDATA[", "<!DOCTYPE")
            )
            if maybe_incomplete:
                return _MISC_INCOMPLETE  # construct kind not yet determined
            if buffer.startswith("<!DOCTYPE", pos):
                end = self._doctype_end(pos)
                if end == -1:
                    return _MISC_INCOMPLETE
                self._consume(end + 1 - pos)
                return _MISC_CONSUMED
            # Quote the markup up to its '>' or its 12th character, so
            # the quote does not depend on how much input is buffered.
            excerpt = buffer[pos:pos + 12]
            gt = excerpt.find(">")
            if gt != -1:
                excerpt = excerpt[:gt + 1]
            if strict:
                if gt == -1 and len(excerpt) < 12:
                    return _MISC_INCOMPLETE
                self._error(f"unrecognised markup {excerpt!r}")
            end = buffer.find(">", pos)
            if end == -1:
                return _MISC_INCOMPLETE  # closing '>' not received yet
            self._consume(end + 1 - pos)
            self._diagnose(f"dropped unrecognised markup {excerpt!r}", ACTION_SKIPPED)
            return _MISC_CONSUMED
        return _MISC_NOT

    def _markup_end(self, pos: int, start: int, closer: str) -> int:
        """Index of the ``closer`` ending the comment, CDATA section or PI
        at ``pos``, searched from ``pos + start``; -1 while it is
        incomplete.

        Like :meth:`_find_tag_end` it resumes where the previous search
        of the same held construct stopped (less a partial ``closer``),
        so a construct arriving in many chunks is searched once.
        """
        cursor = self._cursor
        held = self._markup_search
        if held is not None and held[0] == (cursor.line, cursor.column):
            start = max(start, held[1] - len(closer) + 1)
        buffer = self._buffer
        end = buffer.find(closer, pos + start)
        if end == -1:
            self._markup_search = ((cursor.line, cursor.column), len(buffer) - pos)
        return end

    def _check_pi(self, body: str) -> None:
        """Reject a processing instruction Expat rejects (``strict``).

        Its target must be a name; ``xml`` (in any case) is reserved for
        the XML declaration, which only the very first characters of the
        document may hold, and which must be well-formed.
        """
        target = body.split(None, 1)[0] if body[:1].strip() else ""
        if not _is_name(target):
            self._error(f"processing instruction target {target!r} is not a name")
        if target.lower() == "xml":
            cursor = self._cursor
            if target != "xml":
                self._error(f"reserved processing instruction target {target!r}")
            if cursor.line != 1 or cursor.column != 1:
                self._error("XML declaration not at the start of the document")
            if not _XML_DECL_BODY_RE.match(body):
                self._error("XML declaration not well-formed")
        self._check_chars(body, "a processing instruction")

    def _check_chars(self, text: str, where: str) -> None:
        """Reject a character XML forbids in ``text`` (``strict``)."""
        bad = _BAD_CHAR_RE.search(text)
        if bad is not None:
            self._error(f"character {bad.group()!r} not allowed in {where}")

    def _scan_into(self, handler) -> None:
        """The scanner: drive ``handler`` from the buffered input.

        Scans until the buffer holds only an incomplete construct:
        character data, misc markup (:meth:`_handle_misc_markup`) and
        tags (:meth:`_find_tag_end`, :meth:`_handle_tag`), each with its
        errors, diagnostics and recovery actions.
        """
        strict = self._policy is RecoveryPolicy.STRICT
        buffer = self._buffer
        find = buffer.find
        while self._pos < len(buffer):
            pos = self._pos
            lt = find("<", pos)
            if lt == -1:
                self._stage_text_tail(pos)
                return
            if lt > pos or self._dropping_run:
                self._push_raw_text(lt)
                pos = lt
            misc = self._handle_misc_markup(pos, strict)
            if misc == _MISC_CONSUMED:
                continue
            if misc == _MISC_INCOMPLETE:
                return
            gt = self._find_tag_end(pos)
            if gt == -2:
                continue  # lenient recovery consumed the bad tag text
            if gt == -1:
                return
            tag_text = self._consume(gt + 1 - pos)
            self._flush_text_into(handler)
            try:
                self._handle_tag(tag_text, handler)
            except XmlSyntaxError as exc:
                if strict:
                    raise
                # The malformed tag was already consumed: dropping it *is*
                # the resynchronisation — the scan continues at the next
                # tag boundary.
                self._diagnose(
                    f"dropped malformed tag: {exc.raw_message}",
                    ACTION_SKIPPED,
                    exc.line,
                    exc.column,
                )

    def _doctype_end(self, pos: int) -> int:
        """Index of the '>' closing a DOCTYPE, honouring an internal
        subset; -1 while it is incomplete.

        Resumes where the previous search of the same held DOCTYPE
        stopped, so a DOCTYPE arriving in many chunks is read once.
        """
        cursor = self._cursor
        index, depth = pos + 1, 0
        held = self._doctype_search
        if held is not None and held[0] == (cursor.line, cursor.column):
            index, depth = pos + held[1], held[2]
        buffer = self._buffer
        for mark in _DOCTYPE_MARK_RE.finditer(buffer, index):
            char = mark.group()
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif depth == 0:
                return mark.start()
        self._doctype_search = ((cursor.line, cursor.column), len(buffer) - pos, depth)
        return -1

    def _find_tag_end(self, pos: int) -> int:
        """Index of the '>' ending the tag at ``pos``, skipping quotes.

        Returns ``-1`` when the tag is still incomplete and ``-2`` when a
        lenient policy dropped malformed tag text (rescan from the new
        position).  Like :meth:`_doctype_end` it resumes where the
        previous search of the same held tag stopped.
        """
        cursor = self._cursor
        index, quote = pos + 1, ""
        held = self._tag_search
        if held is not None and held[0] == (cursor.line, cursor.column):
            index, quote = pos + held[1], held[2]
        buffer = self._buffer
        for index in range(index, len(buffer)):
            char = buffer[index]
            if quote:
                if char == quote:
                    quote = ""
            elif char in "\"'":
                quote = char
            elif char == ">":
                return index
            elif char == "<":
                if self._policy is RecoveryPolicy.STRICT:
                    self._error("'<' inside a tag")
                dropped = self._consume(index - pos)
                self._diagnose(
                    f"'<' inside a tag; dropped {dropped[:40]!r}", ACTION_SKIPPED
                )
                return -2
        self._tag_search = ((cursor.line, cursor.column), len(buffer) - pos, quote)
        return -1

    # -- tag handling ---------------------------------------------------

    def _handle_tag(self, text: str, handler) -> None:
        """Handle one complete tag ``<...>``."""
        assert text[0] == "<" and text[-1] == ">"
        body = text[1:-1]
        if self._ignore_depth:
            # Inside a dropped subtree: track tag balance only.
            if body.startswith("/"):
                self._ignore_depth -= 1
            elif not body.endswith("/"):
                self._ignore_depth += 1
            return
        if body.startswith("/"):
            self._end_tag(body[1:].strip(), handler)
            return
        self_closing = body.endswith("/")
        if self_closing:
            body = body[:-1]
        tag, attributes = self._parse_tag_body(body)
        if not self._stack and self._seen_root:
            if self._policy is RecoveryPolicy.STRICT:
                self._error(f"second document element <{tag}>")
            self._diagnose(
                f"dropped second document element <{tag}>", ACTION_SKIPPED
            )
            if not self_closing:
                self._ignore_depth = 1
            return
        self._start_element(tag, attributes, handler)
        if self_closing:
            self._pop_end(handler)

    def _start_element(self, tag: str, attributes: dict[str, str], handler) -> None:
        if self._limits is not None:
            self._limits.check("max_depth", len(self._stack) + 1)
        self._seen_root = True
        # Interning tags makes downstream dict dispatch (machine tag
        # tables, the multi-query router) pointer-fast, and lets matching
        # end tags share the same string object via the stack pop.
        tag = _intern(tag)
        self._stack.append(tag)
        node_id = self._next_id
        self._next_id = node_id + 1
        self._note_event()
        handler.start_element(tag, len(self._stack), node_id, attributes)

    def _pop_end(self, handler) -> None:
        """Pop the innermost open element and deliver its end event."""
        level = len(self._stack)
        tag = self._stack.pop()
        self._note_event()
        handler.end_element(tag, level)

    def _end_tag(self, tag: str, handler) -> None:
        """Handle ``</tag>``: one pop, or structural recovery."""
        strict = self._policy is RecoveryPolicy.STRICT
        if not _is_name(tag):
            if strict:
                self._error(f"malformed end tag </{tag}>")
            self._diagnose(f"dropped malformed end tag </{tag}>", ACTION_SKIPPED)
            return
        if not self._stack:
            if strict:
                self._error(f"end tag </{tag}> without open element")
            self._diagnose(
                f"dropped stray end tag </{tag}> without open element",
                ACTION_SKIPPED,
            )
            return
        expected = self._stack[-1]
        if expected != tag:
            if strict:
                self._error(f"end tag </{tag}> does not match open <{expected}>")
            if self._policy is RecoveryPolicy.REPAIR and tag in self._stack:
                # Close the intervening elements: their end tags are
                # missing from the input, so synthesize them.
                while self._stack[-1] != tag:
                    self._diagnose(
                        f"synthesized missing </{self._stack[-1]}> before </{tag}>",
                        ACTION_REPAIRED,
                    )
                    self._pop_end(handler)
                self._pop_end(handler)
                return
            self._diagnose(
                f"dropped end tag </{tag}> that does not match open <{expected}>",
                ACTION_SKIPPED,
            )
            return
        self._pop_end(handler)

    def _parse_tag_body(self, body: str) -> tuple[str, dict[str, str]]:
        """Split ``a b="1" c='2'`` into the tag name and attribute dict."""
        index = 0
        length = len(body)
        while index < length and body[index] not in _WHITESPACE:
            index += 1
        tag = body[:index]
        if not _is_name(tag):
            self._error(f"malformed tag name {tag!r}")
        limits = self._limits
        strict = self._policy is RecoveryPolicy.STRICT
        attributes: dict[str, str] = {}
        while index < length:
            while index < length and body[index] in _WHITESPACE:
                index += 1
            if index >= length:
                break
            start = index
            while index < length and body[index] not in _WHITESPACE and body[index] != "=":
                index += 1
            name = body[start:index]
            if not _is_name(name):
                self._error(f"malformed attribute name {name!r} in <{tag}>")
            while index < length and body[index] in _WHITESPACE:
                index += 1
            if index >= length or body[index] != "=":
                self._error(f"attribute {name!r} in <{tag}> has no value")
            index += 1
            while index < length and body[index] in _WHITESPACE:
                index += 1
            if index >= length or body[index] not in "\"'":
                self._error(f"attribute {name!r} in <{tag}> has an unquoted value")
            quote = body[index]
            index += 1
            end = body.find(quote, index)
            if end == -1:
                self._error(f"unterminated value for attribute {name!r} in <{tag}>")
            if name in attributes:
                self._error(f"duplicate attribute {name!r} in <{tag}>")
            if strict:
                if "<" in body[index:end]:
                    self._error(f"'<' in the value of attribute {name!r} in <{tag}>")
                self._check_chars(
                    body[index:end], f"the value of attribute {name!r} in <{tag}>")
                if end + 1 < length and body[end + 1] not in _WHITESPACE:
                    self._error(f"no whitespace after attribute {name!r} in <{tag}>")
            # XML attribute-value normalisation: line ends are normalised
            # first (a literal \r\n is one line end, so one space), then
            # literal whitespace becomes a space *before* entity decoding
            # (so &#10; survives as '\n').
            raw = body[index:end]
            if limits is not None:
                limits.check("max_attribute_length", len(raw))
            raw = raw.replace("\r\n", " ")
            for ws in ("\t", "\n", "\r"):
                raw = raw.replace(ws, " ")
            attributes[name] = self._decode_entities(raw)
            if limits is not None:
                limits.check("max_attributes", len(attributes))
            index = end + 1
        return tag, attributes

    # -- text handling --------------------------------------------------

    def _push_text(self, text: str) -> None:
        """Stage literal character data; adjacent runs coalesce into one
        event."""
        if self._ignore_depth:
            return
        if not self._stack:
            quote = text.strip()[:_RUN_WINDOW]
            if quote:
                if self._policy is RecoveryPolicy.STRICT:
                    self._error(f"character data {quote!r} outside the document element")
                self._diagnose(
                    f"dropped character data {quote!r} outside the document element",
                    ACTION_SKIPPED,
                )
            return
        # XML end-of-line normalisation (literal \r\n and \r become \n;
        # &#13; references, decoded separately, survive).
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self._stage_text(text)

    def _push_reference(self, reference: str) -> None:
        """Stage the text of the entity reference just consumed.

        A bad reference is an error under ``strict``; ``skip`` drops it
        and ``repair`` keeps it literally, the text around it surviving
        either way.
        """
        try:
            if not reference.endswith(";"):
                self._error(f"unterminated entity reference in {reference[:12]!r}")
            text = self._decode_entity(reference[1:-1])
        except XmlSyntaxError as exc:
            if self._policy is RecoveryPolicy.STRICT:
                raise
            if self._policy is RecoveryPolicy.SKIP:
                self._diagnose(f"dropped entity reference: {exc.raw_message}",
                               ACTION_SKIPPED)
                return
            self._diagnose(f"kept undecoded entity reference: {exc.raw_message}",
                           ACTION_REPAIRED)
            text = reference.replace("\r\n", "\n").replace("\r", "\n")
        self._stage_text(text)

    def _stage_text(self, text: str) -> None:
        self._text_parts.append(text)
        self._text_len += len(text)
        if self._limits is not None:
            self._limits.check("max_text_length", self._text_len)

    def _flush_text_into(self, handler) -> None:
        """Deliver pending character data as a single event."""
        if not self._text_parts:
            return
        text = "".join(self._text_parts)
        self._text_parts.clear()
        self._text_len = 0
        if self._skip_whitespace and not text.strip():
            return
        self._note_event()
        handler.characters(text, len(self._stack))

    def _decode_entities(self, text: str) -> str:
        if "&" not in text:
            return text
        parts: list[str] = []
        index = 0
        while True:
            amp = text.find("&", index)
            if amp == -1:
                parts.append(text[index:])
                break
            parts.append(text[index:amp])
            semi = text.find(";", amp)
            if semi == -1:
                self._error(f"unterminated entity reference in {text[amp:amp + 12]!r}")
            name = text[amp + 1:semi]
            parts.append(self._decode_entity(name))
            index = semi + 1
        return "".join(parts)

    def _decode_entity(self, name: str) -> str:
        if name in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[name]
        if name.startswith("#"):
            try:
                code = int(name[2:], 16) if name[1:2] in ("x", "X") else int(name[1:])
                char = chr(code)
            except (ValueError, OverflowError):
                self._error(f"bad character reference &{name};")
            if self._policy is RecoveryPolicy.STRICT and not _is_xml_char(code):
                self._error(f"reference to invalid character &{name};")
            return char
        self._error(f"unknown entity &{name}; (non-validating parser, no DTD entities)")


# -- convenience event-source constructors -------------------------------

#: Chunk size used when reading files incrementally.
DEFAULT_CHUNK_SIZE = 64 * 1024


def iter_text_chunks(source, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[str]:
    """Yield raw text chunks from any text-bearing source.

    Accepts XML text (a ``str`` containing ``<``), a path, an open text
    file, or an iterable of string chunks — the text-level subset of what
    :func:`events_from` dispatches on.
    """
    if isinstance(source, str) and "<" in source:
        yield source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from iter(lambda: handle.read(chunk_size), "")
    elif hasattr(source, "read"):
        yield from iter(lambda: source.read(chunk_size), "")
    else:
        for chunk in source:
            if not isinstance(chunk, str):
                raise TypeError(
                    f"expected text chunks, got {type(chunk).__name__} "
                    "(pre-built event streams have no text to scan)"
                )
            yield chunk


def split_source(source) -> "tuple[Iterator[str] | None, Iterator[Event] | None]":
    """Classify ``source`` as text or events: ``(chunks, None)`` or
    ``(None, events)``.

    Text-bearing sources are those :func:`iter_text_chunks` accepts; an
    iterable whose first item is not a string (or an empty iterable) is
    a pre-built event stream and is returned as-is.
    """
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        return iter_text_chunks(source), None
    iterator = iter(source)
    for first in iterator:
        rest = itertools.chain((first,), iterator)
        if isinstance(first, str):
            return iter_text_chunks(rest), None
        return None, rest
    return None, iter(())


def _parse(chunks: Iterable[str], **options) -> Iterator[Event]:
    """The one pull parse behind every ``parse_*`` wrapper."""
    tokenizer = XmlTokenizer(**options)
    for chunk in chunks:
        yield from tokenizer.feed(chunk)
    yield from tokenizer.close()


def parse_string(
    text: str,
    skip_whitespace: bool = True,
    *,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> Iterator[Event]:
    """Tokenize a complete XML document held in a string."""
    return _parse((text,), skip_whitespace=skip_whitespace, policy=policy,
                  on_diagnostic=on_diagnostic, limits=limits, metrics=metrics)


def parse_chunks(
    chunks: Iterable[str],
    skip_whitespace: bool = True,
    *,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> Iterator[Event]:
    """Tokenize XML arriving as an iterable of text chunks."""
    return _parse(chunks, skip_whitespace=skip_whitespace, policy=policy,
                  on_diagnostic=on_diagnostic, limits=limits, metrics=metrics)


def parse_file(
    source: str | os.PathLike[str] | IO[str],
    skip_whitespace: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> Iterator[Event]:
    """Tokenize a file path or text file object, reading incrementally."""
    if isinstance(source, str):
        source = pathlib.Path(source)  # a path, even if it contains '<'
    return _parse(iter_text_chunks(source, chunk_size), skip_whitespace=skip_whitespace,
                  policy=policy, on_diagnostic=on_diagnostic, limits=limits, metrics=metrics)


def events_from(
    source,
    skip_whitespace: bool = True,
    *,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> Iterator[Event]:
    """Dispatch to the right parser for ``source``.

    Accepts XML text (a ``str`` containing ``<``), a path, an open text
    file, an iterable of chunks, or an iterable of events (returned
    as-is; recovery options do not apply to pre-built event streams).
    """
    chunks, events = split_source(source)
    if chunks is None:
        return events
    return _parse(chunks, skip_whitespace=skip_whitespace, policy=policy,
                  on_diagnostic=on_diagnostic, limits=limits, metrics=metrics)
