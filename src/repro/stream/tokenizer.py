"""A pure-Python, incremental, non-validating XML tokenizer.

The paper's implementation sits on top of Expat; to keep this reproduction
self-contained the default event source is this hand-written tokenizer.
(:mod:`repro.stream.expat_source` provides a drop-in adapter over the
stdlib Expat binding for speed.)

The tokenizer is *streaming*: it accepts arbitrary chunks of text and
reports every event that is complete so far, buffering only the
unfinished tail.  There is one scanner.  :meth:`XmlTokenizer.feed_into`
drives an :class:`~repro.stream.events.EventHandler`'s callbacks from it
directly; :meth:`XmlTokenizer.feed` is a pull view over the same scan,
collecting the callbacks as event objects and yielding them in batches.
It understands the XML constructs a non-validating processor must
recognise — element tags with attributes, self-closing tags, character
data with the five predefined entities and numeric character references,
CDATA sections, comments, processing instructions, the XML declaration,
and a DOCTYPE declaration (skipped, including an internal subset).

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

import itertools
import os
import pathlib
import re
from sys import intern as _intern
from typing import IO, Callable, Iterable, Iterator, NoReturn

from repro.errors import CheckpointError, XmlSyntaxError
from repro.stream.events import Event, EventCollector
from repro.stream.recovery import (
    ACTION_REPAIRED,
    ACTION_SKIPPED,
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

# -- fast-path patterns --------------------------------------------------
#
# The scanner (:meth:`XmlTokenizer._scan_into`) recognises the common tag
# shapes with compiled regular expressions so the per-tag work runs in C
# instead of a per-character Python loop.  The patterns are strict
# *subsets* of what the char-level slow path (_find_tag_end →
# _handle_tag → _parse_tag_body) accepts: anything they do not match —
# unicode names, entity references in attribute values, missing '>'
# (incomplete tail), malformed markup — falls through to that slow path,
# which owns every error, diagnostic, recovery action and limit check the
# fast path can meet.  The scanner reads the patterns through class
# attributes, so a subclass whose patterns never match runs the slow path
# alone; :class:`repro.bench.hotpath.ReferenceTokenizer` is that subclass,
# the independent reference the differential tests compare against.
#
# Attribute values in the fast pattern exclude '&' (entity decoding),
# '<' (always an error), and tab/newline/CR (attribute-value
# normalisation) so a fast-path value needs no post-processing.
_FAST_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_FAST_VALUE = "\"[^\"<&\\t\\n\\r]*\"|'[^'<&\\t\\n\\r]*'"
_FAST_START_RE = re.compile(
    f"<({_FAST_NAME})"
    f"((?:[ \\t\\r\\n]+{_FAST_NAME}[ \\t\\r\\n]*=[ \\t\\r\\n]*(?:{_FAST_VALUE}))*)"
    f"[ \\t\\r\\n]*(/?)>"
)
_FAST_END_RE = re.compile(f"</({_FAST_NAME})[ \\t\\r\\n]*>")
_FAST_ATTR_RE = re.compile(
    f"({_FAST_NAME})[ \\t\\r\\n]*=[ \\t\\r\\n]*(?:\"([^\"<&\\t\\n\\r]*)\"|'([^'<&\\t\\n\\r]*)')"
)

#: Shared attribute mapping for attribute-less start tags on the push
#: fast path.  Handlers must treat it as read-only.
_NO_ATTRIBUTES: dict[str, str] = {}

# Return codes of :meth:`XmlTokenizer._handle_misc_markup`.
_MISC_NOT = 0  # the construct at pos is a plain tag
_MISC_CONSUMED = 1  # comment/CDATA/PI/DOCTYPE consumed; rescan
_MISC_INCOMPLETE = 2  # construct still incomplete; wait for more input


def _is_name(text: str) -> bool:
    """Return True when ``text`` is a syntactically valid XML name."""
    if not text or text[0] not in _NAME_START and not text[0].isalpha():
        return False
    return all(ch in _NAME_CHARS or ch.isalnum() for ch in text)


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

    #: Fast-path tag patterns (see the comment above ``_FAST_START_RE``).
    _fast_start_re = _FAST_START_RE
    _fast_end_re = _FAST_END_RE

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

    # -- public API ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Current element nesting depth."""
        return len(self._stack)

    @property
    def policy(self) -> RecoveryPolicy:
        """The recovery policy this tokenizer runs under."""
        return self._policy

    def feed(self, chunk: str) -> Iterator[Event]:
        """Consume ``chunk`` and yield all events completed by it.

        The pull view of :meth:`feed_into`: the same scanner runs into a
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
        self._merge_pending()
        collector = EventCollector()
        events = collector.events
        while True:
            stop = self._pos + DEFAULT_CHUNK_SIZE
            try:
                self._scan_into(collector, stop)
            except BaseException:
                yield from events
                self._compact()
                raise
            yield from events
            events.clear()
            if self._pos < stop:
                break  # input exhausted or ends in an incomplete construct
        self._compact()
        self._check_buffered()

    def feed_into(self, chunk: str, handler) -> None:
        """Push-mode feed: scan ``chunk`` and drive ``handler`` callbacks.

        Events completed by the chunk are delivered as direct
        ``start_element`` / ``characters`` / ``end_element`` calls on
        ``handler`` (any :class:`~repro.stream.events.EventHandler`),
        with no event objects and compiled-regex tag scanning.  This is
        the only scanner: :meth:`feed` is a view over it, so pull and
        push feeds can be mixed on one tokenizer and :meth:`snapshot`
        captures either.
        """
        self._accept(chunk)
        self._merge_pending()
        try:
            self._scan_into(handler, len(self._buffer))
        finally:
            self._compact()
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
        if self._limits is not None:
            self._limits.check("max_buffered_input", len(self._buffer))
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
        self._merge_pending()
        self._closed = True
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
        anew to :meth:`restore`.
        """
        self._merge_pending()
        return {
            "version": TOKENIZER_SNAPSHOT_VERSION,
            "buffer": self._buffer[self._pos:],
            "text_parts": list(self._text_parts),
            "text_len": self._text_len,
            "stack": list(self._stack),
            "next_id": self._next_id,
            "seen_root": self._seen_root,
            "closed": self._closed,
            "line": self._cursor.line,
            "column": self._cursor.column,
            "skip_whitespace": self._skip_whitespace,
            "policy": self._policy.value,
            "ignore_depth": self._ignore_depth,
            "event_count": self._event_count,
            "diagnostic_count": self.diagnostic_count,
            "bytes_fed": self.bytes_fed,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ) -> "XmlTokenizer":
        """Rebuild a tokenizer from a :meth:`snapshot` capture."""
        version = state.get("version")
        if version != TOKENIZER_SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported tokenizer snapshot version {version!r} "
                f"(expected {TOKENIZER_SNAPSHOT_VERSION})"
            )
        tokenizer = cls(
            skip_whitespace=state["skip_whitespace"],
            policy=state["policy"],
            on_diagnostic=on_diagnostic,
            limits=limits,
            metrics=metrics,
        )
        tokenizer._buffer = state["buffer"]
        tokenizer._text_parts = list(state["text_parts"])
        tokenizer._text_len = state["text_len"]
        tokenizer._stack = list(state["stack"])
        tokenizer._next_id = state["next_id"]
        tokenizer._seen_root = state["seen_root"]
        tokenizer._closed = state["closed"]
        tokenizer._cursor.line = state["line"]
        tokenizer._cursor.column = state["column"]
        tokenizer._ignore_depth = state["ignore_depth"]
        tokenizer._event_count = state["event_count"]
        tokenizer.diagnostic_count = state["diagnostic_count"]
        # Absent in pre-observability snapshots (same schema version:
        # the key is additive and optional).
        tokenizer.bytes_fed = state.get("bytes_fed", 0)
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

        Equivalent to :meth:`_consume` without materialising the slice —
        the fast path's bookkeeping for spans whose text it does not
        need.
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

        Emits only what cannot be the start of an entity split across
        chunks (a small tail is held back if an unterminated ``&`` is
        pending), and holds back a trailing ``\\r`` too: it may be the
        first half of a ``\\r\\n`` pair split across chunks.
        """
        buffer = self._buffer
        amp = buffer.rfind("&", pos)
        cut = len(buffer)
        if amp != -1 and buffer.find(";", amp) == -1:
            cut = amp
        if cut > pos and buffer[cut - 1] == "\r":
            cut -= 1
        if cut > pos:
            self._push_text(self._consume(cut - pos))

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
            end = buffer.find("-->", pos + 4)
            if end == -1:
                return _MISC_INCOMPLETE
            comment = buffer[pos + 4:end]
            if "--" in comment:
                if strict:
                    self._error("'--' not allowed inside a comment")
                self._diagnose("'--' inside a comment", ACTION_SKIPPED)
            self._consume(end + 3 - pos)
            return _MISC_CONSUMED
        if buffer.startswith("<![CDATA[", pos):
            end = buffer.find("]]>", pos + 9)
            if end == -1:
                return _MISC_INCOMPLETE
            text = buffer[pos + 9:end]
            self._consume(end + 3 - pos)
            self._push_text(text, decode=False)
            return _MISC_CONSUMED
        if buffer.startswith("<?", pos):
            end = buffer.find("?>", pos + 2)
            if end == -1:
                return _MISC_INCOMPLETE
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
            if strict:
                self._error(f"unrecognised markup {buffer[pos:pos + 12]!r}")
            if not self._skip_bad_markup(pos):
                return _MISC_INCOMPLETE  # closing '>' not received yet
            return _MISC_CONSUMED
        return _MISC_NOT

    def _scan_into(self, handler, stop: int) -> None:
        """The scanner: drive ``handler`` from the buffered input.

        Scans until the offset reaches ``stop`` (finishing the construct
        in progress) or the buffer holds only an incomplete construct.
        Recognises the common tag shapes with the compiled fast-path
        patterns and calls the handler directly; everything the patterns
        do not cover falls through to the char-level slow path
        (:meth:`_handle_misc_markup`, :meth:`_find_tag_end`,
        :meth:`_handle_tag`), which also owns every error, diagnostic and
        recovery action the fast path can meet.
        """
        strict = self._policy is RecoveryPolicy.STRICT
        limits = self._limits
        buffer = self._buffer
        stack = self._stack
        start_match = self._fast_start_re.match
        end_match = self._fast_end_re.match
        find = buffer.find
        while self._pos < stop:
            pos = self._pos
            lt = find("<", pos)
            if lt == -1:
                self._stage_text_tail(pos)
                return
            if lt > pos:
                self._push_text(self._consume(lt - pos))
                pos = lt
            # Fast path: common start-tag shapes, matched in C.
            match = start_match(buffer, pos)
            if match is not None:
                self._advance_span(pos, match.end())
                self._flush_text_into(handler)
                if self._ignore_depth:
                    if not match.group(3):
                        self._ignore_depth += 1
                    continue
                tag = match.group(1)
                # Attribute parsing (and its errors / limit checks) comes
                # *before* the second-document-element check, exactly as
                # in _handle_tag → _parse_tag_body.
                try:
                    attr_text = match.group(2)
                    if attr_text:
                        attributes: dict[str, str] = {}
                        for attr in _FAST_ATTR_RE.finditer(attr_text):
                            name = attr.group(1)
                            if name in attributes:
                                self._error(f"duplicate attribute {name!r} in <{tag}>")
                            value = attr.group(2)
                            if value is None:
                                value = attr.group(3)
                            if limits is not None:
                                limits.check("max_attribute_length", len(value))
                            attributes[name] = value
                            if limits is not None:
                                limits.check("max_attributes", len(attributes))
                    else:
                        attributes = _NO_ATTRIBUTES
                except XmlSyntaxError as exc:
                    if strict:
                        raise
                    self._diagnose(
                        f"dropped malformed tag: {exc.raw_message}",
                        ACTION_SKIPPED,
                        exc.line,
                        exc.column,
                    )
                    continue
                if not stack and self._seen_root:
                    if strict:
                        self._error(f"second document element <{tag}>")
                    self._diagnose(
                        f"dropped second document element <{tag}>", ACTION_SKIPPED
                    )
                    if not match.group(3):
                        self._ignore_depth = 1
                    continue
                if limits is not None:
                    limits.check("max_depth", len(stack) + 1)
                self._seen_root = True
                tag = _intern(tag)
                stack.append(tag)
                level = len(stack)
                node_id = self._next_id
                self._next_id = node_id + 1
                self._note_event()
                handler.start_element(tag, level, node_id, attributes)
                if match.group(3):
                    stack.pop()
                    self._note_event()
                    handler.end_element(tag, level)
                continue
            # Fast path: common end-tag shapes.
            match = end_match(buffer, pos)
            if match is not None:
                self._advance_span(pos, match.end())
                self._flush_text_into(handler)
                if self._ignore_depth:
                    self._ignore_depth -= 1
                    continue
                tag = match.group(1)
                if stack and stack[-1] == tag:
                    level = len(stack)
                    # Pop rather than re-use the match text: the popped
                    # string is the interned start tag, so downstream
                    # dict lookups stay pointer-fast.
                    tag = stack.pop()
                    self._note_event()
                    handler.end_element(tag, level)
                    continue
                # Mismatched or stray end tag: structural recovery
                # (strict raises from _end_tag directly).
                self._end_tag(tag, handler)
                continue
            # Slow path: misc markup and every tag the patterns skip.
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

    def _skip_bad_markup(self, pos: int) -> bool:
        """Drop an unrecognised ``<!...>`` construct; True when consumed."""
        end = self._buffer.find(">", pos)
        if end == -1:
            return False
        dropped = self._buffer[pos:pos + 12]
        self._consume(end + 1 - pos)
        self._diagnose(f"dropped unrecognised markup {dropped!r}", ACTION_SKIPPED)
        return True

    def _doctype_end(self, pos: int) -> int:
        """Index of the '>' closing a DOCTYPE, honouring an internal subset."""
        depth = 0
        buffer = self._buffer
        for index in range(pos, len(buffer)):
            char = buffer[index]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth == 0 and index > pos:
                return index
        return -1

    def _find_tag_end(self, pos: int) -> int:
        """Index of the '>' ending the tag at ``pos``, skipping quotes.

        Returns ``-1`` when the tag is still incomplete and ``-2`` when a
        lenient policy dropped malformed tag text (rescan from the new
        position).
        """
        quote = ""
        buffer = self._buffer
        for index in range(pos, len(buffer)):
            char = buffer[index]
            if quote:
                if char == quote:
                    quote = ""
            elif char in "\"'":
                quote = char
            elif char == ">":
                return index
            elif char == "<" and index > pos:
                if self._policy is RecoveryPolicy.STRICT:
                    self._error("'<' inside a tag")
                dropped = self._consume(index - pos)
                self._diagnose(
                    f"'<' inside a tag; dropped {dropped[:40]!r}", ACTION_SKIPPED
                )
                return -2
        return -1

    # -- tag handling ---------------------------------------------------

    def _handle_tag(self, text: str, handler) -> None:
        """Handle one complete tag ``<...>`` on the char-level slow path."""
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
            # XML attribute-value normalisation: literal whitespace becomes
            # a space *before* entity decoding (so &#10; survives as '\n').
            raw = body[index:end]
            if limits is not None:
                limits.check("max_attribute_length", len(raw))
            for ws in ("\t", "\n", "\r"):
                raw = raw.replace(ws, " ")
            attributes[name] = self._decode_entities(raw)
            if limits is not None:
                limits.check("max_attributes", len(attributes))
            index = end + 1
        return tag, attributes

    # -- text handling --------------------------------------------------

    def _push_text(self, text: str, decode: bool = True) -> None:
        """Stage character data; adjacent runs coalesce into one event."""
        if self._ignore_depth:
            return
        if not self._stack:
            if text.strip():
                if self._policy is RecoveryPolicy.STRICT:
                    self._error(
                        f"character data {text.strip()[:40]!r} outside the document element"
                    )
                self._diagnose(
                    f"dropped character data {text.strip()[:40]!r} outside "
                    "the document element",
                    ACTION_SKIPPED,
                )
            return
        # XML end-of-line normalisation (literal \r\n and \r become \n;
        # &#13; references, decoded below, survive).
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if decode:
            try:
                text = self._decode_entities(text)
            except XmlSyntaxError as exc:
                if self._policy is RecoveryPolicy.STRICT:
                    raise
                if self._policy is RecoveryPolicy.SKIP:
                    self._diagnose(
                        f"dropped character data: {exc.raw_message}",
                        ACTION_SKIPPED,
                        exc.line,
                        exc.column,
                    )
                    return
                # repair: keep the raw text — data survives, the broken
                # entity reference stays literal.
                self._diagnose(
                    f"kept undecoded character data: {exc.raw_message}",
                    ACTION_REPAIRED,
                    exc.line,
                    exc.column,
                )
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
                return chr(code)
            except (ValueError, OverflowError):
                self._error(f"bad character reference &{name};")
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
