"""The query-aware turbo scanner: tag-only tokenization for path queries.

The tokenizer's scanner (:meth:`XmlTokenizer._scan_into`) already scans tags
with compiled regexes, but it still pays — per event — for attribute
parsing, text slicing and delivery, per-tag cursor accounting, and
per-event limit checks.  A predicate-free path machine consumes *none*
of that: :class:`~repro.compile.dfa.DfaPathM` ignores attributes and
character data entirely (it advertises ``turbo_scan_safe = True``).

:func:`turbo_feed` exploits the contract.  One combined regex walks the
buffer with ``finditer`` (a single C-level scan), start tags are
delivered with a shared empty attribute mapping, text runs are *counted*
(for event parity) but never sliced or delivered, and cursor/offset
bookkeeping is settled once per chunk instead of once per tag.

Anything unusual — misc markup (the XML declaration, comments, CDATA,
DOCTYPE), entity references in text, tags the fast pattern rejects,
structural errors — drops to :func:`_slow_step`, which runs the *same*
slow-path helpers the tokenizer's own scanner uses for exactly one
construct, then resumes the turbo loop.  Errors, diagnostics, node ids,
depths, event counts, and snapshot state are therefore identical to the
reference scanner's; only attribute dicts and text deliveries (which the
handler provably ignores) are elided.

Eligibility (:func:`turbo_eligible`) is deliberately narrow: strict
policy, no resource limits, no tokenizer metrics, whitespace skipping
on, and a handler that declares ``turbo_scan_safe``.  Everything else
takes the reference path unchanged.
"""

from __future__ import annotations

import re
from sys import intern as _intern

from repro.compile.dfa import DfaPathM
from repro.stream.recovery import RecoveryPolicy
from repro.stream.tokenizer import (
    _FAST_NAME,
    _FAST_VALUE,
    _MISC_CONSUMED,
    _MISC_INCOMPLETE,
    _NO_ATTRIBUTES,
    XmlTokenizer,
)

__all__ = ["turbo_eligible", "turbo_feed"]

#: The fast attribute region — zero or more well-formed name="value"
#: pairs, captured whole (same shape as ``_FAST_START_RE``).
_ATTRS = (
    f"((?:[ \\t\\r\\n]+{_FAST_NAME}[ \\t\\r\\n]*=[ \\t\\r\\n]*"
    f"(?:{_FAST_VALUE}))*)"
)

#: One pattern for both tag kinds, so a single ``finditer`` walks the
#: buffer in C.  Groups: 1 = start-tag name, 2 = attribute text,
#: 3 = self-closing slash, 4 = end-tag name.  The alternatives are the
#: exact ``_FAST_START_RE`` / ``_FAST_END_RE`` shapes of the reference
#: push scanner — strict subsets of what the slow path accepts.
_TURBO_RE = re.compile(
    f"<({_FAST_NAME}){_ATTRS}[ \\t\\r\\n]*(/?)>"
    f"|</({_FAST_NAME})[ \\t\\r\\n]*>"
)

#: Attribute names inside a fast-matched attribute region (shape already
#: validated by the tag pattern) — only consulted for the duplicate
#: check on multi-attribute tags.
_ATTR_NAME_RE = re.compile(f"({_FAST_NAME})[ \\t\\r\\n]*=")

#: The inline-DFA loop's pattern additionally recognises a *whole leaf
#: element* — ``<name>simple text</name>`` — as a single match, which
#: roughly halves the number of Python-level loop iterations on
#: element-heavy data.  The text part excludes ``<`` and ``&`` (children
#: and entities take the per-tag path) and is atomic: the close tag can
#: only ever start where the text run stops, so there is nothing to
#: backtrack into when the close tag does not follow.  Name and
#: attributes are matched once for all three start shapes.
#: ``lastindex`` discriminates: 2 = plain start tag (groups 1-2),
#: 3 = self-closing (groups 1-3), 4 = whole leaf (groups 1-2, 4),
#: 5 = end tag (group 5).
_LEAF_RE = re.compile(
    f"<({_FAST_NAME}){_ATTRS}[ \\t\\r\\n]*"
    f"(?:(/)>|>(?:((?>[^<&]*))</\\1[ \\t\\r\\n]*>)?)"
    f"|</({_FAST_NAME})[ \\t\\r\\n]*>"
)

#: First character that is not XML whitespace.  A hit is double-checked
#: with ``str.isspace`` so exotic unicode whitespace still counts as
#: blank, exactly as the reference scanner's ``str.strip`` does.
_NON_WS_RE = re.compile(r"[^ \t\r\n]")


def turbo_eligible(tokenizer: XmlTokenizer, handler) -> bool:
    """True when ``handler`` may be driven by :func:`turbo_feed`.

    The handler must declare ``turbo_scan_safe`` (it ignores attributes
    and character data), and the tokenizer must be running the exact
    configuration the turbo loop specializes: strict recovery (no
    diagnostics to record), no resource limits (no per-event checks),
    no metrics (no per-chunk sync), and whitespace skipping on.
    """
    return bool(
        getattr(handler, "turbo_scan_safe", False)
        and tokenizer._policy is RecoveryPolicy.STRICT
        and tokenizer._limits is None
        and tokenizer._metrics is None
        and tokenizer._skip_whitespace
    )


def turbo_feed(tokenizer: XmlTokenizer, chunk: str, handler) -> None:
    """Drop-in for :meth:`XmlTokenizer.feed_into` on eligible handlers.

    The caller is responsible for checking :func:`turbo_eligible` once
    per (tokenizer, handler) binding; the scan itself re-checks nothing.
    State — buffer, stack, cursor, counters — is shared with the
    reference scanner, so turbo and reference feeds may be mixed on one
    tokenizer and :meth:`~XmlTokenizer.snapshot` captures either.
    """
    t = tokenizer
    t._accept(chunk)
    t._merge_pending()
    try:
        run_generic = True
        if (
            type(handler) is DfaPathM
            and handler._fallback is None
            and handler._limits is None
            and len(handler._state_stack) == len(t._stack) + 1
            and handler._tags == t._stack
        ):
            # Healthy DFA machine in lockstep with the tokenizer: fuse
            # its transition table into the scan loop.  The specialised
            # loop hands back only when the machine degrades to the
            # interpreted fallback mid-chunk.
            run_generic = _turbo_scan_dfa(t, handler)
        if run_generic:
            _turbo_scan(t, handler)
    finally:
        t._compact()


def _turbo_scan(t: XmlTokenizer, handler) -> None:
    buffer = t._buffer
    length = len(buffer)
    stack = t._stack
    find = buffer.find
    finditer = _TURBO_RE.finditer
    nonws = _NON_WS_RE.search
    start_element = handler.start_element
    end_element = handler.end_element
    while t._pos < length:
        pos = t._pos
        span_start = pos
        depth = len(stack)
        next_id = t._next_id
        seen_root = t._seen_root
        events = 0
        pending_text = bool(t._text_parts)
        try:
            for match in finditer(buffer, pos):
                tstart = match.start()
                text_events = 0
                if tstart > pos:
                    if (
                        pending_text
                        or depth == 0
                        or find("<", pos, tstart) != -1
                        or find("&", pos, tstart) != -1
                    ):
                        # Coalescing, misc markup, entity decoding and
                        # depth-0 text checks live in the reference
                        # scanner; break without consuming the gap.
                        break
                    # Count the run iff the reference scanner would have
                    # emitted it (it contains real content).
                    scan = pos
                    while True:
                        hit = nonws(buffer, scan, tstart)
                        if hit is None:
                            break
                        where = hit.start()
                        if not buffer[where].isspace():
                            text_events = 1
                            break
                        scan = where + 1
                tag = match[1]
                if tag is not None:
                    attrs = match[2]
                    if attrs and attrs.count("=") > 1:
                        names = _ATTR_NAME_RE.findall(attrs)
                        if len(names) != len(set(names)):
                            break  # duplicate attribute: reference error
                    if depth == 0 and seen_root:
                        break  # second document element: reference error
                    if pending_text:
                        t._flush_text_into(handler)
                        pending_text = False
                    events += text_events + 1
                    pos = match.end()
                    tag = _intern(tag)
                    stack.append(tag)
                    depth += 1
                    node_id = next_id
                    next_id = node_id + 1
                    seen_root = True
                    start_element(tag, depth, node_id, _NO_ATTRIBUTES)
                    if match[3]:
                        stack.pop()
                        depth -= 1
                        events += 1
                        end_element(tag, depth + 1)
                else:
                    if depth == 0 or stack[-1] != match[4]:
                        break  # stray/mismatched end: reference recovery
                    if pending_text:
                        t._flush_text_into(handler)
                        pending_text = False
                    events += text_events + 1
                    pos = match.end()
                    depth -= 1
                    end_element(stack.pop(), depth + 1)
        finally:
            # Settle the bookkeeping the turbo loop deferred, so slow
            # steps, snapshots, and error positions see exact state.
            t._next_id = next_id
            t._seen_root = seen_root
            if events:
                t._event_count += events
            t._advance_span(span_start, pos)
        if pos >= length:
            return
        if not _slow_step(t, handler):
            return


def _turbo_scan_dfa(t: XmlTokenizer, dfa: DfaPathM) -> bool:
    """The query-fused scan loop: tokenizer and DFA advance as one.

    Instead of calling ``dfa.start_element`` per tag, the DFA's
    transition dict is consulted inline and whole leaf elements
    (``<name>text</name>``) are consumed as single matches, so the
    per-element cost is one regex step plus one dict lookup.  All gap,
    structure, and well-formedness checks mirror :func:`_turbo_scan`;
    anything unusual drops to the same :func:`_slow_step`.

    The caller guarantees entry invariants (no fallback, no machine
    limits, ``dfa._tags == t._stack``, one DFA state per open element
    plus the initial state).  Bookkeeping deferred inside the loop —
    node ids, event counts, ``dfa._starts``, ``dfa._tags``, cursor
    spans — is settled in the ``finally`` block, so slow steps,
    snapshots, and error positions see exact state.

    Returns True when the machine has degraded to interpreted fallback
    and the caller should finish the buffer with the generic loop.
    """
    buffer = t._buffer
    length = len(buffer)
    stack = t._stack
    find = buffer.find
    finditer = _LEAF_RE.finditer
    nonws = _NON_WS_RE.search
    emit = dfa.sink.emit
    materialize = dfa._materialize
    dstack = dfa._state_stack
    while t._pos < length:
        if dfa._fallback is not None or len(dstack) != len(stack) + 1:
            # A slow step tripped the interpreted fallback (state cap)
            # or desynchronised the machine; the generic loop drives it
            # through its own handler methods from here on.
            return True
        pos = t._pos
        span_start = pos
        depth = len(stack)
        next_id = t._next_id
        base_id = next_id
        seen_root = t._seen_root
        events = 0
        pending_text = bool(t._text_parts)
        state = dstack[-1]
        trans = state.trans
        capped = False
        try:
            for match in finditer(buffer, pos):
                tstart, mend = match.span()
                text_events = 0
                if tstart > pos:
                    if (
                        pending_text
                        or depth == 0
                        or find("<", pos, tstart) != -1
                        or find("&", pos, tstart) != -1
                    ):
                        break
                    scan = pos
                    while True:
                        hit = nonws(buffer, scan, tstart)
                        if hit is None:
                            break
                        where = hit.start()
                        if not buffer[where].isspace():
                            text_events = 1
                            break
                        scan = where + 1
                li = match.lastindex
                if li < 5:  # start tag (2), self-closing (3), leaf (4)
                    tag = match[1]
                    attrs = match[2]
                    if attrs and attrs.count("=") > 1:
                        names = _ATTR_NAME_RE.findall(attrs)
                        if len(names) != len(set(names)):
                            break  # duplicate attribute: reference error
                    if depth == 0 and seen_root:
                        break  # second document element: reference error
                    nxt = trans.get(tag)
                    if nxt is None:
                        nxt = materialize(state, tag)
                        if nxt is None:
                            # State cap: the triggering start has not
                            # been consumed; count it (the reference
                            # engine counts a start before it tries to
                            # materialise) and let the generic loop
                            # redeliver it into the interpreted
                            # fallback.
                            dfa._starts += 1
                            capped = True
                            break
                    if pending_text:
                        t._flush_text_into(dfa)
                        pending_text = False
                    pos = mend
                    seen_root = True
                    node_id = next_id
                    next_id = node_id + 1
                    if nxt.accepting:
                        emit(node_id)
                    if li == 2:  # plain start: one open element
                        events += text_events + 1
                        stack.append(tag)
                        depth += 1
                        dstack.append(nxt)
                        state = nxt
                        trans = state.trans
                    elif li == 3:  # self-closing: start + end
                        events += text_events + 2
                    else:
                        # Whole leaf: start + end, plus the text event
                        # the reference scanner would have delivered.
                        events += text_events + 2
                        txt = match[4]
                        if txt and not txt.isspace():
                            events += 1
                else:  # end tag
                    if depth == 0 or stack[-1] != match[5]:
                        break  # stray/mismatched end: reference recovery
                    if pending_text:
                        t._flush_text_into(dfa)
                        pending_text = False
                    events += text_events + 1
                    pos = mend
                    depth -= 1
                    stack.pop()
                    dstack.pop()
                    state = dstack[-1]
                    trans = state.trans
        finally:
            t._next_id = next_id
            t._seen_root = seen_root
            if events:
                t._event_count += events
            dfa._starts += next_id - base_id
            dfa._tags[:] = stack
            t._advance_span(span_start, pos)
        if capped:
            dfa._fall_back()
            return True
        if pos >= length:
            return False
        if not _slow_step(t, dfa):
            return False
    return False


def _slow_step(t: XmlTokenizer, handler) -> bool:
    """Handle one construct at ``t._pos`` with the reference helpers.

    Mirrors one iteration of :meth:`XmlTokenizer._scan_into`'s slow
    branch — text staging, misc markup, full tag handling — and returns
    False when the buffer is exhausted or holds an incomplete construct
    (stop scanning until more input arrives).
    """
    buffer = t._buffer
    pos = t._pos
    lt = buffer.find("<", pos)
    if lt == -1:
        t._stage_text_tail(pos)
        return False
    if lt > pos:
        t._push_text(t._consume(lt - pos))
        pos = lt
    misc = t._handle_misc_markup(pos, True)
    if misc == _MISC_CONSUMED:
        return True
    if misc == _MISC_INCOMPLETE:
        return False
    gt = t._find_tag_end(pos)
    if gt == -1:
        return False
    tag_text = t._consume(gt + 1 - pos)
    t._flush_text_into(handler)
    t._handle_tag(tag_text, handler)
    return True
