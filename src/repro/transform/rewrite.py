"""Match-and-rewrite transformation: ordered rules over an XML stream.

A :class:`RewriteEngine` applies an ordered list of :class:`RewriteRule`\\ s
(``match`` = XPath, ``action`` = ``drop | replace | rename | wrap |
callback | extract``) to a streaming document — the py:match workload of
streaming template engines, driven by the TwigM matcher:

* **Rule priority** — when several rules match one element, the
  *earliest* rule wins; later matches on the same element are ignored.
* **Re-entry** — content inside a renamed or wrapped match stays live:
  rules keep matching descendants (over the *input* stream, so a wrapper
  element never re-triggers its own rule — rewriting is idempotent for
  rename/drop pipelines).  Content of dropped/replaced matches is gone
  and produces no output, though it still feeds predicate evaluation of
  enclosing live matches.
* **Correct nesting** — output is always well-nested with recomputed
  levels and fresh document-order node ids, whatever structural edits
  the rules made.

Buffering follows verdicts, exactly as in extraction.  An element whose
matched rules are all :func:`~repro.transform.base.immediate_match`
(or matched by no rule) is transformed *on the fly* with zero buffering.
Only when a **deferred** rule (one whose match verdict depends on events
not yet seen — predicates, value tests) matches an element does the
engine open a *hole* in the output queue: the subtree is recorded into
the hole while downstream events after it keep streaming out; when the
verdicts arrive, the hole resolves to its rewritten form and the queue
drains.  Holes nest (a deferred match inside a deferred match) and
resolve independently.
"""

from __future__ import annotations

import io
from collections import deque
from typing import Callable, Iterable, Sequence

from repro.checkpoint import read_envelope, restoring
from repro.errors import CheckpointError, TransformError
from repro.stream.events import (
    Characters,
    EndElement,
    Event,
    EventHandler,
    StartElement,
)
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.writer import DEFAULT_WRITER_CHUNK, IncrementalXmlWriter
from repro.transform.base import (
    TRANSFORM_SNAPSHOT_VERSION,
    StreamTransform,
    pack_event,
    pack_events,
    unpack_event,
    unpack_events,
)

_ACTIONS = frozenset({"drop", "replace", "rename", "wrap", "callback",
                      "extract"})


class RewriteRule:
    """One ``match`` → ``action`` rewrite rule.

    Use the module-level factories (:func:`drop`, :func:`replace`,
    :func:`rename`, :func:`wrap`, :func:`callback`, :func:`extract`) for
    readable rule lists.

    Actions:

    ``drop``
        The matched subtree produces no output.
    ``replace``
        The matched subtree is replaced by a fixed XML fragment
        (``replacement``: XML text or a pre-built event sequence).
    ``rename``
        The matched element's tag becomes ``to``; attributes and content
        pass through (content stays matchable).
    ``wrap``
        The matched subtree is enclosed in a new ``wrapper`` element
        (with optional ``wrapper_attrs``); content stays matchable.
    ``callback``
        ``fn(events) -> events`` receives the matched subtree as a
        rebased event list and returns the events to emit instead
        (buffered: the whole subtree is held until its verdict).
    ``extract``
        The matched subtree is routed to ``fn`` (an
        :class:`~repro.stream.events.EventHandler` receiving a rebased,
        well-formed fragment stream) and removed from the main output —
        the splitting primitive of :mod:`repro.transform.combinators`.
    """

    __slots__ = ("query", "source", "action", "to", "wrapper",
                 "wrapper_attrs", "replacement", "fn")

    def __init__(
        self,
        match,
        action: str,
        *,
        replacement=None,
        to: str | None = None,
        wrapper: str | None = None,
        wrapper_attrs=None,
        fn=None,
    ):
        if action not in _ACTIONS:
            raise TransformError(
                f"unknown rewrite action {action!r} "
                f"(expected one of {sorted(_ACTIONS)})"
            )
        self.query = match
        self.source = match.source if hasattr(match, "source") else str(match)
        self.action = action
        self.to = to
        self.wrapper = wrapper
        self.wrapper_attrs = dict(wrapper_attrs) if wrapper_attrs else {}
        self.fn = fn
        self.replacement: tuple | None = None
        if action == "replace":
            if replacement is None:
                raise TransformError("replace rule needs a replacement")
            if isinstance(replacement, str):
                from repro.errors import XmlSyntaxError
                from repro.stream.tokenizer import parse_string

                try:
                    self.replacement = tuple(
                        parse_string(replacement, skip_whitespace=False)
                    )
                except XmlSyntaxError as exc:
                    raise TransformError(
                        f"replace rule for {self.source!r} has malformed "
                        f"replacement XML: {exc}"
                    ) from exc
            else:
                self.replacement = tuple(replacement)
        elif action == "rename":
            if not to:
                raise TransformError("rename rule needs a target tag")
        elif action == "wrap":
            if not wrapper:
                raise TransformError("wrap rule needs a wrapper tag")
        elif action in ("callback", "extract") and fn is None:
            raise TransformError(f"{action} rule needs a function/handler")

    def spec(self) -> dict:
        """JSON-serializable rule description (snapshot payload)."""
        return {
            "match": self.source,
            "action": self.action,
            "to": self.to,
            "wrapper": self.wrapper,
            "wrapper_attrs": dict(self.wrapper_attrs),
            "replacement": (pack_events(self.replacement)
                            if self.replacement is not None else None),
        }

    @classmethod
    def from_spec(cls, spec: dict, fn=None) -> "RewriteRule":
        action = spec["action"]
        if action in ("callback", "extract") and fn is None:
            raise CheckpointError(
                f"{action} rule for {spec['match']!r} needs its function "
                "re-supplied via callbacks= on restore"
            )
        rule = cls.__new__(cls)
        rule.query = spec["match"]
        rule.source = spec["match"]
        rule.action = action
        rule.to = spec.get("to")
        rule.wrapper = spec.get("wrapper")
        rule.wrapper_attrs = dict(spec.get("wrapper_attrs") or {})
        rule.fn = fn
        packed = spec.get("replacement")
        rule.replacement = (tuple(unpack_events(packed))
                           if packed is not None else None)
        return rule


def drop(match) -> RewriteRule:
    """Remove every match of ``match`` from the stream."""
    return RewriteRule(match, "drop")


def replace(match, replacement) -> RewriteRule:
    """Replace every match with a fixed XML fragment."""
    return RewriteRule(match, "replace", replacement=replacement)


def rename(match, to: str) -> RewriteRule:
    """Rename every matched element to ``to`` (content passes through)."""
    return RewriteRule(match, "rename", to=to)


def wrap(match, wrapper: str, **wrapper_attrs) -> RewriteRule:
    """Enclose every match in a new ``wrapper`` element."""
    return RewriteRule(match, "wrap", wrapper=wrapper,
                       wrapper_attrs=wrapper_attrs)


def callback(match, fn) -> RewriteRule:
    """Rewrite every matched subtree through ``fn(events) -> events``."""
    return RewriteRule(match, "callback", fn=fn)


def extract(match, handler) -> RewriteRule:
    """Route every matched subtree to ``handler``; drop it from output."""
    return RewriteRule(match, "extract", fn=handler)


class _Hole:
    """A pending region of the output queue: a subtree whose rewrite
    cannot be decided yet.

    ``pending`` maps each deferred rule index that matched the element to
    its verdict status (``"open"``/``"yes"``/``"no"``); ``fallback`` is
    the best (lowest) *immediate* rule that also matched — it wins if
    every lower-indexed deferred rule turns out "no".  ``resolution`` is
    set when decided: ``("literal", events)`` substitutes the region
    outright; ``("transparent", prefix, suffix)`` keeps the recorded
    items (possibly containing further holes) between new boundaries.
    """

    __slots__ = ("items", "pending", "fallback", "node_id", "level",
                 "state", "parent", "resolution", "keys", "await_cb",
                 "winner")

    def __init__(self, node_id: int, level: int, pending: dict,
                 fallback: int | None, parent: "_Hole | None"):
        self.items: list = []
        self.pending = pending
        self.fallback = fallback
        self.node_id = node_id
        self.level = level
        self.state = "recording"  # recording | closed | resolved
        self.parent = parent
        self.resolution: tuple | None = None
        #: (rule_index, node_id) verdict keys registered for this hole.
        self.keys: list[tuple[int, int]] = [
            (index, node_id) for index in pending
        ]
        #: A callback/extract winner waiting for inner holes to resolve.
        self.await_cb = False
        self.winner: int | None = None


class RewriteEngine(StreamTransform):
    """Apply ordered rewrite rules to a stream, emitting transformed XML.

    ``output`` is an :class:`~repro.stream.events.EventHandler` receiving
    the transformed, re-normalized event stream; without one the engine
    serializes through an :class:`IncrementalXmlWriter` — to ``on_chunk``
    when given, else collected for :meth:`result`.
    """

    def __init__(
        self,
        rules: Sequence[RewriteRule],
        output: EventHandler | None = None,
        *,
        on_chunk: "Callable[[str], None] | None" = None,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic=None,
        limits: ResourceLimits | None = None,
        query_limits: ResourceLimits | None = None,
        metrics=None,
    ):
        super().__init__(policy=policy, on_diagnostic=on_diagnostic,
                         limits=limits, metrics=metrics)
        if not rules:
            raise TransformError("a rewrite engine needs at least one rule")
        self.rules = list(rules)
        self._query_limits = query_limits
        self._writer: IncrementalXmlWriter | None = None
        if output is None:
            self._writer = IncrementalXmlWriter(on_chunk,
                                                chunk_size=chunk_size)
            self._terminal = self._writer
        else:
            self._terminal = output
        self._immediate: list[bool] = []
        for index, rule in enumerate(self.rules):
            self._immediate.append(
                self._register(f"rule{index}", rule.query,
                               limits=query_limits)
            )
        #: Output queue: events and unresolved holes, document order.
        self._queue: deque = deque()
        #: Recording holes, outermost first (append target is the last).
        self._stack: list[_Hole] = []
        #: Open immediate regions: (kind, level, data) — LIFO by level.
        self._regions: list[tuple] = []
        #: Root level of a subtree being skipped (drop/replace), or None.
        self._skipping: int | None = None
        #: (rule_index, node_id) → hole awaiting that verdict.
        self._hole_keys: dict[tuple[int, int], _Hole] = {}
        self._out_depth = 0
        self._out_id = 0
        self.events_out = 0
        self.rules_fired: list[int] = [0] * len(self.rules)
        if metrics is not None:
            self._bind_metrics(metrics)

    # -- observability -----------------------------------------------------

    def _bind_metrics(self, metrics) -> None:
        self._m_fired = metrics.counter(
            "repro_transform_rules_fired_total",
            "Rewrite rule applications, per rule (by match expression).",
        )
        self._m_out = metrics.counter(
            "repro_transform_output_events_total",
            "Events emitted by the rewrite engine after transformation.",
        )
        self._m_rewritten = metrics.counter(
            "repro_transform_output_bytes_total",
            "Serialized characters written by the rewrite engine.",
        )
        self._m_events = metrics.counter(
            "repro_transform_events_total",
            "Input events processed by the transform layer.",
        )
        metrics.add_collector(self._sync_metrics)

    def _sync_metrics(self) -> None:
        for index, count in enumerate(self.rules_fired):
            self._m_fired.set(count, rule=self.rules[index].source)
        self._m_out.set(self.events_out)
        if self._writer is not None:
            self._m_rewritten.set(self._writer.bytes_written)
        self._m_events.set(self.events_in)

    def interest(self) -> tuple[frozenset, bool, bool]:
        """A rewrite passes unmatched events through: it needs them all."""
        return frozenset(), True, True

    @property
    def active(self) -> bool:
        return True

    # -- event handling ----------------------------------------------------

    def start_element(self, tag, level, node_id, attributes) -> None:
        created = self._feed_start(tag, level, node_id, attributes)
        if self._skipping is not None:
            return
        if not created:
            self._append(StartElement(tag, level, node_id,
                                      dict(attributes)))
            self._drain()
            return
        matched = sorted(int(name[4:]) for name in created)
        immediates = [i for i in matched if self._immediate[i]]
        best_immediate = immediates[0] if immediates else None
        deferred = [
            i for i in matched
            if not self._immediate[i]
            and (best_immediate is None or i < best_immediate)
        ]
        if deferred or (best_immediate is not None and
                        self.rules[best_immediate].action in
                        ("callback", "extract")):
            self._open_hole(tag, level, node_id, attributes, deferred,
                            best_immediate)
            return
        # The lowest matching rule is immediate and streamable: apply now.
        self._apply_immediate(best_immediate, tag, level, node_id,
                              attributes)
        self._drain()

    def characters(self, text, level) -> None:
        self._feed_chars(text, level)
        if self._skipping is not None:
            return
        self._append(Characters(text, level))
        self._drain()

    def end_element(self, tag, level) -> None:
        verdicts = self._feed_end(tag, level)
        if self._skipping is not None:
            if level == self._skipping:
                self._skipping = None
        elif self._regions and self._regions[-1][1] == level:
            kind, _, data = self._regions.pop()
            if kind == "rename":
                self._append(EndElement(data, level))
            elif kind == "wrap":
                self._append(EndElement(tag, level))
                self._append(EndElement(data, level))
            else:  # hole
                hole: _Hole = data
                hole.items.append(EndElement(tag, level))
                hole.state = "closed"
                self._stack.pop()
                if not hole.pending:
                    # Only an immediate callback/extract fallback: decided.
                    self._resolve(hole)
        else:
            self._append(EndElement(tag, level))
        if verdicts:
            self._process_verdicts(verdicts)
        self._drain()

    # -- matching ----------------------------------------------------------

    def _apply_immediate(self, index, tag, level, node_id,
                         attributes) -> None:
        rule = self.rules[index]
        self.rules_fired[index] += 1
        action = rule.action
        if action == "drop":
            self._skipping = level
        elif action == "replace":
            for event in rule.replacement:
                self._append(event)
            self._skipping = level
        elif action == "rename":
            self._append(StartElement(rule.to, level, node_id,
                                      dict(attributes)))
            self._regions.append(("rename", level, rule.to))
        else:  # wrap
            self._append(StartElement(rule.wrapper, level, 0,
                                      dict(rule.wrapper_attrs)))
            self._append(StartElement(tag, level, node_id,
                                      dict(attributes)))
            self._regions.append(("wrap", level, rule.wrapper))

    def _open_hole(self, tag, level, node_id, attributes, deferred,
                   fallback) -> None:
        pending = {index: "open" for index in deferred}
        parent = self._stack[-1] if self._stack else None
        hole = _Hole(node_id, level, pending, fallback, parent)
        self._append(hole)
        self._stack.append(hole)
        self._regions.append(("hole", level, hole))
        for key in hole.keys:
            self._hole_keys[key] = hole
        hole.items.append(StartElement(tag, level, node_id,
                                       dict(attributes)))

    def _process_verdicts(self, verdicts) -> None:
        for kind, name, node_id in verdicts:
            index = int(name[4:])
            hole = self._hole_keys.pop((index, node_id), None)
            if hole is None:
                # Matches inside dropped subtrees, or rules outranked at
                # hole creation: no hole was registered — ignore.
                continue
            hole.pending[index] = "yes" if kind == "emit" else "no"
            self._resolve(hole)

    # -- hole resolution ---------------------------------------------------

    def _resolve(self, hole: _Hole) -> None:
        if hole.state != "closed":
            return
        winner = None
        for index in sorted(hole.pending):
            status = hole.pending[index]
            if status == "open":
                return  # a higher-priority rule is still undecided
            if status == "yes":
                winner = index
                break
        if winner is None:
            winner = hole.fallback
        self._finish_hole(hole, winner)

    def _finish_hole(self, hole: _Hole, winner: int | None) -> None:
        hole.winner = winner
        rule = self.rules[winner] if winner is not None else None
        action = rule.action if rule is not None else None
        if action in ("callback", "extract"):
            if _has_open_inner(hole):
                # The subtree must be delivered whole: wait for the inner
                # holes, then re-run (triggered from their resolution).
                hole.await_cb = True
                return
            events = _flatten(hole)
            if action == "callback":
                out = list(rule.fn(list(events)))
                _check_nesting(out, rule.source)
                hole.resolution = ("literal", tuple(out), ())
            else:
                _deliver_fragment(rule.fn, events, hole.level)
                hole.resolution = ("literal", (), ())
        elif action == "drop":
            self._discard_inner(hole)
            hole.resolution = ("literal", (), ())
        elif action == "replace":
            self._discard_inner(hole)
            hole.resolution = ("literal", rule.replacement, ())
        elif action == "rename":
            first = hole.items[0]
            hole.items[0] = StartElement(rule.to, first.level, first.node_id,
                                         first.attributes)
            last = hole.items[-1]
            hole.items[-1] = EndElement(rule.to, last.level)
            hole.resolution = ("transparent", (), ())
        elif action == "wrap":
            hole.resolution = (
                "transparent",
                (StartElement(rule.wrapper, hole.level, 0,
                              dict(rule.wrapper_attrs)),),
                (EndElement(rule.wrapper, hole.level),),
            )
        else:  # no rule won: the subtree passes through unchanged
            hole.resolution = ("transparent", (), ())
        hole.state = "resolved"
        hole.await_cb = False
        if winner is not None:
            self.rules_fired[winner] += 1
        parent = hole.parent
        if parent is not None and parent.await_cb:
            self._finish_hole(parent, parent.winner)

    def _discard_inner(self, hole: _Hole) -> None:
        """Unregister verdict keys of holes buried in a dropped region."""
        for item in hole.items:
            if isinstance(item, _Hole):
                for key in item.keys:
                    self._hole_keys.pop(key, None)
                self._discard_inner(item)

    # -- output ------------------------------------------------------------

    def _append(self, item) -> None:
        if self._stack:
            self._stack[-1].items.append(item)
        else:
            self._queue.append(item)

    def _drain(self) -> None:
        queue = self._queue
        while queue:
            item = queue[0]
            if isinstance(item, _Hole):
                if item.state != "resolved":
                    return
                queue.popleft()
                kind, first, second = item.resolution
                if kind == "literal":
                    if first:
                        queue.extendleft(reversed(first))
                else:
                    expansion = list(first)
                    expansion.extend(item.items)
                    expansion.extend(second)
                    if expansion:
                        queue.extendleft(reversed(expansion))
                continue
            queue.popleft()
            self._emit_out(item)

    def _emit_out(self, event) -> None:
        terminal = self._terminal
        cls = event.__class__
        if cls is StartElement:
            self._out_depth += 1
            self._out_id += 1
            terminal.start_element(event.tag, self._out_depth, self._out_id,
                                   event.attributes)
        elif cls is EndElement:
            terminal.end_element(event.tag, self._out_depth)
            self._out_depth -= 1
        else:
            terminal.characters(event.text, self._out_depth)
        self.events_out += 1

    def close(self):
        """Finish the stream; return the transformed text (collect mode)."""
        self._close_text()
        self._drain()
        if self._queue or self._stack:
            raise TransformError(
                "rewrite closed with unresolved regions: input truncated "
                "mid-subtree"
            )
        if self._writer is not None:
            self._writer.close()
            if self._writer.collecting:
                return self.result()
            return None
        close_out = getattr(self._terminal, "close", None)
        if close_out is not None:
            close_out()
        return None

    def result(self) -> str:
        """Transformed document text (collect mode only)."""
        if self._writer is None:
            raise ValueError("result() requires the built-in writer "
                             "(no output handler)")
        return self._writer.getvalue()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the rewrite mid-stream, holes and regions included."""
        stack_ids = {id(hole): index
                     for index, hole in enumerate(self._stack)}
        regions = []
        for kind, level, data in self._regions:
            if kind == "hole":
                regions.append([kind, level, stack_ids[id(data)]])
            else:
                regions.append([kind, level, data])
        return {
            "version": TRANSFORM_SNAPSHOT_VERSION,
            "kind": "rewrite",
            "rules": [rule.spec() for rule in self.rules],
            "base": self._base_snapshot(),
            "queue": [self._pack_item(item) for item in self._queue],
            "regions": regions,
            "skipping": self._skipping,
            "out_depth": self._out_depth,
            "out_id": self._out_id,
            "events_out": self.events_out,
            "rules_fired": list(self.rules_fired),
            "writer": (self._writer.snapshot()
                       if self._writer is not None else None),
        }

    def _pack_item(self, item) -> list:
        if not isinstance(item, _Hole):
            return pack_event(item)
        return ["h", {
            "pending": {str(k): v for k, v in item.pending.items()},
            "fallback": item.fallback,
            "node_id": item.node_id,
            "level": item.level,
            "state": item.state,
            "await_cb": item.await_cb,
            "winner": item.winner,
            "resolution": (
                None if item.resolution is None else [
                    item.resolution[0],
                    pack_events(item.resolution[1]),
                    pack_events(item.resolution[2]),
                ]
            ),
            "items": [self._pack_item(inner) for inner in item.items],
        }]

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        output: EventHandler | None = None,
        *,
        on_chunk=None,
        callbacks=None,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic=None,
        limits: ResourceLimits | None = None,
        query_limits: ResourceLimits | None = None,
        metrics=None,
    ) -> "RewriteEngine":
        """Rebuild a rewrite engine from :meth:`snapshot`.

        ``callbacks`` maps rule index → function/handler for
        ``callback``/``extract`` rules (functions do not serialize).
        """
        snapshot = read_envelope(
            snapshot, "rewrite snapshot", TRANSFORM_SNAPSHOT_VERSION,
            kind="rewrite",
            required=("rules", "base", "queue", "regions", "skipping",
                      "out_depth", "out_id", "events_out", "rules_fired",
                      "writer"),
        )
        callbacks = callbacks or {}
        with restoring("rewrite snapshot"):
            rules = [
                RewriteRule.from_spec(spec, fn=callbacks.get(index))
                for index, spec in enumerate(snapshot["rules"])
            ]
            engine = cls(
                rules,
                output,
                on_chunk=on_chunk,
                chunk_size=chunk_size,
                policy=policy,
                on_diagnostic=on_diagnostic,
                limits=limits,
                query_limits=query_limits,
                metrics=metrics,
            )
            engine._restore_base(
                snapshot["base"],
                [f"rule{index}" for index in range(len(rules))],
            )
            engine._queue = deque(
                engine._unpack_item(item, None) for item in snapshot["queue"]
            )
            # Recording holes form a chain: the last recording hole at
            # each nesting depth is the live append target.
            engine._stack = []
            container: Iterable = engine._queue
            while True:
                recording = None
                for item in container:
                    if isinstance(item, _Hole) and item.state == "recording":
                        recording = item
                container = recording.items if recording is not None else None
                if recording is None:
                    break
                engine._stack.append(recording)
            engine._regions = []
            for kind, level, data in snapshot["regions"]:
                if kind == "hole":
                    engine._regions.append(
                        (kind, int(level), engine._stack[int(data)])
                    )
                else:
                    engine._regions.append((kind, int(level), data))
            engine._skipping = snapshot["skipping"]
            engine._out_depth = int(snapshot["out_depth"])
            engine._out_id = int(snapshot["out_id"])
            engine.events_out = int(snapshot["events_out"])
            engine.rules_fired = [int(v) for v in snapshot["rules_fired"]]
            if snapshot["writer"] is not None and output is None:
                engine._writer = IncrementalXmlWriter.restore(
                    snapshot["writer"], on_chunk, chunk_size=chunk_size
                )
                engine._terminal = engine._writer
        return engine

    def _unpack_item(self, payload: list, parent: "_Hole | None"):
        if payload[0] != "h":
            return unpack_event(payload)
        data = payload[1]
        hole = _Hole(
            int(data["node_id"]),
            int(data["level"]),
            {int(k): v for k, v in data["pending"].items()},
            data["fallback"],
            parent,
        )
        hole.state = data["state"]
        hole.await_cb = bool(data["await_cb"])
        hole.winner = data["winner"]
        if data["resolution"] is not None:
            kind, first, second = data["resolution"]
            hole.resolution = (
                kind,
                tuple(unpack_events(first)),
                tuple(unpack_events(second)),
            )
        hole.items = [self._unpack_item(item, hole)
                      for item in data["items"]]
        if hole.state != "resolved":
            for key in hole.keys:
                if hole.pending[key[0]] == "open":
                    self._hole_keys[key] = hole
        return hole


def _has_open_inner(hole: _Hole) -> bool:
    for item in hole.items:
        if isinstance(item, _Hole):
            if item.state != "resolved" or _has_open_inner(item):
                return True
    return False


def _flatten(hole: _Hole) -> list[Event]:
    out: list[Event] = []
    _flatten_items(hole.items, out)
    return out


def _flatten_items(items, out) -> None:
    for item in items:
        if isinstance(item, _Hole):
            kind = item.resolution[0]
            if kind == "literal":
                out.extend(item.resolution[1])
            else:
                out.extend(item.resolution[1])
                _flatten_items(item.items, out)
                out.extend(item.resolution[2])
        else:
            out.append(item)


def _check_nesting(events, source: str) -> None:
    depth = 0
    for event in events:
        cls = event.__class__
        if cls is StartElement:
            depth += 1
        elif cls is EndElement:
            depth -= 1
            if depth < 0:
                break
    if depth != 0:
        raise TransformError(
            f"callback for rule {source!r} returned an ill-nested "
            "event sequence"
        )


def _deliver_fragment(handler, events, base_level: int) -> None:
    """Push a recorded subtree to ``handler`` rebased as a fragment."""
    depth = 0
    next_id = 0
    for event in events:
        cls = event.__class__
        if cls is StartElement:
            depth += 1
            next_id += 1
            handler.start_element(event.tag, depth, next_id,
                                  event.attributes)
        elif cls is EndElement:
            handler.end_element(event.tag, depth)
            depth -= 1
        else:
            handler.characters(event.text, depth)


def rewrite_string(xml: str, rules: Sequence[RewriteRule], **kwargs) -> str:
    """One-shot convenience: transform ``xml`` text, return the result."""
    engine = RewriteEngine(rules, **kwargs)
    return engine.evaluate(io.StringIO(xml))
