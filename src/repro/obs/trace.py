"""A lightweight span tracer with Chrome ``trace_event`` JSON export.

:class:`Tracer` records begin/end span pairs (and instant events) with
monotonic timestamps.  The recorded timeline serializes to the Chrome
``trace_event`` format — load the dumped file in ``about:tracing`` or
`Perfetto <https://ui.perfetto.dev>`__ to see where stream time goes.

The stats runner (:mod:`repro.obs.stats`) emits one ``chunk`` span per
fed chunk with nested ``parse`` → ``route+dispatch`` → ``emit`` stage
spans.  The tracer itself is engine-agnostic: wrap any region of
interest in :meth:`span`.

Example::

    from repro.obs.trace import Tracer

    tracer = Tracer()
    with tracer.span("parse", chunk=3):
        events = list(tokenizer.feed(chunk))
    tracer.dump("trace.json")           # open in about:tracing
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable

__all__ = ["Tracer"]


class Tracer:
    """Records a timeline of named spans with monotonic timestamps.

    Spans nest: :meth:`begin` / :meth:`end` maintain a stack, and the
    :meth:`span` context manager is the usual way to balance them.
    Timestamps are microseconds relative to tracer construction, taken
    from ``time.monotonic`` (injectable for tests via ``clock``).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._origin = clock()
        self._stack: list[str] = []
        #: Recorded trace events (Chrome ``trace_event`` dicts), in order.
        self.events: list[dict] = []

    # -- recording -----------------------------------------------------

    def _timestamp_us(self) -> int:
        return int((self._clock() - self._origin) * 1_000_000)

    def begin(self, name: str, **args) -> None:
        """Open a span; pair with :meth:`end` (or use :meth:`span`)."""
        self._stack.append(name)
        event = {
            "name": name,
            "cat": "repro",
            "ph": "B",
            "ts": self._timestamp_us(),
            "pid": 1,
            "tid": 1,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def end(self, **args) -> None:
        """Close the innermost open span."""
        if not self._stack:
            raise ValueError("Tracer.end() without a matching begin()")
        name = self._stack.pop()
        event = {
            "name": name,
            "cat": "repro",
            "ph": "E",
            "ts": self._timestamp_us(),
            "pid": 1,
            "tid": 1,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    @contextmanager
    def span(self, name: str, **args):
        """Context manager recording one balanced begin/end pair."""
        self.begin(name, **args)
        try:
            yield self
        finally:
            self.end()

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker."""
        event = {
            "name": name,
            "cat": "repro",
            "ph": "i",
            "ts": self._timestamp_us(),
            "pid": 1,
            "tid": 1,
            "s": "t",  # thread-scoped instant
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # -- introspection -------------------------------------------------

    @property
    def open_spans(self) -> "list[str]":
        """Names of spans begun but not yet ended (outermost first)."""
        return list(self._stack)

    def durations(self, name: str) -> "list[float]":
        """Wall seconds of every completed span called ``name``.

        Matches B/E pairs by nesting order; useful for assertions and
        quick summaries without exporting the whole trace.
        """
        out: list[float] = []
        stack: list[tuple[str, int]] = []
        for event in self.events:
            if event["ph"] == "B":
                stack.append((event["name"], event["ts"]))
            elif event["ph"] == "E" and stack:
                begun_name, begun_ts = stack.pop()
                if begun_name == name:
                    out.append((event["ts"] - begun_ts) / 1_000_000)
        return out

    # -- export --------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The timeline as a Chrome ``trace_event`` document.

        The returned dict is JSON-serializable and loads directly in
        ``about:tracing`` / Perfetto.  Unclosed spans are left as bare
        ``B`` events (the viewers render them as running to the end).
        """
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }

    def dump(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)
            handle.write("\n")
