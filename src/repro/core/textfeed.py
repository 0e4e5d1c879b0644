"""The one text front door shared by every streaming face.

:class:`~repro.core.processor.XPathStream`,
:class:`~repro.multiq.engine.MultiQueryEngine` and
:class:`~repro.transform.base.StreamTransform` all turn raw XML text into
handler callbacks the same way, and :class:`TextFeed` is that way,
written once.  It owns the incremental tokenizer:

* building it from the face's recovery policy, diagnostic callback,
  resource limits and metrics registry (the tokenizer itself parses
  with Expat under the strict policy);
* feeding it chunks (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`);
* closing it, which may synthesize end events under a lenient policy;
* splitting :meth:`evaluate` sources into text and pre-built events;
* carrying it through the face's snapshot under the ``"tokenizer"`` key,
  and refusing a restored one whose next node id is not above every id
  the face's current document holds (:meth:`_held_ids`).

A face supplies only the handler the text drives (:meth:`_text_handler`),
its events path (``feed_events``) and its results (``close``).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import CheckpointError
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.stream.tokenizer import XmlTokenizer, split_source


class TextFeed:
    """Incremental text parsing into one handler, shared by the faces."""

    def __init__(
        self,
        *,
        policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
        on_diagnostic: Callable[[StreamDiagnostic], None] | None = None,
        limits: ResourceLimits | None = None,
        metrics=None,
    ):
        self._policy = RecoveryPolicy.coerce(policy)
        self._on_diagnostic = on_diagnostic
        self._limits = limits
        self._metrics = metrics
        self._tokenizer: XmlTokenizer | None = None

    def _text_handler(self):
        """The :class:`~repro.stream.events.EventHandler` text drives.

        Faces that are handlers themselves keep this default.
        """
        return self

    def feed_text(self, chunk: str) -> None:
        """Push a chunk of raw XML text (incremental parsing).

        The tokenizer drives the handler's callbacks directly.  A
        snapshot between chunks captures the mid-parse tokenizer.
        """
        tokenizer = self._tokenizer
        if tokenizer is None:
            tokenizer = self._tokenizer = XmlTokenizer(
                policy=self._policy,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
        tokenizer.feed_into(chunk, self._text_handler())

    #: Former name of :meth:`feed_text`, kept for callers that still use it.
    feed_text_push = feed_text

    def _close_text(self) -> None:
        """Finish the text feed, if one is open.

        Under a lenient policy the tokenizer may synthesize end events
        for a truncated document here; they reach the handler normally.
        """
        if self._tokenizer is not None:
            self._tokenizer.close_into(self._text_handler())
            self._drop_tokenizer()

    def _drop_tokenizer(self) -> None:
        """Forget the tokenizer: its document is finished or abandoned."""
        self._tokenizer = None

    def evaluate(self, source):
        """One-shot: evaluate ``source`` in one pass and :meth:`close`.

        ``source`` may be XML text, a path, a file object, chunk
        iterables, or an event stream.  Text runs through
        :meth:`feed_text`; pre-built events go through ``feed_events``.
        Returns what ``close`` returns.
        """
        chunks, events = split_source(source)
        self._drop_tokenizer()
        if chunks is None:
            self.feed_events(events)
        else:
            for chunk in chunks:
                self.feed_text(chunk)
        return self.close()

    # -- checkpoint / resume ------------------------------------------------

    def _tokenizer_snapshot(self) -> dict | None:
        """The ``"tokenizer"`` snapshot value: the mid-parse state, if any."""
        if self._tokenizer is None:
            return None
        return self._tokenizer.snapshot()

    def _held_ids(self) -> Iterable[int]:
        """The ids of the current document the face holds (buffered
        candidates, sinks' open-epoch ids); none by default."""
        return ()

    def _restore_tokenizer(self, state: dict | None) -> None:
        """Resume the text feed from a ``"tokenizer"`` snapshot value
        (restored last: it numbers past :meth:`_held_ids`)."""
        if state is not None:
            tokenizer = XmlTokenizer.restore(
                state,
                on_diagnostic=self._on_diagnostic,
                limits=self._limits,
                metrics=self._metrics,
            )
            held = max(self._held_ids(), default=0)
            if held >= state["next_id"]:
                raise CheckpointError(f"tokenizer next_id {state['next_id']} is not above "
                                      f"id {held}, which the capture holds")
            self._tokenizer = tokenizer
