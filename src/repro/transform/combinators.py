"""Stream combinators: compose transforms over one tokenizer pass.

One parse, many consumers — the combinators arrange extractors and
rewriters behind a single :class:`~repro.stream.events.EventHandler`
face, so one scan of the input feeds them all:

* :func:`tee` — fan every event out to N branches, *skipping dead
  branches*: a branch only receives an event when its interest alphabet
  (the same per-machine analysis the multiq router uses,
  :func:`~repro.multiq.router.machine_alphabet`) or an open candidate
  subtree makes the event observable.  The skip ratio is exposed for the
  observability layer.
* :func:`split` — route each of several queries' matches to its own
  fragment callback (a tee of single-query extractors).
* :class:`FragmentMerger` / :func:`merge` — the inverse of extraction:
  wrap a sequence of well-formed fragments under one synthetic root,
  producing a single well-formed document.
* :func:`filter_stream` — keep or drop matching subtrees in one call
  (``mode="drop"`` is a one-rule rewrite; ``mode="keep"`` is extraction
  merged under a new root).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.stream.events import EventHandler
from repro.stream.recovery import RecoveryPolicy, ResourceLimits
from repro.stream.tokenizer import XmlTokenizer
from repro.stream.writer import (
    DEFAULT_WRITER_CHUNK,
    escape_attribute,
)
from repro.transform.extract import SubstreamExtractor


class _Branch:
    __slots__ = ("handler", "tags", "wants_all", "wants_text", "_active")

    def __init__(self, handler):
        self.handler = handler
        interest = getattr(handler, "interest", None)
        if interest is None:
            self.tags, self.wants_all, self.wants_text = frozenset(), True, True
        else:
            self.tags, self.wants_all, self.wants_text = interest()
        self._active = None if not hasattr(type(handler), "active") else True

    def active(self) -> bool:
        if self._active is None:
            return False
        return self.handler.active


class Tee(EventHandler):
    """Fan one event stream out to several branches, skipping dead ones.

    A branch is any :class:`EventHandler`; branches exposing
    ``interest()`` (router-shaped ``(tags, wants_all, wants_text)``) and
    ``active`` (currently buffering a candidate subtree) — both transform
    classes do — receive only the events they can observe:

    * start/end tags in the branch's alphabet (its machines dispatch on
      them),
    * every event while the branch is *active* (an open candidate's
      subtree content must be recorded),
    * character data when the branch's machines evaluate value tests.

    The filter is exactly the event set the branch's own router would
    deliver or its buffers would record, so teed evaluation is
    indistinguishable from feeding each branch the full stream.
    ``skipped``/``delivered`` count branch-deliveries for the dead-branch
    skip ratio.
    """

    def __init__(self, *branches):
        self._branches = [_Branch(handler) for handler in branches]
        self.delivered = 0
        self.skipped = 0

    @property
    def branches(self) -> list:
        return [branch.handler for branch in self._branches]

    @property
    def skip_ratio(self) -> float:
        total = self.delivered + self.skipped
        return self.skipped / total if total else 0.0

    def start_element(self, tag, level, node_id, attributes) -> None:
        for branch in self._branches:
            if branch.wants_all or tag in branch.tags or branch.active():
                branch.handler.start_element(tag, level, node_id, attributes)
                self.delivered += 1
            else:
                self.skipped += 1

    def characters(self, text, level) -> None:
        for branch in self._branches:
            if branch.wants_all or branch.wants_text or branch.active():
                branch.handler.characters(text, level)
                self.delivered += 1
            else:
                self.skipped += 1

    def end_element(self, tag, level) -> None:
        for branch in self._branches:
            if branch.wants_all or tag in branch.tags or branch.active():
                branch.handler.end_element(tag, level)
                self.delivered += 1
            else:
                self.skipped += 1

    def close(self) -> list:
        """Close every branch (in order); return their results."""
        results = []
        for branch in self._branches:
            close = getattr(branch.handler, "close", None)
            results.append(close() if close is not None else None)
        return results

    def feed_text(self, chunk: str, tokenizer: XmlTokenizer) -> None:
        """Convenience: parse ``chunk`` with ``tokenizer`` into the tee."""
        tokenizer.feed_into(chunk, self)


def tee(*branches) -> Tee:
    """Compose ``branches`` behind one handler over a single parse."""
    return Tee(*branches)


def split(
    routes: Mapping[str, object],
    on_fragment: "Callable[[str, int, str], None] | None" = None,
    *,
    chunk_size: int = DEFAULT_WRITER_CHUNK,
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    limits: ResourceLimits | None = None,
    metrics=None,
) -> Tee:
    """Route each query's matches to its own extractor over one pass.

    ``routes`` maps route name → query.  Returns a :class:`Tee` whose
    branches are single-query :class:`SubstreamExtractor` instances (in
    ``routes`` order), so each route's alphabet gates its deliveries —
    the dead-branch skipping the tentpole asks for.  Fragments arrive at
    ``on_fragment(route_name, node_id, text)`` or collect per extractor.
    """
    extractors = [
        SubstreamExtractor(
            {name: query},
            on_fragment=on_fragment,
            chunk_size=chunk_size,
            policy=policy,
            limits=limits,
            metrics=metrics,
        )
        for name, query in routes.items()
    ]
    return Tee(*extractors)


class FragmentMerger:
    """Merge well-formed fragments under one synthetic root element.

    The inverse of extraction: fragment *text* (already serialized — the
    writer guarantees well-formedness) is enclosed verbatim between the
    root's tags, producing one well-formed document.  Works incrementally
    (``on_chunk``) or collected (:meth:`result`).
    """

    def __init__(
        self,
        root: str = "results",
        attributes: Mapping[str, str] | None = None,
        on_chunk: "Callable[[str], None] | None" = None,
    ):
        self.root = root
        self._on_chunk = on_chunk
        self._parts: list[str] = []
        attrs = "".join(
            f' {name}="{escape_attribute(value)}"'
            for name, value in (attributes or {}).items()
        )
        self._open = f"<{root}{attrs}>"
        self._started = False
        self._closed = False
        self.count = 0

    def _write(self, text: str) -> None:
        if self._on_chunk is not None:
            self._on_chunk(text)
        else:
            self._parts.append(text)

    def add(self, fragment_text: str) -> None:
        """Append one serialized fragment under the root."""
        if self._closed:
            raise ValueError("merger already closed")
        if not self._started:
            self._write(self._open)
            self._started = True
        self._write(fragment_text)
        self.count += 1

    def close(self) -> str:
        """Seal the document; return the merged text (collect mode)."""
        if not self._closed:
            if not self._started:
                # No fragments: an empty, self-closed root.
                self._write(self._open[:-1] + "/>")
                self._started = True
            else:
                self._write(f"</{self.root}>")
            self._closed = True
        return "".join(self._parts)

    def result(self) -> str:
        return self.close()


def merge(
    fragments: Iterable[str],
    root: str = "results",
    attributes: Mapping[str, str] | None = None,
) -> str:
    """One-shot :class:`FragmentMerger`: merge ``fragments`` under
    ``root`` and return the document text."""
    merger = FragmentMerger(root, attributes)
    for fragment in fragments:
        merger.add(fragment)
    return merger.close()


def filter_stream(
    source,
    query,
    *,
    mode: str = "drop",
    root: str = "results",
    policy: "str | RecoveryPolicy" = RecoveryPolicy.STRICT,
    limits: ResourceLimits | None = None,
) -> str:
    """Keep or drop matching subtrees in one streaming pass.

    ``mode="drop"`` removes every match (a one-rule rewrite);
    ``mode="keep"`` extracts every match and merges the fragments under
    a fresh ``root`` element.  Returns the resulting document text.
    """
    if mode == "drop":
        from repro.transform.rewrite import RewriteEngine
        from repro.transform.rewrite import drop as drop_rule

        engine = RewriteEngine([drop_rule(query)], policy=policy,
                               limits=limits)
        return engine.evaluate(source)
    if mode != "keep":
        raise ValueError(f"unknown filter mode {mode!r} (drop|keep)")
    merger = FragmentMerger(root)
    extractor = SubstreamExtractor(
        query,
        on_fragment=lambda _name, _node_id, text: merger.add(text),
        policy=policy,
        limits=limits,
    )
    extractor.evaluate(source)
    return merger.close()
