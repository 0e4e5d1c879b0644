"""XML serialization: events or trees back to text.

Used by the dataset generators (which build documents as event streams and
need files on disk), by the result sink when fragment output is requested
(footnote 3 of the paper: the implementation returns XML fragments), by
the transformation layer (:mod:`repro.transform`, through
:class:`IncrementalXmlWriter`), and by round-trip tests.

Escaping is round-trip exact: a parse of the serialized text yields the
original event stream byte-for-byte.  That forces two character
references beyond the usual ``& < > "`` set — ``\\r`` in character data
(XML end-of-line normalization would fold a literal one into ``\\n``)
and ``\\t``/``\\n``/``\\r`` in attribute values (attribute-value
normalization would fold literal ones into spaces).
"""

from __future__ import annotations

import io
from typing import IO, Callable, Iterable

from repro.checkpoint import BOOL, NAT, STR, Fields, Leaf, ListOf, Nullable, read_envelope
from repro.stream.document import Document, Element
from repro.stream.events import Characters, EndElement, Event, StartElement

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    "\r": "&#13;",
    '"': "&quot;",
    "\t": "&#9;",
    "\n": "&#10;",
}


def escape_text(text: str) -> str:
    """Escape character data for element content."""
    if not any(ch in text for ch in _TEXT_ESCAPES):
        return text
    for raw, escaped in _TEXT_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def escape_attribute(value: str) -> str:
    """Escape an attribute value for a double-quoted attribute."""
    if not any(ch in value for ch in _ATTR_ESCAPES):
        return value
    for raw, escaped in _ATTR_ESCAPES.items():
        value = value.replace(raw, escaped)
    return value


def write_events(events: Iterable[Event], out: IO[str], indent: str | None = None) -> None:
    """Serialize an event stream to ``out``.

    ``indent`` of e.g. ``"  "`` pretty-prints (safe only when text content
    is insignificant); ``None`` writes compact, text-faithful XML.
    """
    open_has_children: list[bool] = []
    pending_open: StartElement | None = None

    def flush_open(self_close: bool) -> None:
        nonlocal pending_open
        if pending_open is None:
            return
        event = pending_open
        pending_open = None
        if indent is not None:
            out.write("\n" + indent * (event.level - 1) if event.level > 1 else "")
        attrs = "".join(
            f' {name}="{escape_attribute(value)}"' for name, value in event.attributes.items()
        )
        out.write(f"<{event.tag}{attrs}/>" if self_close else f"<{event.tag}{attrs}>")

    for event in events:
        if isinstance(event, StartElement):
            flush_open(self_close=False)
            if open_has_children:
                open_has_children[-1] = True
            open_has_children.append(False)
            pending_open = event
        elif isinstance(event, Characters):
            flush_open(self_close=False)
            if open_has_children:
                open_has_children[-1] = True
            out.write(escape_text(event.text))
        elif isinstance(event, EndElement):
            had_children = open_has_children.pop()
            if pending_open is not None and not had_children:
                flush_open(self_close=True)
            else:
                flush_open(self_close=False)
                if indent is not None and had_children:
                    out.write("\n" + indent * (event.level - 1))
                out.write(f"</{event.tag}>")
    flush_open(self_close=False)


def events_to_string(events: Iterable[Event], indent: str | None = None) -> str:
    """Serialize an event stream to a string."""
    buffer = io.StringIO()
    write_events(events, buffer, indent=indent)
    return buffer.getvalue()


#: Version of the incremental-writer snapshot schema.
WRITER_SNAPSHOT_VERSION = 1
#: Its fields: per open element, whether it has children; the start tag
#: not yet closed; the staged text; the characters written.
_SNAPSHOT = Fields({
    "open": ListOf(BOOL),
    "pending": Nullable(Leaf("a start tag", lambda v: type(v) is str and v[:1] == "<")),
    "buffer": STR, "bytes_written": NAT,
}, attrs=("_open", "_pending", "bytes_written"), writes=("buffer",))

#: Default flush threshold of :class:`IncrementalXmlWriter` (characters).
DEFAULT_WRITER_CHUNK = 16384


class IncrementalXmlWriter:
    """Push-mode, chunked XML serialization — the streaming counterpart
    of :func:`write_events`.

    The writer implements the :class:`~repro.stream.events.EventHandler`
    protocol, so it terminates any push pipeline: the fused scanner, a
    :class:`~repro.multiq.engine.MultiQueryEngine` tee, or the
    transformation layer can drive it callback-by-callback with no event
    objects and no whole-document buffer.  Output accumulates in a small
    staging buffer and is handed to ``on_chunk`` whenever it crosses
    ``chunk_size`` (and on :meth:`flush`/:meth:`close`); with no
    ``on_chunk`` the text collects internally until :meth:`getvalue`.

    Output is compact (no indent) and byte-identical to
    ``write_events(events, out)`` over the same event sequence — a
    differential test pins that equivalence, so the two serializers
    cannot drift.

    The writer is checkpointable mid-document: :meth:`snapshot` first
    flushes staged text to the consumer, then captures the withheld open
    tag and the element stack, so a restored writer continues the same
    byte stream exactly.  That is what lets a fragment that is half-way
    out of a transform survive a snapshot/restore cycle
    (:mod:`repro.transform`).
    """

    __slots__ = (
        "_on_chunk", "_chunk_size", "_parts", "_staged",
        "_open", "_pending", "bytes_written",
    )

    def __init__(
        self,
        on_chunk: "Callable[[str], None] | None" = None,
        *,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
    ):
        self._on_chunk = on_chunk
        self._chunk_size = chunk_size
        self._parts: list[str] = []
        self._staged = 0
        self._open: list[bool] = []  # per open element: has it children?
        self._pending: str | None = None  # "<tag attrs", form undecided
        #: Characters emitted so far (staged text included).
        self.bytes_written = 0

    # -- EventHandler protocol -------------------------------------------

    def start_element(self, tag, level, node_id, attributes) -> None:
        self._commit_open()
        if self._open:
            self._open[-1] = True
        self._open.append(False)
        if attributes:
            attrs = "".join(
                f' {name}="{escape_attribute(value)}"'
                for name, value in attributes.items()
            )
            self._pending = f"<{tag}{attrs}"
        else:
            self._pending = f"<{tag}"

    def characters(self, text, level) -> None:
        self._commit_open()
        if self._open:
            self._open[-1] = True
        self._write(escape_text(text))

    def end_element(self, tag, level) -> None:
        had_children = self._open.pop()
        if self._pending is not None and not had_children:
            # The element held no content: self-close, skip the end tag.
            self._write(self._pending + "/>")
            self._pending = None
            return
        self._commit_open()
        self._write(f"</{tag}>")

    # -- output management ----------------------------------------------

    def _commit_open(self) -> None:
        """Any new output proves the pending element has content."""
        if self._pending is not None:
            self._write(self._pending + ">")
            self._pending = None

    def _write(self, text: str) -> None:
        self._parts.append(text)
        self._staged += len(text)
        self.bytes_written += len(text)
        if self._on_chunk is not None and self._staged >= self._chunk_size:
            self.flush()

    def flush(self) -> None:
        """Hand staged text to the consumer (no-op in collect mode)."""
        if self._on_chunk is None or not self._parts:
            return
        chunk = "".join(self._parts)
        self._parts.clear()
        self._staged = 0
        self._on_chunk(chunk)

    def close(self) -> None:
        """Finish the document: commit a trailing open tag and flush.

        A pending open tag at close means the stream was truncated; like
        :func:`write_events`, it is committed in open form (never
        self-closed) so the truncation stays visible.
        """
        self._commit_open()
        self.flush()

    def getvalue(self) -> str:
        """Collected text (collect mode only — no ``on_chunk``)."""
        if self._on_chunk is not None:
            raise ValueError("getvalue() is for collect mode; chunks were "
                             "delivered to on_chunk")
        self._commit_open()
        return "".join(self._parts)

    @property
    def collecting(self) -> bool:
        """True in collect mode (no ``on_chunk``; text kept for
        :meth:`getvalue`)."""
        return self._on_chunk is None

    @property
    def depth(self) -> int:
        """Currently open elements (0 between documents/fragments)."""
        return len(self._open)

    def reset(self) -> None:
        """Drop all state for a fresh document (collect buffer included)."""
        self._parts.clear()
        self._staged = 0
        self._open.clear()
        self._pending = None

    # -- checkpointing ---------------------------------------------------

    def snapshot(self) -> dict:
        """Capture mid-document serializer state (flushes staged text)."""
        self.flush()
        return {"version": WRITER_SNAPSHOT_VERSION, **_SNAPSHOT.capture(
            self, buffer="".join(self._parts) if self._on_chunk is None else "")}

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        on_chunk: "Callable[[str], None] | None" = None,
        *,
        chunk_size: int = DEFAULT_WRITER_CHUNK,
    ) -> "IncrementalXmlWriter":
        """Rebuild a writer from a :meth:`snapshot` capture."""
        snapshot = read_envelope(snapshot, "writer snapshot",
                                 WRITER_SNAPSHOT_VERSION, _SNAPSHOT)
        writer = cls(on_chunk, chunk_size=chunk_size)
        _SNAPSHOT.apply(writer, snapshot)
        buffer = snapshot["buffer"]
        if buffer:
            writer._parts.append(buffer)
            writer._staged = len(buffer)
        return writer


def element_to_string(element: Element) -> str:
    """Serialize one element subtree (an XML *fragment*) to a string."""
    from repro.stream.document import _element_events

    return events_to_string(_element_events(element, include_text=True))


def document_to_string(document: Document, indent: str | None = None) -> str:
    """Serialize a whole document to a string."""
    return events_to_string(document.to_events(), indent=indent)


def write_file(events: Iterable[Event], path, indent: str | None = None) -> None:
    """Serialize an event stream to a file at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        write_events(events, handle, indent=indent)
