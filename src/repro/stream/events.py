"""The modified-SAX event model of the paper (section 2).

XML data is modelled as a stream of events.  Relative to plain SAX, the
paper's *modified* SAX events additionally carry:

* ``level`` — the depth of the node in the XML tree (the document element
  is at level 1), and
* ``id`` — a unique identifier for the node; we use the node's pre-order
  position in the document, which is also what gives candidates a stable,
  comparable identity.

Three event kinds exist:

* :class:`StartElement` ``(tag, level, id, attributes)``
* :class:`Characters` ``(text, level)`` — text content at the current depth
* :class:`EndElement` ``(tag, level)``

Attribute support follows footnote 2 of the paper: the implementation
supports attributes as well as elements, so :class:`StartElement` carries
an attribute mapping.

Event objects are plain frozen dataclasses (``__slots__`` enabled) so that
streams of millions of events stay cheap; engines dispatch on the concrete
class rather than an enum tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from repro.errors import StreamStateError

#: Attribute mappings are plain string-to-string dictionaries.
Attributes = Mapping[str, str]

_EMPTY_ATTRIBUTES: dict[str, str] = {}


@dataclass(frozen=True, slots=True)
class StartElement:
    """``startElement(tag, level, id)`` of the paper, plus attributes."""

    tag: str
    level: int
    node_id: int
    attributes: Attributes = field(default_factory=dict)

    def __str__(self) -> str:
        attrs = "".join(f' {k}="{v}"' for k, v in self.attributes.items())
        return f"<{self.tag}{attrs}> (level={self.level}, id={self.node_id})"


@dataclass(frozen=True, slots=True)
class Characters:
    """A run of character data directly inside the current element."""

    text: str
    level: int

    def __str__(self) -> str:
        return f"chars({self.text!r}, level={self.level})"


@dataclass(frozen=True, slots=True)
class EndElement:
    """``endElement(tag, level)`` of the paper."""

    tag: str
    level: int

    def __str__(self) -> str:
        return f"</{self.tag}> (level={self.level})"


#: Any of the three event kinds.
Event = Union[StartElement, Characters, EndElement]

#: An event source is any iterable of events; engines accept this type.
EventStream = Iterable[Event]


class EventHandler:
    """The push-mode counterpart of :data:`EventStream`.

    The pull API materialises one frozen dataclass per event and threads
    it through a chain of generators; the push API instead drives these
    three callbacks directly from the scanner
    (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`), so the hot
    path allocates no event objects and suspends no generators.  The
    machines implement this protocol natively (``TwigM.as_handler()`` et
    al.), and any object with the same three methods works.

    ``attributes`` may be a shared empty mapping when the element carries
    none — handlers must treat it as read-only.  ``characters`` receives
    the element nesting depth as ``level`` for parity with
    :class:`Characters`; engines that do not need it may ignore it.

    The base class implements every callback as a no-op so subclasses
    override only what they consume.
    """

    def start_element(
        self, tag: str, level: int, node_id: int, attributes: Attributes
    ) -> None:
        """``startElement(tag, level, id)`` plus the attribute mapping."""

    def characters(self, text: str, level: int) -> None:
        """A coalesced run of character data at depth ``level``."""

    def end_element(self, tag: str, level: int) -> None:
        """``endElement(tag, level)``."""


def events_to_handler(events: EventStream, handler) -> None:
    """Drive ``handler`` callbacks from a pull-mode event stream.

    The adapter between the two worlds: anything that produces
    :data:`Event` objects (a pre-built list, a lenient-recovery replay, a
    checkpoint resume) can feed a push-mode consumer.
    """
    for event in events:
        cls = event.__class__
        if cls is StartElement:
            handler.start_element(event.tag, event.level, event.node_id, event.attributes)
        elif cls is EndElement:
            handler.end_element(event.tag, event.level)
        elif cls is Characters:
            handler.characters(event.text, event.level)
        else:  # subclasses / duck-typed events: fall back to isinstance
            if isinstance(event, StartElement):
                handler.start_element(event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, EndElement):
                handler.end_element(event.tag, event.level)
            else:
                handler.characters(event.text, event.level)


class EventCollector(EventHandler):
    """Rebuild :data:`Event` objects from push callbacks.

    The inverse of :func:`events_to_handler`: the tokenizer's pull view
    (:meth:`~repro.stream.tokenizer.XmlTokenizer.feed`) collects each
    batch with one, and differential tests use it to check that the
    fast-path scanner emits byte-identical streams to the reference
    tokenizer.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []

    def start_element(self, tag, level, node_id, attributes) -> None:
        self.events.append(StartElement(tag, level, node_id, dict(attributes)))

    def characters(self, text, level) -> None:
        self.events.append(Characters(text, level))

    def end_element(self, tag, level) -> None:
        self.events.append(EndElement(tag, level))


class CountingHandler(EventHandler):
    """Count push callbacks without storing anything.

    The tokenizer-only benchmark configuration: measures raw scan + push
    dispatch throughput with a constant-work consumer.
    """

    __slots__ = ("starts", "texts", "ends")

    def __init__(self) -> None:
        self.starts = 0
        self.texts = 0
        self.ends = 0

    @property
    def total(self) -> int:
        return self.starts + self.texts + self.ends

    def start_element(self, tag, level, node_id, attributes) -> None:
        self.starts += 1

    def characters(self, text, level) -> None:
        self.texts += 1

    def end_element(self, tag, level) -> None:
        self.ends += 1


def validate_events(events: EventStream, allow_empty: bool = False) -> Iterator[Event]:
    """Yield ``events`` unchanged while checking well-nesting invariants.

    Raises :class:`~repro.errors.StreamStateError` on the first violation:
    mismatched tags, wrong levels, characters outside the document, more
    than one document element, or an unterminated document.

    ``allow_empty`` tolerates a stream with no element at all — the
    legitimate output of a lenient recovery policy over input whose
    document element was destroyed (see
    :mod:`repro.stream.recovery`); everything that *is* emitted is still
    checked.

    This is a debugging/testing aid; the engines themselves assume valid
    streams and do not pay for these checks.
    """
    stack: list[tuple[str, int]] = []
    seen_root = False
    last_id = 0
    for event in events:
        if isinstance(event, StartElement):
            expected_level = len(stack) + 1
            if event.level != expected_level:
                raise StreamStateError(
                    f"start <{event.tag}> has level {event.level}, expected {expected_level}"
                )
            if not stack and seen_root:
                raise StreamStateError(
                    f"second document element <{event.tag}>: a document has exactly one root"
                )
            if event.node_id <= last_id:
                raise StreamStateError(
                    f"node id {event.node_id} for <{event.tag}> does not increase "
                    f"(previous id {last_id}); ids must follow document order"
                )
            last_id = event.node_id
            seen_root = True
            stack.append((event.tag, event.level))
        elif isinstance(event, EndElement):
            if not stack:
                raise StreamStateError(f"end </{event.tag}> without any open element")
            tag, level = stack.pop()
            if tag != event.tag or level != event.level:
                raise StreamStateError(
                    f"end </{event.tag}> (level {event.level}) does not match "
                    f"open <{tag}> (level {level})"
                )
        elif isinstance(event, Characters):
            if not stack:
                raise StreamStateError(f"character data {event.text!r} outside the document element")
            if event.level != len(stack):
                raise StreamStateError(
                    f"characters at level {event.level}, expected {len(stack)}"
                )
        else:  # pragma: no cover - defensive
            raise StreamStateError(f"unknown event object {event!r}")
        yield event
    if stack:
        raise StreamStateError(f"document ended with {len(stack)} unclosed element(s)")
    if not seen_root and not allow_empty:
        raise StreamStateError("empty stream: a document must contain one element")


def well_nested(events: EventStream, allow_empty: bool = True) -> bool:
    """True when ``events`` passes every :func:`validate_events` check.

    The boolean form of the validator, for assertions over streams that
    may legitimately be empty (fault-injection output under lenient
    recovery).
    """
    try:
        for _ in validate_events(events, allow_empty=allow_empty):
            pass
    except StreamStateError:
        return False
    return True


def document_depth(events: EventStream) -> int:
    """Return the maximum element depth observed in ``events``."""
    depth = 0
    for event in events:
        if isinstance(event, StartElement) and event.level > depth:
            depth = event.level
    return depth


def count_elements(events: EventStream) -> int:
    """Return the number of elements in ``events``."""
    return sum(1 for event in events if isinstance(event, StartElement))
