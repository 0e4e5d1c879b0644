"""One reader for durable state: the typed capture schema.

Every versioned snapshot — stream, multiq, tokenizer, writer, extractor,
rewrite and serve-session — is read back through :func:`read_envelope`,
and every object in it (machine states, sinks, trackers, query and unit
entries, limits, store segment summaries) through a :class:`Fields`
spec, so this module says what a legal capture is (DESIGN.md §8).  A
blob is an object with exactly the expected ``version`` (and ``kind``);
required keys are present; unknown keys are rejected; optional keys —
ones some older release did not write — get their defaults; and each
value must satisfy its field's reader, or :class:`CheckpointError`
names its path.  The readers are leaves — :data:`NAT` (an int >= 0,
never a bool), :data:`INT` (signed, only where -1 means something),
:data:`BOOL`, :data:`STR`, :data:`SECONDS`, :func:`enum`, :data:`IDS`,
:data:`LABELS` and :data:`OBJECT` (a capture its own reader reads) —
and :class:`Nullable`, :class:`ListOf`, :class:`MapOf`, :class:`Tuple`
(positional), :class:`OneOf` and :class:`Fields`.  What a type cannot
say (stack counts against machine nodes, a DFA stack against its tags,
members against the registry) a restore checks inside
:func:`restoring`, which turns the errors it trips over into
:class:`CheckpointError` too.
"""

from __future__ import annotations

from contextlib import contextmanager
from copy import deepcopy
from typing import Callable, Iterator, Mapping

from repro.errors import CheckpointError, UnsupportedQueryError, XPathSyntaxError

__all__ = [
    "BOOL", "IDS", "INT", "LABELS", "NAT", "OBJECT", "SECONDS", "STR",
    "Fields", "Leaf", "ListOf", "MapOf", "Nullable", "OneOf", "Tuple",
    "enum", "read_envelope", "restoring",
]


def _malformed(where: str, expected: str, value) -> CheckpointError:
    return CheckpointError(f"malformed {where}: expected {expected}, got {value!r:.60}")


class Leaf:
    """A reader of the values ``test`` accepts; ``reader(value, where)``
    returns the value read or raises :class:`CheckpointError`."""

    def __init__(self, expected: str, test: Callable[[object], bool]):
        self.expected = expected
        self.test = test

    def __call__(self, value, where: str):
        if not self.test(value):
            raise _malformed(where, self.expected, value)
        return value


NAT = Leaf("a non-negative int", lambda v: type(v) is int and v >= 0)
INT = Leaf("an int", lambda v: type(v) is int)
BOOL = Leaf("a bool", lambda v: type(v) is bool)
STR = Leaf("a string", lambda v: type(v) is str)
SECONDS = Leaf("a non-negative number", lambda v: type(v) in (int, float) and v >= 0)
OBJECT = Leaf("an object", lambda v: type(v) is dict)


def enum(*values: str) -> Leaf:
    return Leaf(f"one of {', '.join(map(repr, values))}",
                lambda v: type(v) is str and v in values)


class Nullable:
    def __init__(self, inner):
        self.inner = inner

    def __call__(self, value, where: str):
        return None if value is None else self.inner(value, where)


class ListOf:
    """A list of at least ``least`` values, each read by ``item``."""

    def __init__(self, item, least: int = 0):
        self.item = item
        self.least = least

    def __call__(self, value, where: str) -> list:
        if type(value) is not list or len(value) < self.least:
            raise _malformed(where, f"a list of at least {self.least}", value)
        return [self.item(entry, f"{where}[{index}]") for index, entry in enumerate(value)]


class MapOf:
    """An object of at least ``least`` string keys (``keys``: only
    those), each value read by ``item``."""

    def __init__(self, item, keys: "tuple[str, ...] | None" = None, least: int = 0):
        self.item = item
        self.keys = keys
        self.least = least

    def __call__(self, value, where: str) -> dict:
        if type(value) is not dict or len(value) < self.least or any(
                type(key) is not str or self.keys is not None and key not in self.keys
                for key in value):
            raise _malformed(where, f"an object of at least {self.least} known keys", value)
        return {key: self.item(entry, f"{where}.{key}") for key, entry in value.items()}


class Tuple:
    """A list of exactly one value per reader in ``items``; read as that
    list, or as ``into(*values)``."""

    def __init__(self, *items, into: "Callable | None" = None):
        self.items = items
        self.into = into

    def __call__(self, value, where: str):
        if type(value) is not list or len(value) != len(self.items):
            raise _malformed(where, f"a list of {len(self.items)}", value)
        values = [item(entry, f"{where}[{index}]")
                  for index, (item, entry) in enumerate(zip(self.items, value))]
        return values if self.into is None else self.into(*values)


class OneOf:
    """The value as read by the first of ``choices`` that accepts it."""

    def __init__(self, *choices):
        self.choices = choices

    def __call__(self, value, where: str):
        for choice in self.choices[:-1]:
            try:
                return choice(value, where)
            except CheckpointError:
                pass
        return self.choices[-1](value, where)


class Fields:
    """An object: ``required`` keys (key → reader) and ``optional`` ones
    (key → ``(reader, default)``); any other key is refused, but for the
    ``envelope`` keys a call names (:func:`read_envelope` checks those)."""

    def __init__(self, required: "Mapping | None" = None, optional: "Mapping | None" = None):
        self.required = dict(required or {})
        self.optional = dict(optional or {})

    def __call__(self, payload, where: str, envelope: tuple = ()) -> dict:
        if type(payload) is not dict:
            raise _malformed(where, "an object", payload)
        for key in self.required:
            if key not in payload:
                raise CheckpointError(f"malformed {where}: missing key {key!r}")
        read = {}
        for key, value in payload.items():
            if key in self.required:
                read[key] = self.required[key](value, f"{where}.{key}")
            elif key in self.optional:
                read[key] = self.optional[key][0](value, f"{where}.{key}")
            elif key not in envelope:
                raise CheckpointError(f"malformed {where}: unknown key {key!r}")
        for key, (_reader, default) in self.optional.items():
            if key not in read:
                read[key] = deepcopy(default)
        return read


IDS = ListOf(NAT)
LABELS = ListOf(STR)


def read_envelope(blob, what: str, version: int, fields: Fields, *,
                  kind: "str | tuple[str, ...] | None" = None) -> dict:
    """Read a versioned snapshot envelope (see the module policy).

    ``kind`` is the expected ``"kind"`` value, or a tuple of accepted
    ones; ``None`` means the format has no ``kind`` key.  The result
    holds ``fields``' keys and the ``kind``.
    """
    if type(blob) is not dict:
        raise _malformed(what, "an object", blob)
    found = blob.get("version")
    if type(found) is not int or found != version:
        raise CheckpointError(f"unsupported {what} version {found!r} (expected {version})")
    kinds = (kind,) if isinstance(kind, str) else kind or ()
    if kinds and blob.get("kind") not in kinds:
        raise CheckpointError(f"not a {what}: kind {blob.get('kind')!r} "
                              f"(expected {' or '.join(map(repr, kinds))})")
    read = fields(blob, what, ("version", "kind") if kinds else ("version",))
    return {**read, "kind": blob["kind"]} if kinds else read


@contextmanager
def restoring(what: str) -> Iterator[None]:
    """Turn a value error (or a query that does not compile) met while
    restoring into :class:`CheckpointError`."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            XPathSyntaxError, UnsupportedQueryError) as exc:
        raise CheckpointError(f"malformed {what}: {exc}") from exc
