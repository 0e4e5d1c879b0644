"""One table per durable format: the typed capture schema.

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
(positional), :class:`OneOf` and :class:`Fields`.  A :class:`Fields`
spec also writes its format: its ``capture`` writes the fields bound to
attributes and :meth:`Fields.apply` sets them.  What a type
cannot say (stack counts against machine nodes, a DFA stack against its
tags, members against the registry, a tokenizer's ``next_id`` against
the ids the face holds) a restore checks inside :func:`restoring`, which
turns the errors it trips over into :class:`CheckpointError` too.
"""

from __future__ import annotations

from contextlib import contextmanager
from copy import deepcopy
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import CheckpointError, UnsupportedQueryError, XPathSyntaxError

__all__ = [
    "BOOL", "IDS", "INT", "LABELS", "NAT", "OBJECT", "SECONDS", "STR",
    "Fields", "Leaf", "ListOf", "MapOf", "Nullable", "OneOf", "Tuple",
    "enum", "read_envelope", "restoring",
]


def _path(where) -> str:
    """The key path ``where`` names: a string, or a ``(parent, key)``
    pair (readers format a path only to raise)."""
    if type(where) is str:
        return where
    parent, key = where
    return f"{_path(parent)}[{key}]" if type(key) is int else f"{_path(parent)}.{key}"


def _malformed(where, expected: str, value) -> CheckpointError:
    return CheckpointError(f"malformed {_path(where)}: expected {expected}, got {value!r:.60}")


class Leaf:
    """A reader of the values ``test`` accepts; ``reader(value, where)``
    returns the value read or raises :class:`CheckpointError` (fields,
    lists and tuples test a leaf inline and call it only to raise)."""

    def __init__(self, expected: str, test: Callable[[object], bool]):
        self.expected = expected
        self.test = test

    def __call__(self, value, where):
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

    def __call__(self, value, where):
        return None if value is None else self.inner(value, where)


class ListOf:
    """A list of at least ``least`` values, each read by ``item``."""

    def __init__(self, item, least: int = 0):
        self.item = item
        self.least = least

    def __call__(self, value, where) -> list:
        if type(value) is not list or len(value) < self.least:
            raise _malformed(where, f"a list of at least {self.least}", value)
        item = self.item
        if type(item) is Leaf and all(map(item.test, value)):
            return list(value)
        return [item(entry, (where, index)) for index, entry in enumerate(value)]


class MapOf:
    """An object of at least ``least`` string keys (``keys``: only
    those), each value read by ``item``."""

    def __init__(self, item, keys: "tuple[str, ...] | None" = None, least: int = 0):
        self.item = item
        self.keys = keys
        self.least = least

    def __call__(self, value, where) -> dict:
        if type(value) is not dict or len(value) < self.least or any(
                type(key) is not str or self.keys is not None and key not in self.keys
                for key in value):
            raise _malformed(where, f"an object of at least {self.least} known keys", value)
        return {key: self.item(entry, (where, key)) for key, entry in value.items()}


class Tuple:
    """A list of exactly one value per reader in ``items``; read as that
    list, or as ``into(*values)``."""

    def __init__(self, *items, into: "Callable | None" = None):
        self.items = items
        self.into = into

    def __call__(self, value, where):
        if type(value) is not list or len(value) != len(self.items):
            raise _malformed(where, f"a list of {len(self.items)}", value)
        values = [entry if type(item) is Leaf and item.test(entry) else item(entry, (where, index))
                  for index, (item, entry) in enumerate(zip(self.items, value))]
        return values if self.into is None else self.into(*values)


class OneOf:
    """The value as read by the first of ``choices`` that accepts it."""

    def __init__(self, *choices):
        self.choices = choices

    def __call__(self, value, where):
        for choice in self.choices[:-1]:
            try:
                return choice(value, where)
            except CheckpointError:
                pass
        return self.choices[-1](value, where)


class Fields:
    """An object: ``required`` keys (key → reader) and ``optional`` ones
    (key → ``(reader, default)``); any other key is refused, but for the
    ``envelope`` keys a call names (:func:`read_envelope` checks those).

    ``attrs`` binds fields to the attributes they mirror (names, each
    the key with leading underscores); a writer passes the fields it
    derives, named in ``writes``, to ``capture(obj, **writes)``, which
    returns all of them in table order (a logged capture's bytes follow
    it), and :meth:`apply` sets the bound ones after a read: one table
    writes and reads a format."""

    def __init__(self, required: "Mapping | None" = None, optional: "Mapping | None" = None,
                 attrs: "Iterable[str]" = (), writes: "tuple[str, ...]" = ()):
        self.required = dict(required or {})
        self.optional = dict(optional or {})
        self.attrs = {attr.lstrip("_"): attr for attr in attrs}
        if self.attrs or writes:
            self.capture = _capturer(self, writes)

    def __call__(self, payload, where, envelope: tuple = ()) -> dict:
        if type(payload) is not dict:
            raise _malformed(where, "an object", payload)
        for key in self.required:
            if key not in payload:
                raise CheckpointError(f"malformed {_path(where)}: missing key {key!r}")
        read = {}
        for key, value in payload.items():
            if key in self.required:
                reader = self.required[key]
            elif key in self.optional:
                reader = self.optional[key][0]
            elif key in envelope:
                continue
            else:
                raise CheckpointError(f"malformed {_path(where)}: unknown key {key!r}")
            read[key] = value if type(reader) is Leaf and reader.test(value) else reader(
                value, (where, key))
        for key, (_reader, default) in self.optional.items():
            if key not in read:
                read[key] = deepcopy(default) if type(default) in (list, dict) else default
        return read

    def apply(self, obj, read: dict) -> None:
        """Set each bound attribute of ``obj`` to its field in ``read``."""
        for key, attr in self.attrs.items():
            setattr(obj, attr, read[key])


def _capturer(spec: Fields, writes: tuple) -> Callable[..., dict]:
    """``spec.capture`` compiled to one dict display, close to the cost
    of the literal a writer would spell out (a bound list or map is
    copied); the names in it are the table's own, never a capture's."""
    items = []
    for key in (*spec.required, *spec.optional):
        if key in writes:
            items.append(f"{key!r}: {key}")
        elif key in spec.attrs:
            copy = {ListOf: "list", MapOf: "dict"}.get(
                type(spec.required.get(key) or spec.optional[key][0]), "")
            items.append(f"{key!r}: {copy}(obj.{spec.attrs[key]})")
    keywords = f", *, {', '.join(writes)}" if writes else ""
    return eval(f"lambda obj{keywords}: {{{', '.join(items)}}}")


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
