"""One reader for durable state: the strict versioned snapshot codec.

Every versioned snapshot — stream, multiq, tokenizer, writer, extractor,
rewrite and serve-session — is read back through :func:`read_envelope`,
and the plain dicts an envelope carries through :func:`read_fields`.
The read policy (DESIGN.md §8): the blob is a JSON object with exactly
the expected ``version`` (and ``kind``); required keys are present;
unknown keys are rejected; optional keys — ones some older release did
not write — get their defaults.  :func:`restoring` turns the value
errors a restore trips over into :class:`~repro.errors.CheckpointError`,
so a hostile blob raises nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.errors import CheckpointError

__all__ = ["read_envelope", "read_fields", "restoring"]

_NO_DEFAULTS: Mapping = {}


def read_fields(
    payload,
    what: str,
    required: tuple[str, ...] = (),
    optional: Mapping = _NO_DEFAULTS,
) -> dict:
    """Check one dict's keys; return it with optional defaults filled in.

    Raises :class:`CheckpointError` if ``payload`` is not a dict, lacks a
    ``required`` key, or has a key that is neither required nor
    ``optional``.  The input is not modified.
    """
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"malformed {what}: expected an object, got {type(payload).__name__}"
        )
    for key in required:
        if key not in payload:
            raise CheckpointError(f"malformed {what}: missing key {key!r}")
    for key in payload:
        if key not in optional and key not in required:
            raise CheckpointError(f"malformed {what}: unknown key {key!r}")
    return {**optional, **payload} if optional else payload


def read_envelope(
    blob,
    what: str,
    version: int,
    *,
    kind: "str | tuple[str, ...] | None" = None,
    required: tuple[str, ...] = (),
    optional: Mapping = _NO_DEFAULTS,
) -> dict:
    """Read a versioned snapshot envelope (see the module policy).

    ``kind`` is the expected ``"kind"`` value, or a tuple of accepted
    ones; ``None`` means the format has no ``kind`` key.
    """
    if not isinstance(blob, dict):
        raise CheckpointError(
            f"malformed {what}: expected an object, got {type(blob).__name__}"
        )
    found = blob.get("version")
    if found != version:
        raise CheckpointError(
            f"unsupported {what} version {found!r} (expected {version})"
        )
    envelope = ("version",)
    if kind is not None:
        kinds = (kind,) if isinstance(kind, str) else kind
        if blob.get("kind") not in kinds:
            raise CheckpointError(
                f"not a {what}: kind {blob.get('kind')!r} "
                f"(expected {' or '.join(map(repr, kinds))})"
            )
        envelope += ("kind",)
    return read_fields(blob, what, envelope + required, optional)


@contextmanager
def restoring(what: str) -> Iterator[None]:
    """Turn a value error met while restoring into :class:`CheckpointError`."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"malformed {what}: {exc}") from exc
