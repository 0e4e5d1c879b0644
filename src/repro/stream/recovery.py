"""Recovery policies, stream diagnostics, and resource limits.

Production streams are hostile: feeds truncate mid-tag, proxies corrupt
bytes, and adversarial documents try to exhaust memory with million-deep
nesting or hundred-thousand-attribute elements.  This module holds the
three configuration objects the resilient streaming layer is built on:

* :class:`RecoveryPolicy` — what a parser does with malformed input:
  ``strict`` raises (the default, and the only behaviour before this
  layer existed); ``skip`` drops the malformed region and resynchronises
  at the next tag boundary; ``repair`` additionally restores
  well-nesting by synthesizing the end tags a broken document is missing.
  Under every policy the *emitted event stream stays well-nested* — a
  consumer never has to defend against unbalanced events.

* :class:`StreamDiagnostic` — one recovery action, with the input
  position it happened at.  Surfaced through an ``on_diagnostic``
  callback so monitoring can count, sample, or alert on feed quality
  without the parse failing.

* :class:`ResourceLimits` — hard bounds on attacker-controlled growth.
  Limits are enforced *while* parsing (a depth bomb is rejected after
  ``max_depth`` opens, not after the input is exhausted), so peak memory
  is O(limit), not O(input).  Crossing a bound always raises
  :class:`~repro.errors.ResourceLimitError`; recovery policies never
  downgrade it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum

from repro.checkpoint import NAT, Fields, Nullable, enum
from repro.errors import ResourceLimitError


class RecoveryPolicy(str, Enum):
    """Malformed-input handling for the streaming parsers."""

    #: Raise :class:`~repro.errors.XmlSyntaxError` on the first problem.
    STRICT = "strict"
    #: Drop malformed regions; resynchronise at the next tag boundary.
    SKIP = "skip"
    #: Like ``skip``, plus structural repair: synthesize the missing end
    #: tags for mismatched closes and truncated documents.
    REPAIR = "repair"

    @classmethod
    def coerce(cls, value: "str | RecoveryPolicy") -> "RecoveryPolicy":
        """Accept a policy instance or its string name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(policy.value for policy in cls)
            raise ValueError(
                f"unknown recovery policy {value!r} (expected one of: {names})"
            ) from None


#: A captured policy: one of the :class:`RecoveryPolicy` values.
POLICY = enum(*(policy.value for policy in RecoveryPolicy))

#: Diagnostic action: the malformed region was dropped.
ACTION_SKIPPED = "skipped"
#: Diagnostic action: events were synthesized to restore well-nesting.
ACTION_REPAIRED = "repaired"


@dataclass(frozen=True, slots=True)
class StreamDiagnostic:
    """One recovery action taken by a parser running under a lenient policy."""

    message: str
    line: int
    column: int
    #: :data:`ACTION_SKIPPED` or :data:`ACTION_REPAIRED`.
    action: str

    def __str__(self) -> str:
        return f"[{self.action}] {self.message} at line {self.line}, column {self.column}"


@dataclass(frozen=True, slots=True)
class ResourceLimits:
    """Bounds on attacker-controlled resource growth.  ``None`` = unlimited.

    Enforced by :class:`~repro.stream.tokenizer.XmlTokenizer` and the
    PathM/BranchM/TwigM machines; any crossing raises
    :class:`~repro.errors.ResourceLimitError` immediately, before the
    offending structure is buffered.
    """

    #: Maximum element nesting depth.
    max_depth: int | None = None
    #: Maximum number of attributes on a single element.
    max_attributes: int | None = None
    #: Maximum length of a single attribute value (characters).
    max_attribute_length: int | None = None
    #: Maximum length of one coalesced character-data run.
    max_text_length: int | None = None
    #: Maximum unconsumed input held between ``feed()`` calls while a
    #: construct (tag, comment, CDATA section) is still incomplete.  This
    #: is what bounds a single giant tag — e.g. an element with 10⁵
    #: attributes — to O(limit) memory.
    max_buffered_input: int | None = None
    #: Maximum number of events a stream may produce.
    max_total_events: int | None = None
    #: Maximum candidate ids buffered across all machine stacks
    #: (TwigM/BranchM); bounds result-buffer growth for queries whose
    #: predicates never resolve.
    max_buffered_candidates: int | None = None

    @classmethod
    def hardened(cls) -> "ResourceLimits":
        """Defaults suitable for parsing untrusted feeds."""
        return cls(
            max_depth=512,
            max_attributes=256,
            max_attribute_length=65_536,
            max_text_length=1_048_576,
            max_buffered_input=1_048_576,
            max_buffered_candidates=1_048_576,
        )

    def check(self, limit: str, observed: int, context: "str | None" = None) -> None:
        """Raise :class:`ResourceLimitError` when ``observed`` exceeds ``limit``.

        ``context`` (optional) names where enforcement happened — a query
        name, a serving-session id — and is carried on the error and in
        its message so multi-tenant hosts can attribute the rejection.
        """
        configured = getattr(self, limit)
        if configured is not None and observed > configured:
            raise ResourceLimitError(limit, configured, observed, context)

    # -- serialization (snapshots embed their limits) -------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: "dict | None") -> "ResourceLimits | None":
        if data is None:
            return None
        return cls(**Fields(optional={
            f.name: (Nullable(NAT), None) for f in fields(cls)})(data, "resource limits"))
