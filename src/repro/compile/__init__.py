"""Query-specialized compilation of the hot path (``repro.compile``).

Two tiers evaluate queries:

* **interpreted** — PathM/BranchM/TwigM (:mod:`repro.core`) walk per-tag
  dispatch plans (lists of ``(node, stack, parent_stack)`` records) on
  every event;
* **DFA + turbo** — :mod:`repro.compile.dfa` front-ends PathM for
  predicate-free XP{/,//,*} queries with an XMLTK-style lazily-determinised
  automaton (:class:`DfaPathM`): states materialise only for tag
  sequences that occur in the data, per-event work is one dict lookup,
  and a state-count cap falls back to interpreted PathM when wildcard
  blow-up threatens.

``compiled=True`` (on :class:`~repro.core.processor.XPathStream` and
:class:`~repro.multiq.MultiQueryEngine`) upgrades an automatically
selected PathM to :class:`DfaPathM`; every other engine runs exactly as
with ``compiled=False``.

:mod:`repro.compile.scan` adds the query-aware turbo scanner: when the
active handlers provably ignore attributes and character data (the DFA
front-end), the tokenizer skips attribute parsing, text delivery and
cursor bookkeeping on well-shaped markup — the last factor needed to
reach ≥10× over the reference (``repro.bench.hotpath``) on
predicate-free XMark queries.

The NFA/subset-construction core lives in :mod:`repro.compile.nfa` and
is shared with the figure-7/8 baseline (``repro.baselines.lazydfa``),
so the stand-in and the production cache cannot drift.
"""

from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM
from repro.compile.metrics import CompileMetricsPublisher, compile_publisher
from repro.compile.nfa import LazyDfa, Step, subset_step, trunk_steps
from repro.compile.scan import turbo_eligible, turbo_feed

__all__ = [
    "CompileMetricsPublisher",
    "DEFAULT_STATE_CAP",
    "DfaPathM",
    "LazyDfa",
    "Step",
    "compile_publisher",
    "subset_step",
    "trunk_steps",
    "turbo_eligible",
    "turbo_feed",
]
