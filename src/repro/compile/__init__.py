"""Query-specialized compilation of the hot path (``repro.compile``).

Two tiers evaluate queries:

* **interpreted** — PathM/BranchM/TwigM (:mod:`repro.core`) walk per-tag
  dispatch plans (lists of ``(node, stack, parent_stack)`` records) on
  every event;
* **DFA** — :mod:`repro.compile.dfa` front-ends PathM for
  predicate-free XP{/,//,*} queries with an XMLTK-style lazily-determinised
  automaton (:class:`DfaPathM`): states materialise only for tag
  sequences that occur in the data, per-event work is one dict lookup,
  and a state-count cap falls back to interpreted PathM when wildcard
  blow-up threatens.  One automaton may carry many queries (members):
  its NFA lays their trunks end to end, YFilter-style.

``compiled=True`` on :class:`~repro.core.processor.XPathStream` upgrades
an automatically selected PathM to a one-member :class:`DfaPathM`; on
:class:`~repro.multiq.MultiQueryEngine` it makes every unlimited
predicate-free query a member of one shared :class:`DfaPathM`.  Every
other engine runs exactly as with ``compiled=False``.

The NFA/subset-construction core lives in :mod:`repro.compile.nfa` and
is shared with the figure-7/8 baseline (``repro.baselines.lazydfa``),
so the stand-in and the production cache cannot drift.
"""

from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM
from repro.compile.nfa import LazyDfa, Step, subset_step, trunk_steps

__all__ = [
    "DEFAULT_STATE_CAP",
    "DfaPathM",
    "LazyDfa",
    "Step",
    "subset_step",
    "trunk_steps",
]
