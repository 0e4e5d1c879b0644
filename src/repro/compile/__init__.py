"""The lazy DFA for path queries (``repro.compile``).

:class:`DfaPathM` evaluates predicate-free XP{/,//,*} queries — the
paper's PathM fragment — with an XMLTK-style lazily-determinised
automaton: states materialise only for tag sequences that occur in the
data, per-event work is one dict lookup, and the cache clears at a
state-count cap when wildcard blow-up threatens.  One
automaton may carry many queries (members): its NFA (:class:`PathTrie`)
merges their trunks into one prefix trie, YFilter-style.  Every other
query runs on BranchM or TwigM (:mod:`repro.core`).

Every front door runs predicate-free queries here:
:class:`~repro.core.processor.XPathStream` builds a one-member
:class:`DfaPathM`, and :class:`~repro.multiq.MultiQueryEngine` makes
every unlimited predicate-free query a member of one shared
:class:`DfaPathM`.  PathM itself runs only when named
(``engine="pathm"``), or when a capture that names it (or that an
earlier release's DFA wrote after swapping to it) is restored.  The
figure-7/8 baseline (``repro.baselines.lazydfa``) steps the same
:class:`PathTrie`, so the stand-in and the production cache cannot
drift.
"""

from repro.compile.dfa import DEFAULT_STATE_CAP, DfaPathM
from repro.compile.nfa import LazyDfa, PathTrie, Step, trunk_steps

__all__ = [
    "DEFAULT_STATE_CAP",
    "DfaPathM",
    "LazyDfa",
    "PathTrie",
    "Step",
    "trunk_steps",
]
