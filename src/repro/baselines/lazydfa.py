"""Lazily-determinised automaton engine — the XMLTK stand-in.

XMLTK [3] evaluates XP{/,//,*} with a DFA built *lazily* from the query's
NFA: DFA states are materialised only for tag sequences that actually
occur in the data.  The stand-in keeps its signature behaviours:

* **fastest** of all engines on pure path queries (per-event work is one
  hash lookup once the transition is cached);
* **no predicates** — :meth:`supports` rejects them, producing the
  missing bars of figures 7/8;
* **state blow-up** with multiple wildcards: the subset construction can
  create exponentially many states, which the paper cites as XMLTK's
  weakness on '*'-heavy queries (exposed via ``LazyDfa.state_count``).

The NFA and subset construction live in :mod:`repro.compile.nfa`,
shared with the production DFA front-end (:mod:`repro.compile.dfa`) so
the baseline and the shipped engine cannot drift; this module is a thin
event-loop wrapper around that core.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.common import Engine, as_query_tree
from repro.compile.nfa import LazyDfa, Step, trunk_steps
from repro.core.results import CollectingSink, ResultSink
from repro.stream.events import EndElement, Event, StartElement

__all__ = ["LazyDfa", "LazyDfaEngine", "Step", "trunk_steps"]


class LazyDfaEngine(Engine):
    """The XMLTK stand-in: streaming lazy-DFA evaluation of XP{/,//,*}."""

    name = "XMLTK*"
    streaming = True

    def supports(self, query: "str | QueryTree") -> bool:
        return not as_query_tree(query).has_branches()

    def run(self, query: "str | QueryTree", events: Iterable[Event]) -> list[int]:
        sink = CollectingSink()
        dfa = self.run_with_sink(query, events, sink)
        self.last_dfa = dfa  # exposed for the blow-up ablation bench
        return sink.results

    def run_with_sink(
        self,
        query: "str | QueryTree",
        events: Iterable[Event],
        sink: ResultSink,
    ) -> LazyDfa:
        """Evaluate with an explicit sink; returns the DFA for inspection."""
        tree = as_query_tree(query)
        dfa = LazyDfa(tree)
        accept = dfa.accept
        stack: list[int] = [dfa.initial]
        step = dfa.step
        for event in events:
            if isinstance(event, StartElement):
                state = step(stack[-1], event.tag)
                stack.append(state)
                if state & accept:
                    sink.emit(event.node_id)
            elif isinstance(event, EndElement):
                stack.pop()
        return dfa
