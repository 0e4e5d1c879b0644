"""Observability for the compilation tiers: the ``repro_compile_*`` family.

The lazy DFA (:class:`~repro.compile.dfa.DfaPathM`) keeps its cache
counters anyway (``_starts``/``_misses``/``_clears``, plus the live
state and transition counts); :func:`~repro.core.machine.engine_figures`
reads them, and the front door's collector publishes them with the
``repro_machine_*`` families (:mod:`repro.obs.machines`) when the
registry is scraped.  The engine itself holds no registry.

Families (all labelled ``engine="dfa"``):

* ``repro_compile_dfa_states`` — DFA states currently materialised;
* ``repro_compile_dfa_transitions`` — cached transitions;
* ``repro_compile_dfa_starts_total`` — start events evaluated by the
  DFA loop;
* ``repro_compile_dfa_misses_total`` — transition-cache misses (subset
  constructions performed);
* ``repro_compile_hit_ratio`` — ``1 - misses/starts``, the fraction of
  start events resolved by one dict lookup;
* ``repro_compile_dfa_clears_total`` — cache clears at the state cap.
"""

from __future__ import annotations

__all__ = ["COMPILE_FAMILIES", "hit_ratio"]

#: Figure → (family, kind, help), as :mod:`repro.obs.machines` publishes.
COMPILE_FAMILIES = {
    "dfa_states": ("repro_compile_dfa_states", "gauge",
                   "DFA states currently materialised (summed over engines)."),
    "dfa_transitions": ("repro_compile_dfa_transitions", "gauge",
                        "DFA transitions currently cached (summed over engines)."),
    "dfa_starts": ("repro_compile_dfa_starts_total", "counter",
                   "Start events evaluated by the lazy-DFA loop."),
    "dfa_misses": ("repro_compile_dfa_misses_total", "counter",
                   "Transition-cache misses (subset constructions performed)."),
    "dfa_clears": ("repro_compile_dfa_clears_total", "counter",
                   "Transition-cache clears at the DFA state cap."),
}


def hit_ratio(registry) -> None:
    """Set ``repro_compile_hit_ratio`` from the starts and misses
    published into ``registry`` (which must hold both families)."""
    starts = registry.get("repro_compile_dfa_starts_total").get(engine="dfa")
    misses = registry.get("repro_compile_dfa_misses_total").get(engine="dfa")
    registry.gauge(
        "repro_compile_hit_ratio",
        "Fraction of start events resolved by a cached transition.",
    ).set(1.0 - misses / starts if starts else 1.0, engine="dfa")
