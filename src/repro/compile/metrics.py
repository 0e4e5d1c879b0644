"""Observability for the compilation tiers: the ``repro_compile_*`` family.

Mirrors :mod:`repro.obs.machines`: one :class:`CompileMetricsPublisher`
per registry (see :func:`compile_publisher`), holding the tracked
:class:`~repro.compile.dfa.DfaPathM` engines and registering a single
collector that syncs the engines' authoritative internal counters into
the registry on every render/snapshot/tick.

Zero cost when off by construction: engines only *import* this module
when constructed with a ``metrics`` registry, the hot paths touch plain
instance counters (``_starts``/``_misses``/``_fallbacks``) they
maintain anyway, and all registry work happens at scrape time.

Families (all labelled ``engine="dfa"``):

* ``repro_compile_dfa_states`` — DFA states currently materialised;
* ``repro_compile_dfa_transitions`` — cached transitions;
* ``repro_compile_dfa_starts_total`` — start events evaluated by the
  DFA loop;
* ``repro_compile_dfa_misses_total`` — transition-cache misses (subset
  constructions performed);
* ``repro_compile_hit_ratio`` — ``1 - misses/starts``, the fraction of
  start events resolved by one dict lookup;
* ``repro_compile_fallbacks_total`` — swaps to interpreted PathM
  (state-cap trips and mid-stream misalignments).
"""

from __future__ import annotations

__all__ = ["CompileMetricsPublisher", "compile_publisher"]


class CompileMetricsPublisher:
    """Syncs compilation-tier counters into ``repro_compile_*`` families.

    One publisher per registry (see :func:`compile_publisher`).  The
    publisher holds strong references to tracked engines; a registry is
    expected to live exactly as long as the pipeline it monitors.
    """

    def __init__(self, registry):
        self.registry = registry
        self._engines: list = []
        self._states = registry.gauge(
            "repro_compile_dfa_states",
            "DFA states currently materialised (summed over engines).",
        )
        self._transitions = registry.gauge(
            "repro_compile_dfa_transitions",
            "DFA transitions currently cached (summed over engines).",
        )
        self._starts = registry.counter(
            "repro_compile_dfa_starts_total",
            "Start events evaluated by the lazy-DFA loop.",
        )
        self._misses = registry.counter(
            "repro_compile_dfa_misses_total",
            "Transition-cache misses (subset constructions performed).",
        )
        self._hit_ratio = registry.gauge(
            "repro_compile_hit_ratio",
            "Fraction of start events resolved by a cached transition.",
        )
        self._fallbacks = registry.counter(
            "repro_compile_fallbacks_total",
            "Swaps from the DFA to interpreted PathM (cap or misalignment).",
        )
        registry.add_collector(self._collect)

    def track(self, engine):
        """Start publishing ``engine``'s counters (idempotent)."""
        if all(existing is not engine for existing in self._engines):
            self._engines.append(engine)
        return engine

    @property
    def engines(self) -> list:
        return list(self._engines)

    def _collect(self) -> None:
        states = transitions = starts = misses = fallbacks = 0
        for engine in self._engines:
            states += engine.dfa_state_count
            transitions += engine.dfa_transition_count
            starts += engine._starts
            misses += engine._misses
            fallbacks += engine._fallbacks
        self._states.set(states, engine="dfa")
        self._transitions.set(transitions, engine="dfa")
        self._starts.set(starts, engine="dfa")
        self._misses.set(misses, engine="dfa")
        self._hit_ratio.set(
            1.0 - misses / starts if starts else 1.0, engine="dfa"
        )
        self._fallbacks.set(fallbacks, engine="dfa")


def compile_publisher(registry) -> CompileMetricsPublisher:
    """The per-registry :class:`CompileMetricsPublisher` (created once)."""
    publisher = getattr(registry, "_compile_publisher", None)
    if publisher is None:
        publisher = CompileMetricsPublisher(registry)
        registry._compile_publisher = publisher
    return publisher
