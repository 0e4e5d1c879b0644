"""Machine metrics: the ``repro_machine_*`` families, read at scrape time.

Theorem 4.4 bounds TwigM's running time by ``O((|Q| + R·B)·|Q|·|D|)``
(R = document depth, B = query branching factor), and the paper's
central memory claim is that ``2n`` stack entries stand in for ``n²``
pattern matches.  The families here report those quantities for the
engines production runs — the same machines and units with metrics on
or off — from counters the engines keep anyway:

* ``events`` — events delivered to the machine: under a
  :class:`~repro.multiq.engine.MultiQueryEngine` the unit's delivery
  count, kept by the dispatcher (after demand gating); under an
  :class:`~repro.core.processor.XPathStream` its tokenizer's count (or
  the pre-parsed events it was fed);
* ``pushes`` / ``pops`` — stack entries pushed and retired (BranchM:
  slots occupied and released), counted at the machines' push and pop
  sites; ``pops`` is ``pushes`` minus the live entries;
* ``live_entries`` / ``peak_entries`` — the compact encoding's current
  and maximum size, the quantity figure 1 contrasts with the
  exponential match count (peaks are summed over engines);
* ``buffered_candidates`` — candidate ids the stack entries hold, the
  memory figure 8 measures;
* ``emitted`` — distinct solution ids the result sinks received (a
  sink counts an id once; a unit sums its sinks).

The lazy DFA keeps no stack entries: it reports ``events``, ``emitted``
and the ``repro_compile_*`` families (:mod:`repro.compile.metrics`).
Per-transition internals (edge probes, flag sets, candidate uploads)
are counted by :class:`repro.bench.complexity.CountingTwigM` for the
Theorem 4.4 checks, not here.

A front door given a registry builds one :class:`MachineMetrics` and
registers one collector that computes its figures per engine kind (see
:func:`~repro.core.machine.engine_figures`) and :meth:`publishes
<MachineMetrics.publish>` them.  Nothing runs on the event path.  The
front doors carry the counters through snapshots and fold those of an
engine they drop or reset into retired totals, so a resumed run reports
the same totals as an uninterrupted one.
"""

from __future__ import annotations

from repro.compile.metrics import COMPILE_FAMILIES, hit_ratio

__all__ = ["MACHINE_FAMILIES", "MachineMetrics"]

#: Figure → (family, kind, help).
MACHINE_FAMILIES = {
    "events": ("repro_machine_events_total", "counter",
               "Events delivered to the machine."),
    "pushes": ("repro_machine_pushes_total", "counter",
               "Stack entries pushed by delta-s (slot occupations for BranchM)."),
    "pops": ("repro_machine_pops_total", "counter",
             "Stack entries retired by delta-e (slot releases for BranchM)."),
    "emitted": ("repro_machine_emitted_total", "counter",
                "Distinct solution ids received by the result sinks."),
    "live_entries": ("repro_machine_live_entries", "gauge",
                     "Stack entries (or occupied slots) currently live."),
    "peak_entries": ("repro_machine_peak_entries", "gauge",
                     "High-water mark of live stack entries (summed over engines)."),
    "buffered_candidates": ("repro_machine_buffered_candidates", "gauge",
                            "Candidate ids currently held by stack entries."),
}

_FAMILIES = {**MACHINE_FAMILIES, **COMPILE_FAMILIES}
_RANK = {figure: rank for rank, figure in enumerate(_FAMILIES)}


class MachineMetrics:
    """Publishes one front door's figures into a registry.

    :meth:`publish` adds the change since its previous call, so several
    front doors share one registry additively, and a front door restored
    into a fresh registry publishes its whole cumulative history.
    """

    def __init__(self, registry):
        self.registry = registry
        self._published: dict[tuple[str, str], int] = {}

    def publish(self, figures: "dict[str, dict[str, int]]") -> None:
        """Bring the families up to ``figures`` (engine kind → figure →
        value); a kind or figure that disappeared drops to zero."""
        registry = self.registry
        current = {
            (kind, figure): value
            for kind, values in figures.items()
            for figure, value in values.items()
        }
        for key in sorted(current.keys() | self._published.keys(),
                          key=lambda key: (_RANK[key[1]], key[0])):
            kind, figure = key
            name, family_kind, help_text = _FAMILIES[figure]
            family = (registry.counter if family_kind == "counter"
                      else registry.gauge)(name, help_text)
            family.inc(current.get(key, 0) - self._published.get(key, 0), engine=kind)
        self._published = current
        if "dfa" in figures:
            hit_ratio(registry)
