"""Canonical catalog of every ``repro_*`` metric family.

One entry per family the codebase can publish, mapping the family name
to the module that owns (creates) it.  The catalog exists so drift is
caught mechanically from both directions:

* ``ci/docs_check.py`` verifies every family named in
  docs/OBSERVABILITY.md and docs/LATENCY.md appears here — docs cannot
  advertise a metric that no longer exists;
* ``tests/test_metric_catalog.py`` scans the source tree for
  ``repro_*`` name literals and asserts the catalog matches exactly —
  a new family cannot ship uncatalogued (and hence undocumentable),
  and a deleted one cannot linger here.

Names follow Prometheus conventions: ``_total`` for counters,
``_seconds``/``_bytes``/``_events`` unit suffixes on histograms, bare
names for gauges.
"""

from __future__ import annotations

#: Every publishable metric family → the module that creates it.
METRIC_FAMILIES: dict[str, str] = {
    # -- tokenizer (repro.obs wrappers around the scanner) ---------------
    "repro_tokenizer_events_total": "repro.stream.tokenizer",
    "repro_tokenizer_bytes_total": "repro.stream.tokenizer",
    "repro_tokenizer_depth": "repro.stream.tokenizer",
    "repro_tokenizer_recovery_actions_total": "repro.stream.tokenizer",
    # -- machines (per-engine counters, summed by kind) ------------------
    "repro_machine_events_total": "repro.obs.machines",
    "repro_machine_pushes_total": "repro.obs.machines",
    "repro_machine_pops_total": "repro.obs.machines",
    "repro_machine_emitted_total": "repro.obs.machines",
    "repro_machine_live_entries": "repro.obs.machines",
    "repro_machine_peak_entries": "repro.obs.machines",
    "repro_machine_buffered_candidates": "repro.obs.machines",
    # -- stats runner ----------------------------------------------------
    "repro_stats_chunks_total": "repro.obs.stats",
    # -- multi-query dispatch --------------------------------------------
    "repro_multiq_events_total": "repro.multiq.engine",
    "repro_multiq_dispatched_total": "repro.multiq.engine",
    "repro_multiq_broadcast_total": "repro.multiq.engine",
    "repro_multiq_emitted_total": "repro.multiq.engine",
    "repro_multiq_queries": "repro.multiq.engine",
    "repro_multiq_units": "repro.multiq.engine",
    "repro_multiq_router_hit_ratio": "repro.multiq.engine",
    # -- serving layer ---------------------------------------------------
    "repro_serve_accepted_total": "repro.serve.server",
    "repro_serve_rejected_total": "repro.serve.server",
    "repro_serve_resumed_total": "repro.serve.server",
    "repro_serve_completed_total": "repro.serve.server",
    "repro_serve_shed_total": "repro.serve.server",
    "repro_serve_sessions": "repro.serve.server",
    "repro_serve_results_total": "repro.serve.server",
    "repro_serve_chars_total": "repro.serve.server",
    "repro_serve_chunk_seconds": "repro.serve.server",
    "repro_serve_checkpoints_total": "repro.serve.server",
    "repro_serve_frame_errors_total": "repro.serve.server",
    "repro_serve_queued_chars": "repro.serve.server",
    # -- durable store ---------------------------------------------------
    "repro_store_events_total": "repro.store",
    "repro_store_bytes_total": "repro.store",
    "repro_store_segments": "repro.store",
    "repro_store_checkpoints_total": "repro.store",
    "repro_store_syncs_total": "repro.store",
    "repro_store_replay_events_total": "repro.store",
    "repro_store_segments_skipped_total": "repro.store",
    # -- transformation layer --------------------------------------------
    "repro_transform_fragments_total": "repro.transform.extract",
    "repro_transform_fragment_bytes_total": "repro.transform.extract",
    "repro_transform_events_total": "repro.transform.extract",
    "repro_transform_output_events_total": "repro.transform.rewrite",
    "repro_transform_output_bytes_total": "repro.transform.rewrite",
    "repro_transform_rules_fired_total": "repro.transform.rewrite",
    # -- lazy-DFA tier ----------------------------------------------------
    "repro_compile_hit_ratio": "repro.compile",
    "repro_compile_dfa_states": "repro.compile",
    "repro_compile_dfa_transitions": "repro.compile",
    "repro_compile_dfa_starts_total": "repro.compile",
    "repro_compile_dfa_misses_total": "repro.compile",
    "repro_compile_dfa_clears_total": "repro.compile",
    # -- decision-lag instrumentation ------------------------------------
    "repro_latency_decision_lag_events": "repro.latency",
    "repro_latency_decision_lag_bytes": "repro.latency",
    "repro_latency_results_total": "repro.latency",
}


def known_family(name: str) -> bool:
    """True when ``name`` is a catalogued family, or — for a name ending
    in ``_`` (a documented family *prefix* such as ``repro_machine_``) —
    when at least one catalogued family carries that prefix."""
    if name.endswith("_"):
        return any(family.startswith(name) for family in METRIC_FAMILIES)
    return name in METRIC_FAMILIES
