"""The metric catalog must match the source tree exactly.

docs_check verifies documented metric families against the catalog
(:mod:`repro.obs.catalog`); this suite closes the loop by verifying the
catalog against reality, from both directions:

* every ``repro_*`` family literal in the source tree is catalogued —
  a new metric cannot ship uncatalogued (and hence slip past the docs
  gate when someone documents it with a typo);
* every catalogued family appears in the source — deleting a metric
  forces its catalog entry (and docs) to go too;
* the families the core instrumented paths actually *publish* at
  runtime are catalogued under their published names.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs.catalog import METRIC_FAMILIES, known_family

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
NAME = re.compile(r"\brepro_[a-z0-9_]+\b")


def source_families() -> set[str]:
    """Every full repro_* family name the source tree mentions.

    Tokens ending in ``_`` are prefix constructions (f-strings, prose)
    and are skipped: every family is spelled out in full somewhere.
    """
    found: set[str] = set()
    for path in SRC.rglob("*.py"):
        for token in NAME.findall(path.read_text(encoding="utf-8")):
            if not token.endswith("_"):
                found.add(token)
    return found


class TestCatalogMatchesSource:
    def test_every_source_family_is_catalogued(self):
        missing = source_families() - set(METRIC_FAMILIES)
        assert not missing, (
            f"metric families in source but not in repro.obs.catalog: "
            f"{sorted(missing)}"
        )

    def test_every_catalogued_family_exists_in_source(self):
        stale = set(METRIC_FAMILIES) - source_families()
        assert not stale, (
            f"catalogued metric families no longer in source: {sorted(stale)}"
        )

    def test_owner_modules_import(self):
        import importlib

        for module in sorted(set(METRIC_FAMILIES.values())):
            importlib.import_module(module)

    def test_prefix_lookup(self):
        assert known_family("repro_machine_")
        assert known_family("repro_latency_decision_lag_events")
        assert not known_family("repro_nonexistent_total")
        assert not known_family("repro_nonexistent_")


class TestPublishedFamiliesAreCatalogued:
    """Families that materialize in a real registry carry catalog names."""

    def test_stats_run_families(self):
        from repro.obs.stats import run_stats

        xml = "<r><a><x/><b>one</b></a><a><b>two</b></a></r>"
        run = run_stats("//a[x]//b", xml, lag=True, emission="default")
        snapshot = run.registry.snapshot()
        published = {name for name in snapshot if name.startswith("repro_")}
        unknown = {name for name in published if not known_family(name)}
        assert not unknown, f"published but uncatalogued: {sorted(unknown)}"
        # The lag instrumentation families must be among them.
        assert "repro_latency_decision_lag_events" in published
        assert "repro_latency_decision_lag_bytes" in published
        assert "repro_latency_results_total" in published
