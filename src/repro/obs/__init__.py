"""repro.obs — observability for the whole pipeline (layer 5).

A pay-nothing-when-off metrics and tracing subsystem threaded through
every layer of the system:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms; stdlib-only, snapshot-able as
  plain dicts, rendered as Prometheus text (:meth:`render_prometheus`)
  or JSON (:meth:`render_json`).
* :mod:`repro.obs.trace` — :class:`Tracer`, a lightweight span recorder
  (monotonic timestamps) dumpable as Chrome ``trace_event`` JSON for
  ``about:tracing`` / Perfetto.
* :mod:`repro.obs.machines` — the ``repro_machine_*`` families (events,
  pushes, pops, live/peak stack entries, buffered candidates,
  emissions), read when the registry is scraped from counters the
  production engines keep anyway.
* :mod:`repro.obs.stats` — the ``python -m repro stats`` runner: one
  evaluation with every metric family populated, plus per-chunk
  parse → route+dispatch → emit trace spans.
* :mod:`repro.obs.profiling` — the ``python -m repro profile`` runner:
  cProfile one evaluation (:func:`profile_pipeline`).

The cardinal design rule is that **metrics observe the engine that
runs**: passing ``metrics=`` to
:class:`~repro.core.processor.XPathStream`,
:class:`~repro.multiq.engine.MultiQueryEngine`, or
:class:`~repro.stream.tokenizer.XmlTokenizer` builds exactly the
machines and units a plain run builds, and registers collectors that
read the counters those keep anyway when the registry is scraped; the
hot loops contain no metrics checks at all.  ``ci/obs_smoke.py`` gates
that the disabled path stays within 5% of the bare fused loop, and that
metrics on build the same units and run within 1.25× of metrics off.

Example::

    from repro import XPathStream
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    stream = XPathStream("//book[price < 30]//title", metrics=registry)
    stream.evaluate("catalog.xml")
    print(registry.render_prometheus())
"""

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Tracer",
]
