"""Metric primitives and the registry: counters, gauges, histograms.

Stdlib-only, dependency-free, and deliberately small: a
:class:`MetricsRegistry` is a named, ordered collection of metric
families.  Every family supports optional labels (``counter.inc(1,
engine="twigm")``), values snapshot to plain JSON-serializable dicts
(:meth:`MetricsRegistry.snapshot`), and two exposition formats are
built in:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  format (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value``
  samples, cumulative ``_bucket`` samples for histograms);
* :meth:`MetricsRegistry.render_json` — the same data as one JSON
  document (machine-readable round trip of :meth:`snapshot`).

Two integration hooks connect the registry to live components:

* **collectors** (:meth:`add_collector`) are zero-argument callables run
  before every render/snapshot/tick; instrumented components register
  one to sync their authoritative internal state (machine operation
  counts, dispatcher counters) into the registry, so restored
  checkpoints report cumulative truth instead of since-construction
  deltas.
* **watchers** (:meth:`watch`) receive the full snapshot dict on every
  :meth:`tick` — the periodic-scrape hook the push pipeline and the
  stats runner drive once per chunk.

:data:`NULL_REGISTRY` is the shared no-op: every family it hands out
swallows writes, every render is empty.  Components accept
``metrics=None`` and skip instrumentation entirely, but code that wants
to write unconditionally can hold the null registry instead of
branching.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: Default histogram buckets: per-chunk latencies from 50µs to 2.5s.
DEFAULT_BUCKETS = (
    0.00005, 0.0001, 0.00025,
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: tuple) -> str:
    if not key:
        return ""
    pairs = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in key)
    return "{" + pairs + "}"


class _ValueMetric:
    """Shared implementation of labeled scalar families (counter/gauge)."""

    kind = "untyped"

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` to the sample selected by ``labels``."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def set(self, value: float, **labels) -> None:
        """Set the sample to an absolute value.

        This is the collector-sync primitive: components whose internal
        counters are authoritative (and survive checkpoints) publish
        them with ``set`` so the registry mirrors cumulative truth.
        """
        self._values[_label_key(labels)] = value

    def get(self, **labels) -> float:
        """Current value of the sample selected by ``labels`` (0 if unset)."""
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> "list[tuple[tuple, float]]":
        """All (label-key, value) samples, label-sorted for determinism."""
        return sorted(self._values.items())

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "values": [
                {"labels": dict(key), "value": value}
                for key, value in self.samples()
            ],
        }

    def render(self) -> "list[str]":
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        samples = self.samples()
        if not samples:
            samples = [((), 0)]
        for key, value in samples:
            lines.append(f"{self.name}{_render_labels(key)} {_format_value(value)}")
        return lines


class Counter(_ValueMetric):
    """A monotonically increasing total (``*_total`` by convention)."""

    kind = "counter"
    __slots__ = ()


class Gauge(_ValueMetric):
    """A value that can go up and down (depths, ratios, rates)."""

    kind = "gauge"
    __slots__ = ()

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram:
    """A fixed-bucket histogram of observations (no labels).

    Buckets are upper bounds; observations land in the first bucket
    whose bound is >= the value, with an implicit ``+Inf`` bucket.
    Rendered cumulatively in the Prometheus style (``le`` labels,
    ``_sum`` and ``_count`` series).
    """

    kind = "histogram"

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def snapshot(self) -> dict:
        cumulative = 0
        buckets = {}
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            buckets[_format_value(bound)] = cumulative
        buckets["+Inf"] = self._count
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": buckets,
            "sum": self._sum,
            "count": self._count,
        }

    def render(self) -> "list[str]":
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """An ordered collection of metric families with exposition.

    Families are created on first use and shared on repeated calls
    (get-or-create), so independent components can contribute samples
    to one family — the machine publisher labels per engine, the multiq
    collector labels per query — without coordinating construction.
    """

    enabled = True

    def __init__(self) -> None:
        self._families: dict[str, object] = {}
        self._collectors: list[Callable[[], None]] = []
        self._watchers: list[Callable[[dict], None]] = []
        self._ticks = 0

    # -- family construction -------------------------------------------

    def _family(self, cls, name: str, help: str, **kwargs):
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {cls.kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter family."""
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge family."""
        return self._family(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create a fixed-bucket histogram family."""
        return self._family(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    @property
    def names(self) -> "list[str]":
        """Registered family names, in registration order."""
        return list(self._families)

    # -- collectors and watchers ---------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a sync hook run before every snapshot/render/tick.

        Idempotent per callable identity: registering the same function
        twice runs it once.
        """
        if all(existing is not collector for existing in self._collectors):
            self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], None]) -> None:
        """Unregister a collector registered with :meth:`add_collector`.

        Long-lived registries shared by short-lived components (serving
        sessions, per-request engines) must detach their collectors on
        teardown or every future scrape keeps the dead component — and
        everything it references — alive.  Unknown collectors are
        ignored, so teardown paths can call this unconditionally.
        """
        self._collectors = [
            existing for existing in self._collectors if existing is not collector
        ]

    def collect(self) -> None:
        """Run every registered collector (sync live components in)."""
        for collector in self._collectors:
            collector()

    def watch(self, watcher: Callable[[dict], None]) -> None:
        """Register a periodic-scrape callback for :meth:`tick`.

        Watchers receive the full :meth:`snapshot` dict.  Instrumented
        drivers (the push pipeline, the stats runner) call :meth:`tick`
        once per chunk, making this the hook for live dashboards and
        progress reporting without polling.
        """
        if all(existing is not watcher for existing in self._watchers):
            self._watchers.append(watcher)

    def tick(self) -> None:
        """One scrape interval: run collectors, then notify watchers."""
        self._ticks += 1
        if not self._watchers:
            return
        snapshot = self.snapshot()
        for watcher in self._watchers:
            watcher(snapshot)

    # -- exposition ----------------------------------------------------

    def snapshot(self) -> dict:
        """All families and samples as one JSON-serializable dict."""
        self.collect()
        return {
            name: family.snapshot() for name, family in self._families.items()
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        self.collect()
        lines: list[str] = []
        for family in self._families.values():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self, indent: "int | None" = 2) -> str:
        """The :meth:`snapshot` dict as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class _NullMetric:
    """Accepts every write, holds nothing — one shared instance."""

    __slots__ = ()
    kind = "null"
    name = ""
    help = ""

    def inc(self, amount: float = 1, **labels) -> None:
        pass

    def dec(self, amount: float = 1, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self, **labels) -> float:
        return 0

    count = 0
    sum = 0.0

    def samples(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def render(self) -> list:
        return []


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` that records nothing.

    Hand this to code written against an always-present registry when
    observability is off; every family is the shared no-op metric and
    every exposition is empty.  ``bool(NullRegistry().enabled)`` is
    False, so hot paths that do want to branch can.
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS):  # type: ignore[override]
        return _NULL_METRIC

    def add_collector(self, collector) -> None:
        pass

    def remove_collector(self, collector) -> None:
        pass

    def watch(self, watcher) -> None:
        pass

    def tick(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {}

    def render_prometheus(self) -> str:
        return ""

    def render_json(self, indent: "int | None" = 2) -> str:
        return "{}"


#: The shared no-op registry (see :class:`NullRegistry`).
NULL_REGISTRY = NullRegistry()
