"""Observed production machines: PathM/BranchM/TwigM with counters.

Theorem 4.4 bounds TwigM's running time by ``O((|Q| + R·B)·|Q|·|D|)``
(R = document depth, B = query branching factor), and the paper's
central memory claim is that ``2n`` stack entries stand in for ``n²``
pattern matches.  The counters the production metric path can see from
*outside* a machine are published here:

* ``events`` — element events (start + end) delivered to the machine;
* ``pushes`` / ``pops`` — growth and shrinkage of the live entry count
  across one δs / δe (for BranchM: slots newly occupied by a start
  event, slots released by an end event);
* ``peak_entries`` — the compact encoding's maximum live size, the
  quantity figure 1 contrasts with the exponential match count;
* ``emitted`` — solution ids handed to the sink (duplicates included).

:class:`ObservedMachine` is a mixin over the *unmodified* core engines:
its ``start_element``/``end_element`` call ``super()`` and derive the
counts from stack (or slot) size deltas, and ``emitted`` is counted by
wrapping the sink.  :func:`observed_class` applies it to an engine class
(``ObservedMachine`` + ``TwigM`` → ``ObsTwigM``), so every production
behaviour — limits, candidate accounting, value tests, trackers,
earliest emission, checkpoints — is inherited rather than re-copied.
Observation is opt-in by construction: the plain engines never see it.
Per-transition internals (edge probes, flag sets, candidate uploads)
are not visible from outside the machine; the counting TwigM of
:mod:`repro.bench.complexity` measures those for the Theorem 4.4 checks.

Counts accumulate for the lifetime of the engine — :meth:`reset` clears
the runtime stacks but not the counters — and ride through
``snapshot_state()``/``restore_state()`` (under an ``"obs"`` key plain
engines ignore), so checkpoint-resumed streams report cumulative truth.

:class:`MachineMetricsPublisher` bridges engines to a
:class:`~repro.obs.metrics.MetricsRegistry`: it registers one collector
that sums the counters of every tracked engine into the
``repro_machine_*`` families, labelled by engine kind.  Use
:func:`machine_publisher` to get the per-registry singleton.  The
publisher holds strong references to tracked engines; a registry is
expected to live exactly as long as the pipeline it monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.results import CollectingSink, ResultSink

__all__ = [
    "OperationCounts",
    "ObservedMachine",
    "observed_class",
    "MachineMetricsPublisher",
    "machine_publisher",
]


@dataclass(slots=True)
class OperationCounts:
    """Counters of observable machine operations during one evaluation."""

    events: int = 0
    pushes: int = 0
    pops: int = 0
    peak_entries: int = 0
    emitted: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def load(self, payload: dict) -> None:
        """Restore counter values from an :meth:`as_dict` capture."""
        for f in fields(self):
            setattr(self, f.name, payload.get(f.name, 0))


class _CountingSink(ResultSink):
    """Forwards every emission to ``inner``, counting ids on the way."""

    def __init__(self, inner: ResultSink, counts: OperationCounts):
        self.inner = inner
        self._counts = counts

    def emit(self, node_id: int) -> None:
        self._counts.emitted += 1
        self.inner.emit(node_id)

    def emit_all(self, node_ids) -> None:
        node_ids = list(node_ids)
        self._counts.emitted += len(node_ids)
        self.inner.emit_all(node_ids)


class ObservedMachine:
    """Counting mixin over a production engine (see :func:`observed_class`).

    Takes the engine's constructor arguments plus ``metrics``, an
    optional :class:`~repro.obs.metrics.MetricsRegistry` the engine
    registers itself with (via :func:`machine_publisher`).
    """

    def __init__(self, query, sink=None, *args, metrics=None, **kwargs):
        self.counts = OperationCounts()
        counting = _CountingSink(
            sink if sink is not None else CollectingSink(), self.counts
        )
        super().__init__(query, counting, *args, **kwargs)
        slots = getattr(self, "_slots", None)
        if slots is not None:  # BranchM: one slot per machine node
            self._slot_list = list(slots.values())
            self._stack_list = None
        else:  # PathM/TwigM stacks, cleared and refilled in place
            self._slot_list = None
            self._stack_list = list(self._stacks.values())
        self._live_entries = 0
        if metrics is not None:
            machine_publisher(metrics).track(self)

    @property
    def results(self) -> list[int]:
        """Solutions confirmed so far (requires the default sink)."""
        inner = self.sink.inner
        if isinstance(inner, CollectingSink):
            return inner.results
        raise AttributeError("results are only collected by the default sink")

    @property
    def live_entries(self) -> int:
        """Stack entries (or occupied slots) currently live."""
        return self._live_entries

    def _count_live(self) -> int:
        if self._slot_list is not None:
            return sum(1 for slot in self._slot_list if slot.level != -1)
        return sum(len(stack) for stack in self._stack_list)

    def _account(self) -> None:
        """Fold the live-entry delta of one transition into the counters."""
        live = self._count_live()
        delta = live - self._live_entries
        if delta:
            counts = self.counts
            if delta > 0:
                counts.pushes += delta
                if live > counts.peak_entries:
                    counts.peak_entries = live
            else:
                counts.pops -= delta
            self._live_entries = live

    def start_element(self, tag, level, node_id, attributes=None):
        self.counts.events += 1
        super().start_element(tag, level, node_id, attributes)
        self._account()

    def end_element(self, tag, level):
        self.counts.events += 1
        super().end_element(tag, level)
        self._account()

    def reset(self) -> None:  # noqa: D102 - inherits the engine docstring
        super().reset()
        # Counters are cumulative across resets by design (the registry
        # reports totals); only the live high-water tracking restarts.
        self._live_entries = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["obs"] = {
            "counts": self.counts.as_dict(),
            "live_entries": self._live_entries,
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._live_entries = self._count_live()
        obs = state.get("obs")
        if obs is not None:
            # A plain-engine snapshot restores fine: counters restart at
            # zero and the live count above is recomputed from stacks.
            self.counts.load(obs.get("counts", {}))
        if self._live_entries > self.counts.peak_entries:
            self.counts.peak_entries = self._live_entries


_OBSERVED: dict[type, type] = {}


def observed_class(engine_class: type) -> type:
    """The counting subclass of ``engine_class`` (created once per class).

    Named ``Obs`` + the engine's class name; ``machine_name`` is
    inherited, so snapshots and metric labels match the plain engine.
    """
    observed = _OBSERVED.get(engine_class)
    if observed is None:
        observed = type(
            f"Obs{engine_class.__name__}",
            (ObservedMachine, engine_class),
            {"__module__": __name__, "__doc__": (
                f"{engine_class.__name__} with operation counters "
                "(see :class:`ObservedMachine`)."
            )},
        )
        _OBSERVED[engine_class] = observed
    return observed


_COUNT_FIELDS = (
    ("events", "Element events (start + end) delivered to the machine."),
    ("pushes", "Live stack entries gained by delta-s (slot occupations for BranchM)."),
    ("pops", "Live stack entries retired by delta-e (slot releases for BranchM)."),
    ("emitted", "Solution ids handed to the sink."),
)


class MachineMetricsPublisher:
    """Syncs tracked engines' counters into ``repro_machine_*`` families.

    One publisher per registry (see :func:`machine_publisher`); its
    collector runs on every snapshot/render/tick, summing counters over
    tracked engines grouped by engine kind (``engine="twigm"`` etc.).
    ``repro_machine_peak_entries`` is the *sum* of per-engine high-water
    marks — an upper bound on the true simultaneous peak.
    """

    def __init__(self, registry):
        self.registry = registry
        self._engines: list = []
        self._counters = {
            name: registry.counter(f"repro_machine_{name}_total", help)
            for name, help in _COUNT_FIELDS
        }
        self._live = registry.gauge(
            "repro_machine_live_entries",
            "Stack entries (or occupied slots) currently live.",
        )
        self._peak = registry.gauge(
            "repro_machine_peak_entries",
            "High-water mark of live stack entries (summed over engines).",
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
        totals: dict[str, dict] = {}
        for engine in self._engines:
            agg = totals.setdefault(
                type(engine).machine_name,
                {field: 0 for field, _ in _COUNT_FIELDS} | {"live": 0, "peak": 0},
            )
            counts = engine.counts
            for field, _ in _COUNT_FIELDS:
                agg[field] += getattr(counts, field)
            agg["live"] += engine._live_entries
            agg["peak"] += counts.peak_entries
        for name, agg in totals.items():
            for field, _ in _COUNT_FIELDS:
                self._counters[field].set(agg[field], engine=name)
            self._live.set(agg["live"], engine=name)
            self._peak.set(agg["peak"], engine=name)


def machine_publisher(registry) -> MachineMetricsPublisher:
    """The per-registry :class:`MachineMetricsPublisher` (created once)."""
    publisher = getattr(registry, "_machine_publisher", None)
    if publisher is None:
        publisher = MachineMetricsPublisher(registry)
        registry._machine_publisher = publisher
    return publisher
