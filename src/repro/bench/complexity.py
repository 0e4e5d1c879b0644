"""Empirical complexity fitting — the quantitative side of Theorem 4.4.

The paper *proves* TwigM polynomial and shows wall-clock plots; this
module closes the loop empirically: run an engine over a family of
inputs of growing size, fit ``cost ≈ a · n^k`` by least squares in
log-log space, and report the exponent ``k``.  On the figure 1 chain
family the expected exponents are sharp:

* TwigM: time and operations ~ ``n^1`` (linear), peak state ~ ``n^1``;
* explicit-match (XSQ family): records ~ ``n^2``, time ≥ ``n^2``;
* enumerative DOM (Galax family): enumerated matches ~ ``n^2``.

:class:`CountingTwigM` is the one TwigM that counts the operations
Theorem 4.4 bounds — parent-stack probes, flag sets and candidate
uploads happen *inside* δs/δe, so the counting copy of the transitions
lives here, beside the fits that consume it, rather than on the
production metric path (:mod:`repro.obs.machines` only sees what is
visible from outside a machine).

Used by ``benchmarks/test_ablation_complexity.py``, the
``python -m repro.bench --figure A`` ablation table, and
``python -m repro.bench.complexity``, which prints the table and exits
non-zero when TwigM's fitted operation exponent is not linear.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.enumerative import count_pattern_matches
from repro.baselines.explicit import ExplicitMatchEngine
from repro.core.machine import EDGE_EQ, MachineNode
from repro.core.twigm import StackEntry, TwigM
from repro.stream.document import build_document
from repro.stream.events import Event
from repro.stream.tokenizer import parse_string


@dataclass(slots=True)
class WorkCounts:
    """Operation counts of one :class:`CountingTwigM` evaluation.

    * ``events`` — element events (start + end) delivered;
    * ``pushes`` / ``pops`` — stack entries created and retired;
    * ``edge_checks`` — parent-stack probes during δs qualification;
    * ``flag_sets`` — branch-match bits set during δe propagation;
    * ``uploads`` — candidate-set unions;
    * ``peak_entries`` — the maximum live entry count (figure 1's ``2n``);
    * ``emitted`` — solution ids handed to the sink.
    """

    events: int = 0
    pushes: int = 0
    pops: int = 0
    edge_checks: int = 0
    flag_sets: int = 0
    uploads: int = 0
    peak_entries: int = 0
    emitted: int = 0

    def total_work(self) -> int:
        """A single scalar: all counted operations."""
        return (
            self.pushes + self.pops + self.edge_checks
            + self.flag_sets + self.uploads
        )


class CountingTwigM(TwigM):
    """Production :class:`~repro.core.twigm.TwigM` with δs/δe counted.

    Takes TwigM's constructor arguments and keeps its behaviour —
    limits, candidate accounting, value tests, trackers, earliest
    emission — while :attr:`counts` records every operation.
    """

    def __init__(self, query, sink=None, **kwargs):
        super().__init__(query, sink, **kwargs)
        self.counts = WorkCounts()
        self._live_entries = 0

    def reset(self) -> None:  # noqa: D102 - inherits the engine docstring
        super().reset()
        self._live_entries = 0

    def _emit_ids(self, candidates) -> None:
        self.counts.emitted += len(candidates)
        super()._emit_ids(candidates)

    def start_element(self, tag, level, node_id, attributes=None):
        """δs of Algorithm 1, with counters inline."""
        counts = self.counts
        counts.events += 1
        if self._limits is not None:
            self._limits.check("max_depth", level)
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        if attributes is None:
            attributes = {}
        for node, stack, parent_stack in plan:
            condition = node.compiled_condition
            if condition is None:
                if node.attribute_tests and not node.attributes_satisfied(attributes):
                    continue
            elif not condition.possible(attributes):
                continue
            if parent_stack is None:
                counts.edge_checks += 1
                if not node.edge_satisfied(level):
                    continue
            elif not self._counted_edge_exists(node, parent_stack, level):
                continue
            entry = StackEntry(level)
            if node.value_tests or (condition is not None and condition.has_value_leaves):
                entry.text_parts = []
                self._open_value_entries += 1
            if condition is not None:
                entry.attr_bits = condition.attr_bits(attributes)
            if node.is_return:
                entry.add_candidate(node_id)
                self._count_candidates(1)
                if self._tracker is not None:
                    self._tracker.created(node_id)
            stack.append(entry)
            counts.pushes += 1
            self._live_entries += 1
            if self._live_entries > counts.peak_entries:
                counts.peak_entries = self._live_entries
            if self._detect:
                self._note_stable(node, entry)
        if self._trunk_dirty:
            self._flush_trunk()

    def _counted_edge_exists(self, node: MachineNode, parent_stack, level: int) -> bool:
        counts = self.counts
        if not parent_stack:
            counts.edge_checks += 1
            return False
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for entry in reversed(parent_stack):
                counts.edge_checks += 1
                if entry.level == target:
                    return True
                if entry.level < target:
                    return False
            return False
        counts.edge_checks += 1
        return parent_stack[0].level <= level - node.edge_dist

    def end_element(self, tag, level):
        """δe of Algorithm 1, with counters inline."""
        counts = self.counts
        counts.events += 1
        tracker = self._tracker
        plan = self._plans.get(tag)
        if plan is None:
            plan = self._miss_plan(tag)
            if not plan:
                return
        for node, stack, parent_stack in plan:
            if not stack or stack[-1].level != level:
                continue
            entry = stack.pop()
            counts.pops += 1
            self._live_entries -= 1
            if entry.text_parts is not None:
                self._open_value_entries -= 1
            if entry.candidates:
                self._candidate_count -= len(entry.candidates)
            condition = node.compiled_condition
            if condition is None:
                satisfied = entry.flags == node.complete_mask
                if satisfied and node.value_tests:
                    satisfied = all(
                        test.evaluate(entry.string_value()) for test in node.value_tests
                    )
            else:
                satisfied = condition.satisfied(
                    entry.flags,
                    entry.attr_bits,
                    entry.string_value() if condition.has_value_leaves else "",
                )
            if not satisfied:
                if tracker is not None and entry.candidates:
                    tracker.released(entry.candidates)
                continue
            if node.is_return and self._eager:
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            if node.parent is None:
                if entry.candidates:
                    self._emit_ids(entry.candidates)
                continue
            self._counted_propagate(node, entry, level, parent_stack)
            if tracker is not None and entry.candidates:
                tracker.released(entry.candidates)
        if self._trunk_dirty:
            self._flush_trunk()

    def _counted_propagate(self, node: MachineNode, entry: StackEntry,
                           level: int, parent_stack) -> None:
        counts = self.counts
        bit = 1 << node.child_index
        detect = self._detect
        if node.edge_op == EDGE_EQ:
            target = level - node.edge_dist
            for parent_entry in reversed(parent_stack):
                if parent_entry.level == target:
                    counts.flag_sets += 1
                    if entry.candidates:
                        counts.uploads += 1
                    parent_entry.flags |= bit
                    self._upload(parent_entry, entry)
                    if detect:
                        self._after_propagate(node.parent, parent_entry, entry)
                    break
                if parent_entry.level < target:
                    break
        else:
            threshold = level - node.edge_dist
            for parent_entry in parent_stack:
                if parent_entry.level > threshold:
                    break
                counts.flag_sets += 1
                if entry.candidates:
                    counts.uploads += 1
                parent_entry.flags |= bit
                self._upload(parent_entry, entry)
                if detect:
                    self._after_propagate(node.parent, parent_entry, entry)


#: The figure 1 query.
CHAIN_QUERY = "//a[d]//b[e]//c"


def chain_document(n: int) -> str:
    """The paper's figure 1 chain: a₁…aₙ over b₁…bₙ over c₁."""
    parts = ["<a>", "<d/>"] + ["<a>"] * (n - 1)
    parts += ["<b>", "<e/>"] + ["<b>"] * (n - 1)
    parts += ["<c/>", "</b>" * n, "</a>" * n]
    return "".join(parts)


def fit_exponent(sizes: Sequence[int], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) against log(size).

    Zero/negative costs are clamped to a small epsilon so a flat series
    fits ~0 rather than exploding.
    """
    assert len(sizes) == len(costs) >= 2
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(cost, 1e-9)) for cost in costs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    return numerator / denominator


@dataclass(frozen=True, slots=True)
class ScalingSeries:
    """One engine's measured costs across the size family."""

    label: str
    sizes: tuple[int, ...]
    costs: tuple[float, ...]

    @property
    def exponent(self) -> float:
        return fit_exponent(self.sizes, self.costs)

    def row(self) -> dict[str, object]:
        cells: dict[str, object] = {"series": self.label}
        for size, cost in zip(self.sizes, self.costs):
            cells[f"n={size}"] = round(cost, 4)
        cells["fitted k"] = round(self.exponent, 2)
        return cells


def _timed(run: Callable[[], object], repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def chain_scaling(
    sizes: Sequence[int] = (40, 80, 160),
    repeats: int = 3,
    enumerative_cap: int = 120,
) -> list[ScalingSeries]:
    """Measure the figure-1 family across engines; one series per metric.

    The enumerative DOM engine is *cubic* in wall-clock on this family
    (n² partial bindings × O(n) descendant scans), so its series is
    capped at ``enumerative_cap`` — the match *count* it reports is
    already quadratic well before that.
    """
    sizes = tuple(sizes)
    events_by_n: dict[int, list[Event]] = {
        n: list(parse_string(chain_document(n))) for n in sizes
    }

    twigm_time: list[float] = []
    twigm_ops: list[float] = []
    twigm_state: list[float] = []
    explicit_time: list[float] = []
    explicit_records: list[float] = []
    enumerative_sizes: list[int] = []
    enumerated: list[float] = []

    for n in sizes:
        events = events_by_n[n]

        def run_twigm() -> CountingTwigM:
            machine = CountingTwigM(CHAIN_QUERY)
            machine.feed(iter(events))
            return machine

        twigm_time.append(_timed(run_twigm, repeats))
        machine = run_twigm()
        twigm_ops.append(machine.counts.total_work())
        twigm_state.append(machine.counts.peak_entries)

        engine = ExplicitMatchEngine()
        explicit_time.append(
            _timed(lambda: engine.run(CHAIN_QUERY, iter(events)), repeats)
        )
        engine.run(CHAIN_QUERY, iter(events))
        explicit_records.append(engine.peak_matches)

        if n <= enumerative_cap:
            document = build_document(iter(events))
            enumerative_sizes.append(n)
            enumerated.append(count_pattern_matches(document, "//a//b//c"))

    series = [
        ScalingSeries("TwigM time (s)", sizes, tuple(twigm_time)),
        ScalingSeries("TwigM operations", sizes, tuple(twigm_ops)),
        ScalingSeries("TwigM peak entries", sizes, tuple(twigm_state)),
        ScalingSeries("XSQ* time (s)", sizes, tuple(explicit_time)),
        ScalingSeries("XSQ* peak records", sizes, tuple(explicit_records)),
    ]
    if len(enumerative_sizes) >= 2:
        series.append(
            ScalingSeries(
                "Galax* enumerated", tuple(enumerative_sizes), tuple(enumerated)
            )
        )
    return series


def render_chain_scaling(series: Sequence[ScalingSeries]) -> str:
    """The ablation table: costs per n and the fitted exponent."""
    from repro.bench.report import render_dict_rows

    return render_dict_rows(
        "Ablation A: multi-match scaling on the figure-1 chain "
        f"(query {CHAIN_QUERY})",
        [entry.row() for entry in series],
    )


def main() -> int:
    """Print the chain-scaling table; fail unless TwigM work is linear."""
    series = chain_scaling()
    print(render_chain_scaling(series))
    operations = next(s for s in series if s.label == "TwigM operations")
    return 0 if operations.exponent < 1.5 else 1


if __name__ == "__main__":
    sys.exit(main())
