"""CI smoke: 1000 standing queries over XMark through the multiq engine.

Checks the acceptance properties of the shared dispatch engine (every
path query a member of one shared lazy-DFA unit):

1. **Exactness** — routed multi-query results are byte-identical to
   evaluating every query independently with its own
   :class:`repro.core.processor.XPathStream` (the broadcast oracle).
2. **Routing win** — the demand-gated alphabet router delivers at least
   50x fewer machine events than broadcast would on the 1000-query
   workload.
3. **Dispatch cost follows deliveries** — the dispatcher visits at most
   1.25 routes (one demand-gate test each) per delivery it makes: the
   open-label index skips the routes whose gate label has no open
   element (broadcast-era routing visited 5.6 per delivery here).
4. **Bounded emission state** — a callback-mode pass, checkpointed every
   256 events, never holds more de-duplication ids (the ``seen`` lists
   of its snapshots, summed) than 1% of the results it has emitted:
   sinks remember ids only for their machine's open root match.
5. **Shared units** — the engine runs the 1000 queries on at most 145
   machine units (141 measured): the 517 path queries are the members of
   one shared lazy DFA (288 PathM units without it), the 167
   value-tested queries that differ only in their constant share 24
   value-shape units, and the 316 plain ``//X[Y]`` / ``//X[Y]//Z``
   queries that differ only in their labels share 116 label-shape units:
   59 with the branch label left out and 57 ``//X[Y]//Z`` units with the
   return label left out too (230 units when the return label is kept,
   326 without label shapes, 743 without any of the three).

It then runs the full 10/100/1000 scaling benchmark and writes
``BENCH_multiq.json`` so the perf trajectory is recorded per commit.

Run from the repo root::

    PYTHONPATH=src python ci/multiq_smoke.py
"""

from __future__ import annotations

import sys

from repro.bench.multiq import multiq_workload, run_benchmark, write_report
from repro.core.processor import XPathStream
from repro.datasets.xmark import xmark_events
from repro.multiq.engine import MultiQueryEngine

QUERY_COUNT = 1000
SCALE = 1.0
MIN_REDUCTION = 50.0
MAX_GATE_TESTS_PER_DELIVERY = 1.25
SLICE_EVENTS = 256
MAX_SEEN_SHARE = 0.01
MAX_UNITS = 145
REPORT = "BENCH_multiq.json"


def gate(label: str, queries: dict, events: list, expected: dict) -> bool:
    """Run one engine over ``events``; True when every property holds."""
    engine = MultiQueryEngine(queries)
    engine.feed_events(events)
    routed = engine.results()
    stats = engine.dispatch_stats()
    print(
        f"  {label}: {stats.units} machines, dispatched "
        f"{stats.machine_events_dispatched} of {stats.machine_events_broadcast} "
        f"broadcast machine-events ({stats.reduction:.2f}x reduction), "
        f"{stats.gate_tests} gate tests"
    )

    if stats.units > MAX_UNITS:
        print(
            f"FAIL: {label}: {stats.units} machine units is above the "
            f"{MAX_UNITS} bound (path queries or shapes not shared?)",
            file=sys.stderr,
        )
        return False

    failures = 0
    for name, query in queries.items():
        if routed[name] != expected[name]:
            failures += 1
            if failures <= 5:
                print(
                    f"  MISMATCH {label} {name} ({query}): "
                    f"routed={routed[name]} expected={expected[name]}",
                    file=sys.stderr,
                )
    if failures:
        print(
            f"FAIL: {label}: {failures}/{len(queries)} queries diverge from "
            f"independent evaluation",
            file=sys.stderr,
        )
        return False
    print(f"  {label}: all {len(queries)} query results identical to "
          f"independent evaluation")

    if stats.reduction < MIN_REDUCTION:
        print(
            f"FAIL: {label}: dispatch reduction {stats.reduction:.2f}x is "
            f"below the {MIN_REDUCTION:.0f}x target",
            file=sys.stderr,
        )
        return False
    per_delivery = stats.gate_tests / stats.machine_events_dispatched
    print(f"  {label}: {per_delivery:.3f} gate tests per delivery")
    if per_delivery > MAX_GATE_TESTS_PER_DELIVERY:
        print(
            f"FAIL: {label}: {per_delivery:.3f} gate tests per delivery is "
            f"above the {MAX_GATE_TESTS_PER_DELIVERY} bound",
            file=sys.stderr,
        )
        return False
    return bounded_state_gate(label, queries, events)


def bounded_state_gate(label: str, queries: dict, events: list) -> bool:
    """Feed a callback-mode engine in slices; True when the peak total of
    snapshot ``seen`` ids stays within ``MAX_SEEN_SHARE`` of the results."""
    emitted = 0

    def count(_name: str, _node_id: int) -> None:
        nonlocal emitted
        emitted += 1

    engine = MultiQueryEngine(queries, on_match=count)
    peak = 0
    for start in range(0, len(events), SLICE_EVENTS):
        engine.feed_events(events[start:start + SLICE_EVENTS])
        held = sum(len(sink["seen"]) for unit in engine.snapshot()["units"]
                   for sink in unit["sinks"].values())
        peak = max(peak, held)
    print(f"  {label}: peak {peak} de-duplication ids held for "
          f"{emitted} results emitted")
    if peak > MAX_SEEN_SHARE * emitted:
        print(
            f"FAIL: {label}: sinks held {peak} ids, more than "
            f"{MAX_SEEN_SHARE:.0%} of the {emitted} results",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    queries = multiq_workload(QUERY_COUNT)
    events = list(xmark_events(SCALE))
    print(f"multiq smoke: {len(queries)} queries, {len(events)} events")
    expected = {
        name: XPathStream(query).evaluate(events) for name, query in queries.items()
    }
    if not gate("default", queries, events, expected):
        return 1

    payload = run_benchmark()
    write_report(payload, REPORT)
    for row in payload["rows"]:
        print(
            f"  bench: {row['queries']:>4} queries  "
            f"{row['events_per_sec']:>8} events/s  "
            f"reduction {row['reduction']:.2f}x"
        )
    print(f"wrote {REPORT}")
    print("multiq smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
