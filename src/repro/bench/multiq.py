"""Multi-query dispatch benchmark: events/sec at 10/100/1000 queries.

The workload models the paper's motivating deployment — many standing
queries against one feed — on the XMark auction corpus
(:mod:`repro.datasets.xmark`).  Query sets are generated
deterministically from the auction DTD's element vocabulary with a
template mix (paths, ``//`` chains, predicates, value tests, a sprinkle
of wildcards and exact duplicates), so runs are comparable across
commits; ``BENCH_multiq.json`` is the recorded trajectory.

Per query count the benchmark reports engine throughput plus the routing
counters of :class:`repro.multiq.engine.DispatchStats` — in particular
``reduction``, the broadcast-to-dispatched machine-event ratio that the
alphabet router is buying.  For small query counts it also times the
broadcast baseline (one dedicated :class:`XPathStream` per query, every
event delivered to every machine) for a measured speedup.

Run it directly::

    PYTHONPATH=src python -m repro.bench.multiq --output BENCH_multiq.json
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Iterable

from repro.core.processor import XPathStream
from repro.datasets.xmark import xmark_dtd, xmark_events
from repro.multiq.engine import MultiQueryEngine
from repro.stream.events import Event

#: Query counts of the standing-query scaling experiment.
DEFAULT_COUNTS = (10, 100, 1000)
#: XMark scale factor for the benchmark document.
DEFAULT_SCALE = 1.0
#: Workload generator seed (fixed → comparable across commits).
DEFAULT_SEED = 31
#: Broadcast baselines are only timed up to this many queries (the whole
#: point is that broadcast stops scaling; no need to wait for it).
DEFAULT_BASELINE_CAP = 100

#: Numeric leaf tags usable in value-test templates.
_NUMERIC_TAGS = ("price", "quantity", "increase", "current", "initial", "reserve")


def xmark_vocabulary() -> list[str]:
    """The auction DTD's element names, sorted (the router's universe)."""
    return sorted(xmark_dtd().elements)


def multiq_workload(count: int, seed: int = DEFAULT_SEED) -> dict[str, str]:
    """Generate ``count`` named standing queries over the XMark vocabulary.

    Deterministic in ``(count, seed)``.  The mix is mostly
    narrow-alphabet queries (what a real standing-query fleet looks
    like: each watcher cares about a few tags), with ~5% exact
    duplicates (dedup food) and ~2% wildcard queries (which defeat
    routing and keep the engine honest).
    """
    rng = random.Random(seed)
    vocabulary = xmark_vocabulary()
    queries: dict[str, str] = {}
    specs: list[str] = []

    def tag() -> str:
        return rng.choice(vocabulary)

    templates = (
        lambda: f"//{tag()}",
        lambda: f"//{tag()}//{tag()}",
        lambda: f"/site//{tag()}",
        lambda: f"//{tag()}[{tag()}]",
        lambda: f"//{tag()}[{tag()}]//{tag()}",
        lambda: f"//{rng.choice(('item', 'open_auction', 'closed_auction', 'person'))}"
                f"[{rng.choice(_NUMERIC_TAGS)} < {rng.randrange(10, 1500)}]",
    )
    while len(specs) < count:
        roll = rng.random()
        if specs and roll < 0.05:
            specs.append(rng.choice(specs))  # exact duplicate
        elif roll < 0.07:
            specs.append(f"//{tag()}//*")  # materialised wildcard
        else:
            specs.append(rng.choice(templates)())
    for index, spec in enumerate(specs):
        queries[f"q{index:04d}"] = spec
    return queries


def _time_engine(
    queries: dict[str, str], events: list[Event], repeats: int
) -> tuple[MultiQueryEngine, float]:
    """Best-of-``repeats`` wall time for one routed pass over ``events``."""
    engine = MultiQueryEngine(queries)
    best = float("inf")
    for _ in range(max(1, repeats)):
        engine.reset()
        started = time.perf_counter()
        engine.feed_events(events)
        best = min(best, time.perf_counter() - started)
    return engine, best


def _time_broadcast(
    queries: dict[str, str], events: list[Event], repeats: int
) -> float:
    """Best-of wall time for the broadcast baseline (stream per query)."""
    streams = [XPathStream(query) for query in queries.values()]
    best = float("inf")
    for _ in range(max(1, repeats)):
        for stream in streams:
            stream.reset()
        started = time.perf_counter()
        for stream in streams:
            stream.feed_events(events)
        best = min(best, time.perf_counter() - started)
    return best


def run_benchmark(
    counts: Iterable[int] = DEFAULT_COUNTS,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    repeats: int = 3,
    baseline_cap: int = DEFAULT_BASELINE_CAP,
) -> dict:
    """Run the standing-query scaling benchmark; return the JSON payload."""
    events = list(xmark_events(scale))
    rows = []
    for count in counts:
        queries = multiq_workload(count, seed)
        engine, seconds = _time_engine(queries, events, repeats)
        stats = engine.dispatch_stats()
        row = {
            "queries": count,
            "machines": stats.units,
            "events": stats.events,
            "seconds": round(seconds, 6),
            "events_per_sec": round(stats.events / seconds) if seconds else None,
            "machine_events_dispatched": stats.machine_events_dispatched,
            "machine_events_broadcast": stats.machine_events_broadcast,
            "reduction": round(stats.reduction, 2),
        }
        if count <= baseline_cap:
            broadcast_seconds = _time_broadcast(queries, events, repeats)
            row["broadcast_seconds"] = round(broadcast_seconds, 6)
            row["speedup_vs_broadcast"] = (
                round(broadcast_seconds / seconds, 2) if seconds else None
            )
        rows.append(row)
    return {
        "benchmark": "multiq",
        "dataset": "xmark",
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "event_count": len(events),
        "rows": rows,
    }


def write_report(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.multiq",
        description="Standing-query scaling benchmark over XMark.",
    )
    parser.add_argument("--counts", type=int, nargs="+", default=list(DEFAULT_COUNTS))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--baseline-cap", type=int, default=DEFAULT_BASELINE_CAP)
    parser.add_argument("--output", default="BENCH_multiq.json")
    args = parser.parse_args(argv)
    payload = run_benchmark(
        counts=args.counts,
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        baseline_cap=args.baseline_cap,
    )
    write_report(payload, args.output)
    for row in payload["rows"]:
        line = (
            f"{row['queries']:>5} queries  {row['machines']:>4} machines  "
            f"{row['events_per_sec']:>8} events/s  "
            f"reduction {row['reduction']:>7.2f}x"
        )
        if "speedup_vs_broadcast" in row:
            line += f"  speedup {row['speedup_vs_broadcast']}x"
        print(line)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
