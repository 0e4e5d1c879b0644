"""The layered benchmark of the TwigM reproduction: one command, four faces.

Usage (from the repository root)::

    python3 perfbench/run.py --workload standing-xmark --seed 1 --seconds 10 --trace 0

``--trace 0`` makes the timed, untraced run and reports the end-to-end
metrics; ``--trace 1`` makes one untraced and one cProfile-traced pass of
every phase and reports the per-layer metrics (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
non-zero when any output differs from the reference or an operation fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
#: Tail latencies are printed with their sample counts but not listed:
#: their run-to-run spread exceeds the largest bound (0.25) BENCHMARK.json
#: may set (README).
END_TO_END = {
    "setup_s": "s",
    "throughput_mb_s": "MB/s",
    "alt_mb_s": "MB/s",
    "chunk_latency_p50_ms": "ms",
    "result_latency_p50_ms": "ms",
    "peak_mem_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Layers that a workload does not
#: exercise report 0.
PER_LAYER = {
    "stream.tokenizer.self_ms_per_mb": "ms/MB",
    "stream.events": "count",
    "stream.codec.self_ms_per_mb": "ms/MB",
    "stream.writer.self_ms_per_mb": "ms/MB",
    "xpath.setup_ms": "ms",
    "multiq.self_ms_per_mb": "ms/MB",
    "multiq.units": "count",
    "multiq.machine_events_dispatched": "count",
    "multiq.dispatch_reduction": "ratio",
    "core.self_ms_per_mb": "ms/MB",
    "core.results": "count",
    "compile.self_ms_per_mb": "ms/MB",
    "compile.dfa_queries": "count",
    "store.self_ms_per_mb": "ms/MB",
    "store.checkpoints": "count",
    "store.checkpoint_kb_mean": "KB",
    "store.log_bytes_per_event": "B/event",
    "store.skip_ratio": "ratio",
    "store.events_decoded": "count",
    "store.replay_mb_s": "MB/s",
    "store.late_query_ms": "ms",
    "transform.self_ms_per_mb": "ms/MB",
    "transform.fragments": "count",
    "transform.fragment_bytes": "B",
    "serve.self_ms_per_mb": "ms/MB",
    "serve.attempts_per_session": "count",
    "serve.results": "count",
    "other.self_ms_per_mb": "ms/MB",
    "runtime.gc_ms_per_mb": "ms/MB",
    "bench.tracing_overhead": "ratio",
}


def repeat(workload, phase: str, budget_s: float):
    """Run whole passes of ``phase`` while another fits in ``budget_s``
    (at least one)."""
    from workloads import Pass

    acc = Pass()
    started = time.perf_counter()
    while acc.passes == 0 or (
        time.perf_counter() - started) * (acc.passes + 1) / acc.passes <= budget_s:
        try:
            workload.run_pass(phase, acc)
        except Exception as exc:  # a crashed pass is a failed operation
            acc.check(False, f"{workload.name} {phase} raised {exc!r}")
            break
        acc.passes += 1
    return acc


def timed(workload, seconds: float) -> tuple[dict, int, int]:
    from common import MB, median, tail_quantile

    workload.measure_setup()
    accs = {phase: repeat(workload, phase, share * seconds)
            for phase, share in zip(workload.phases, workload.shares)}
    primary, alt = (accs[phase] for phase in workload.phases[:2])
    values = {
        "setup_s": workload.setup_seconds(),
        "throughput_mb_s": primary.bytes / primary.seconds / MB,
        "alt_mb_s": alt.bytes / alt.seconds / MB,
        "chunk_latency_p50_ms": median(primary.chunk_s) * 1e3,
        "result_latency_p50_ms": median(primary.result_s) * 1e3,
        "peak_mem_mb": workload.peak_mem_bytes() / MB,
    }
    for phase, acc in accs.items():
        print(f"phase {phase}: {acc.passes} passes, {acc.bytes} B in "
              f"{acc.wall:.3f} s wall ({acc.seconds:.3f} s at reference speed), "
              f"{acc.attempted} checked, {acc.failed} failed")
    for label, samples in (("chunk", primary.chunk_s), ("result", primary.result_s)):
        value, quantile = tail_quantile(samples)
        others = " ".join(f"p{q * 100:g}={tail_quantile(samples, q)[0] * 1e3:.4f}"
                          for q in (0.9, 0.95))
        print(f"{label} latency: {len(samples)} samples, tail quantile "
              f"p{quantile * 100:g} = {value * 1e3:.4f} ms ({others})")
    attempted = sum(acc.attempted for acc in accs.values())
    failed = sum(acc.failed for acc in accs.values())
    return values, attempted, failed


def traced(workload, seed: int) -> tuple[dict, int, int]:
    from common import MB, OUT
    from layers import LAYERS, self_seconds
    from repro.obs.trace import Tracer
    from workloads import Pass, parse_all

    workload.measure_setup()
    untraced = {phase: Pass() for phase in workload.phases}
    walls = {"untraced": 0.0, "traced": 0.0}

    def run_all(accs, tracer, key):
        for phase in workload.phases:
            if tracer is None:
                workload.run_pass(phase, accs[phase])
            else:
                with tracer.span(f"phase:{phase}"):
                    workload.run_pass(phase, accs[phase], tracer)
            walls[key] += accs[phase].seconds

    gc_s = workload.untraced(lambda: run_all(untraced, None, "untraced"))
    counts = workload.counts()
    tracer = Tracer()
    traced_accs = {phase: Pass() for phase in workload.phases}
    stats = workload.profiled(lambda: run_all(traced_accs, tracer, "traced"))

    traced_mb = sum(acc.bytes for acc in traced_accs.values()) / MB
    untraced_mb = sum(acc.bytes for acc in untraced.values()) / MB
    seconds = self_seconds(stats)
    values = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        if layer != "xpath":
            values[f"{layer}.self_ms_per_mb"] = seconds.get(layer, 0.0) * 1e3 / traced_mb
    values["other.self_ms_per_mb"] = sum(
        s for layer, s in seconds.items() if layer not in LAYERS) * 1e3 / traced_mb
    values["stream.events"] = workload.chunk_map.events
    values["xpath.setup_ms"] = parse_all(workload.queries()) * 1e3
    values["runtime.gc_ms_per_mb"] = gc_s * 1e3 / untraced_mb
    values["bench.tracing_overhead"] = walls["traced"] / walls["untraced"]
    if "replay" in untraced:
        values["store.replay_mb_s"] = (untraced["replay"].bytes
                                       / untraced["replay"].seconds / MB)
        values["store.late_query_ms"] = untraced["late"].seconds * 1e3
    values.update(counts)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    tracer.dump(str(OUT / f"trace-{stem}.json"))
    table = [f"{'layer':<18} {'self ms':>10} {'ms/MB':>10}"]
    for layer, layer_s in sorted(seconds.items(), key=lambda item: -item[1]):
        table.append(f"{layer:<18} {layer_s * 1e3:>10.1f} "
                     f"{layer_s * 1e3 / traced_mb:>10.1f}")
    (OUT / f"layers-{stem}.txt").write_text("\n".join(table) + "\n")
    print("\n".join(table))
    multiq, core = seconds.get("multiq", 0.0), seconds.get("core", 0.0)
    if multiq or core:
        bound = "router-bound" if multiq > core else "machine-bound"
        print(f"multiq {multiq * 1e3:.1f} ms vs core {core * 1e3:.1f} ms: {bound}")
    print(f"trace written to {OUT / f'trace-{stem}.json'}")
    accs = [*untraced.values(), *traced_accs.values()]
    return (values, sum(a.attempted for a in accs), sum(a.failed for a in accs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    started = time.perf_counter()
    workload = make(args.workload, args.seed, args.size)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{json.dumps(workload.describe())} "
          f"(inputs ready in {time.perf_counter() - started:.2f} s)")
    try:
        if args.trace:
            values, attempted, failed = traced(workload, args.seed)
            units = PER_LAYER
        else:
            values, attempted, failed = timed(workload, args.seconds)
            units = END_TO_END
    finally:
        workload.close()
    print(f"failed_ratio {failed / attempted if attempted else 1.0:g} "
          f"({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
