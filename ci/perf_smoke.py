"""CI smoke: the fused push pipeline must beat the reference — and be exact.

The reference ("pull" in the report) is
:class:`~repro.bench.hotpath.ReferenceTokenizer` — the tokenizer's
Python scanner alone — whose pull view's event objects feed the event-stream loop of the paper's machine
for the query's fragment (PathM for predicate-free queries).  Checks the
acceptance properties of the hot path:

1. **Exactness** — the tokenizer (Expat) emits an event stream
   byte-identical to the reference over the XMark corpus, and every
   benchmark query returns identical solution ids through the
   reference and push (also asserted inside the benchmark itself).
2. **Throughput win** — push beats the reference by at least
   ``MIN_SPEEDUP`` on every XMark query.  The local target is 2x (see
   ``BENCH_core.json``); the CI gate is 1.5x to leave headroom for noisy
   shared runners.
3. **Lazy-DFA win** — on every predicate-free XMark query push runs the
   lazy DFA (stepped inline by the tokenizer's Expat callbacks) and
   beats the reference by ``PATH_MIN_SPEEDUP`` at the gate profile.  The
   recorded target is 10x at the default profile; the gate number leaves
   headroom for noisy shared runners.

It then runs the full benchmark at the default profile and writes
``BENCH_core.json`` so the perf trajectory is recorded per commit; the
recorded summary must itself meet the 10x predicate-free target (one
retry — the lazy-DFA configs finish in milliseconds, so a single
descheduling blip can dent a best-of on shared runners).

Run from the repo root::

    PYTHONPATH=src python ci/perf_smoke.py
"""

from __future__ import annotations

import sys

from repro.bench.corpora import benchmark_corpus
from repro.bench.hotpath import reference_events, run_benchmark, write_report
from repro.bench.queries import PATH_CLASS
from repro.stream.events import EventCollector
from repro.stream.tokenizer import XmlTokenizer, iter_text_chunks

MIN_SPEEDUP = 1.5
#: Gate-profile bar for push-vs-pull on predicate-free XMark queries
#: (recorded target: 10x at the default profile; typical tiny-profile
#: readings are 10-12x).
PATH_MIN_SPEEDUP = 6.0
GATE_PROFILE = "tiny"
#: Repeats for the recorded run: the lazy-DFA configs are fast enough
#: that best-of needs more samples to shake scheduler noise out of the
#: recorded speedups.
RECORD_REPEATS = 8
REPORT = "BENCH_core.json"


def scanner_identical(path) -> bool:
    """Event-level differential: the tokenizer == the reference over ``path``."""
    push_tokenizer = XmlTokenizer()
    collector = EventCollector()
    for chunk in iter_text_chunks(path):
        push_tokenizer.feed_into(chunk, collector)
    push_tokenizer.close_into(collector)
    return collector.events == reference_events(path)


def main() -> int:
    corpus = benchmark_corpus(GATE_PROFILE)
    print(f"perf smoke: scanner differential over {corpus.name} "
          f"({corpus.size_bytes()} bytes)")
    if not scanner_identical(corpus.path):
        print("FAIL: the tokenizer diverges from the reference", file=sys.stderr)
        return 1
    print("  tokenizer event stream identical to the reference")

    # The benchmark asserts reference/push solution-id equality per query.
    gate = run_benchmark(profile=GATE_PROFILE, repeats=2)
    failures = 0
    for key, corpus_report in gate["corpora"].items():
        for query, row in corpus_report["queries"].items():
            print(f"  {key}  {query}: push {row['speedup']}x [{row['engine']}] "
                  f"({row['matches']} matches, both pipelines)")
            if key == "xmark" and row["speedup"] < MIN_SPEEDUP:
                failures += 1
                print(
                    f"FAIL: push is only {row['speedup']}x pull for {query!r} "
                    f"(gate: {MIN_SPEEDUP}x)",
                    file=sys.stderr,
                )
            if (
                key == "xmark"
                and row["fragment"] == PATH_CLASS
                and row["speedup"] < PATH_MIN_SPEEDUP
            ):
                failures += 1
                print(
                    f"FAIL: push is only {row['speedup']}x pull "
                    f"for predicate-free {query!r} "
                    f"(gate: {PATH_MIN_SPEEDUP}x)",
                    file=sys.stderr,
                )
    if failures:
        return 1

    # Recorded run: the summary written to BENCH_core.json must meet the
    # 10x predicate-free target.  One retry absorbs a descheduling blip.
    for attempt in (1, 2):
        payload = run_benchmark(repeats=RECORD_REPEATS)
        if payload["summary"]["path"]["xmark_pf_target_met"]:
            break
        if attempt == 1:
            print(f"  predicate-free minimum "
                  f"{payload['summary']['path']['xmark_pf_min_push_vs_pull']}x "
                  f"below target on first recorded run, retrying",
                  file=sys.stderr)
    write_report(payload, REPORT)
    summary = payload["summary"]
    path = summary["path"]
    print(f"  recorded XMark push minimum {summary['xmark_min_push_vs_pull']}x "
          f"(local target {summary['xmark_target']}x)")
    print(f"  recorded XMark predicate-free push minimum "
          f"{path['xmark_pf_min_push_vs_pull']}x "
          f"(target {path['xmark_pf_target']}x)")
    print(f"wrote {REPORT}")
    if not path["xmark_pf_target_met"]:
        print(
            f"FAIL: recorded predicate-free minimum "
            f"{path['xmark_pf_min_push_vs_pull']}x is below the "
            f"{path['xmark_pf_target']}x target",
            file=sys.stderr,
        )
        return 1
    print("perf smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
