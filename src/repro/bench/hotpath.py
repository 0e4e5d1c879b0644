"""Core-throughput benchmark: reference vs push pipeline, MB/s and events/s.

The tokenizer has one scanner; its regex fast path is checked against
:class:`ReferenceTokenizer`, the same scanner with the fast path switched
off, so every tag takes the char-level slow path.  The reference feeds
event objects from its pull view (:meth:`XmlTokenizer.feed`) into the
machine's event-stream loop — the shape the pipeline had before the
fused path existed — and is reported in the ``pull`` columns.  The
benchmark measures three layers of the hot path separately so a
regression can be attributed:

* **tokenizer-only** — scanning cost with no query machine: the ``pull``
  config drains the reference tokenizer's events, the ``push`` config
  drives a no-op :class:`~repro.stream.events.CountingHandler` from
  :meth:`XmlTokenizer.feed_into`.
* **pull pipeline** — reference events into
  :meth:`XPathStream.feed_events`.
* **push pipeline** — :meth:`XPathStream.evaluate` (fused regex scan →
  direct machine callbacks; see :mod:`repro.core.textfeed`).
* **compiled pipeline** — ``XPathStream(query, compiled=True)``
  ``.evaluate`` (:mod:`repro.compile`: the lazy-DFA front-end plus
  turbo scanner for predicate-free paths; the rest run the interpreted
  machines, so their compiled column equals push).

Two corpora bracket the workload space: the XMark auction document
(broad vocabulary, attribute-heavy, realistic text) and a synthetic
recursive ``a``/``b`` chain document (deep nesting, tiny vocabulary —
the worst case for per-element overhead).  Every pipeline row also
cross-checks that the reference and push produced identical solution
ids, so the benchmark doubles as an end-to-end equivalence smoke.

Run it from the repo root::

    PYTHONPATH=src python -m repro.bench.hotpath --output BENCH_core.json

``BENCH_core.json`` is the recorded trajectory; ``--quick`` (tiny
corpus, one repeat) is what ``ci/perf_smoke.py`` uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import time

from repro.bench.corpora import DEFAULT_PROFILE, Corpus, benchmark_corpus, cache_dir
from repro.core.processor import XPathStream
from repro.stream.events import CountingHandler
from repro.stream.tokenizer import XmlTokenizer, iter_text_chunks

#: A pattern that matches nowhere: it switches the fast path off.
_NEVER = re.compile(r"(?!)")


class ReferenceTokenizer(XmlTokenizer):
    """The tokenizer with its regex fast path switched off.

    Every tag takes the char-level slow path (``_find_tag_end`` →
    ``_handle_tag`` → ``_parse_tag_body``), which the fast-path patterns
    only shortcut.  Differential tests and the perf gate compare the
    fast path against this class: same scanner loop, independent tag
    recognition.
    """

    _fast_start_re = _NEVER
    _fast_end_re = _NEVER


def reference_events(source, **options) -> list:
    """Every event of ``source`` through :class:`ReferenceTokenizer`'s
    pull view, final events included; ``options`` go to the tokenizer."""
    tokenizer = ReferenceTokenizer(**options)
    events = []
    for chunk in iter_text_chunks(source):
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events


#: Queries per corpus: (query, why it is here).  The mix covers all
#: three machines and the value-test character path.
XMARK_QUERIES = (
    ("//regions//item/name", "PathM; '//' recursion over a broad document"),
    ("//description//text", "PathM; '//' into recursive parlist content"),
    ("//open_auction[bidder/personref]//reserve", "TwigM; structural predicate"),
    ("//item[quantity < 2]/name", "TwigM; value test (characters hot path)"),
)
CHAIN_QUERIES = (
    ("//a//b", "PathM; every level of the recursion participates"),
)

#: Chain-corpus shape per profile: (nesting depth, number of chains).
CHAIN_SHAPES = {
    "tiny": (12, 60),
    "small": (24, 1200),
    "medium": (32, 4000),
    "large": (48, 16000),
}

#: Acceptance bar recorded in the summary: push must beat the reference
#: by this factor on every XMark query.
XMARK_TARGET = 2.0

#: Compiled-tier bar: the lazy-DFA + turbo-scanner path must beat the
#: reference by this factor on every predicate-free XMark query.
COMPILED_TARGET = 10.0


def chain_corpus(profile: str = DEFAULT_PROFILE) -> Corpus:
    """The recursive a/b-chain corpus at the given profile, disk-cached.

    ``chains`` independent spines, each ``depth`` elements deep
    alternating ``<a>``/``<b>`` with a short text payload at the bottom
    — maximal element density, minimal vocabulary.
    """
    depth, chains = CHAIN_SHAPES[profile]
    path = cache_dir() / f"chain-{profile}.xml"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("<root>")
            open_tags = "".join(
                f"<{'a' if level % 2 == 0 else 'b'}>" for level in range(depth)
            )
            close_tags = "".join(
                f"</{'b' if level % 2 else 'a'}>" for level in reversed(range(depth))
            )
            for index in range(chains):
                handle.write(open_tags)
                handle.write(f"leaf payload {index}")
                handle.write(close_tags)
            handle.write("</root>\n")
        tmp.rename(path)
    return Corpus(f"chain-{profile}", path)


def _best_of(repeats: int, run) -> float:
    """Best wall time of ``repeats`` calls of the zero-arg ``run``.

    Collection is disabled around each timed call (as ``timeit`` does):
    a cycle-collection pause landing inside one config but not another
    would otherwise skew the recorded speedups, which matters once the
    fast configs finish in milliseconds.
    """
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            gc.collect()
            best = min(best, run())
    finally:
        if was_enabled:
            gc.enable()
    return best


def _rates(seconds: float, size_bytes: int, events: int) -> dict:
    return {
        "seconds": round(seconds, 6),
        "mb_per_s": round(size_bytes / seconds / 1e6, 3) if seconds else None,
        "events_per_s": round(events / seconds) if seconds else None,
    }


def _time_tokenizer_pull(path) -> tuple[float, int]:
    started = time.perf_counter()
    count = 0
    tokenizer = ReferenceTokenizer()
    for chunk in iter_text_chunks(path):
        for _event in tokenizer.feed(chunk):
            count += 1
    for _event in tokenizer.close():
        count += 1
    return time.perf_counter() - started, count


def _time_tokenizer_push(path) -> tuple[float, int]:
    handler = CountingHandler()
    started = time.perf_counter()
    tokenizer = XmlTokenizer()
    for chunk in iter_text_chunks(path):
        tokenizer.feed_into(chunk, handler)
    tokenizer.close_into(handler)
    return time.perf_counter() - started, handler.total


def _time_pipeline(
    query: str, path, push: bool, compiled: bool = False
) -> tuple[float, list[int]]:
    stream = XPathStream(query, compiled=compiled)
    started = time.perf_counter()
    if push:
        ids = stream.evaluate(path)
    else:
        tokenizer = ReferenceTokenizer()
        for chunk in iter_text_chunks(path):
            stream.feed_events(tokenizer.feed(chunk))
        stream.feed_events(tokenizer.close())
        ids = stream.results
    return time.perf_counter() - started, ids


def bench_corpus(corpus: Corpus, queries, repeats: int) -> dict:
    """All configs over one corpus; returns its report subtree."""
    path = corpus.path
    size = corpus.size_bytes()

    pull_events: list[int] = []
    push_events: list[int] = []

    def tokenize_pull() -> float:
        seconds, count = _time_tokenizer_pull(path)
        pull_events.append(count)
        return seconds

    def tokenize_push() -> float:
        seconds, count = _time_tokenizer_push(path)
        push_events.append(count)
        return seconds

    pull_seconds = _best_of(repeats, tokenize_pull)
    push_seconds = _best_of(repeats, tokenize_push)
    if pull_events[0] != push_events[0]:
        raise AssertionError(
            f"{corpus.name}: pull tokenizer saw {pull_events[0]} events, "
            f"push saw {push_events[0]}"
        )
    events = pull_events[0]
    report = {
        "bytes": size,
        "events": events,
        "tokenizer": {
            "pull": _rates(pull_seconds, size, events),
            "push": _rates(push_seconds, size, events),
            "speedup": round(pull_seconds / push_seconds, 2) if push_seconds else None,
        },
        "queries": {},
    }

    for query, why in queries:
        pull_ids: list[list[int]] = []
        push_ids: list[list[int]] = []
        compiled_ids: list[list[int]] = []

        def run_pull() -> float:
            seconds, ids = _time_pipeline(query, path, push=False)
            pull_ids.append(ids)
            return seconds

        def run_push() -> float:
            seconds, ids = _time_pipeline(query, path, push=True)
            push_ids.append(ids)
            return seconds

        def run_compiled() -> float:
            seconds, ids = _time_pipeline(query, path, push=True, compiled=True)
            compiled_ids.append(ids)
            return seconds

        q_pull = _best_of(repeats, run_pull)
        q_push = _best_of(repeats, run_push)
        q_compiled = _best_of(repeats, run_compiled)
        if pull_ids[0] != push_ids[0]:
            raise AssertionError(
                f"{corpus.name} {query!r}: pull and push disagree "
                f"({len(pull_ids[0])} vs {len(push_ids[0])} ids)"
            )
        if pull_ids[0] != compiled_ids[0]:
            raise AssertionError(
                f"{corpus.name} {query!r}: pull and compiled disagree "
                f"({len(pull_ids[0])} vs {len(compiled_ids[0])} ids)"
            )
        report["queries"][query] = {
            "engine": XPathStream(query).engine_name,
            "compiled_engine": XPathStream(query, compiled=True).engine_name,
            "why": why,
            "matches": len(pull_ids[0]),
            "pull": _rates(q_pull, size, events),
            "push": _rates(q_push, size, events),
            "compiled": _rates(q_compiled, size, events),
            "speedup": round(q_pull / q_push, 2) if q_push else None,
            "compiled_vs_pull": (
                round(q_pull / q_compiled, 2) if q_compiled else None
            ),
            "compiled_vs_push": (
                round(q_push / q_compiled, 2) if q_compiled else None
            ),
        }
    return report


def run_benchmark(profile: str = DEFAULT_PROFILE, repeats: int = 3) -> dict:
    """Run both corpora; return the ``BENCH_core.json`` payload."""
    corpora = {
        "xmark": (benchmark_corpus(profile), XMARK_QUERIES),
        "chain": (chain_corpus(profile), CHAIN_QUERIES),
    }
    payload: dict = {
        "benchmark": "hotpath",
        "profile": profile,
        "repeats": repeats,
        "corpora": {},
    }
    for key, (corpus, queries) in corpora.items():
        payload["corpora"][key] = bench_corpus(corpus, queries, repeats)
    xmark_speedups = [
        row["speedup"]
        for row in payload["corpora"]["xmark"]["queries"].values()
        if row["speedup"] is not None
    ]
    payload["summary"] = {
        "xmark_min_push_vs_pull": min(xmark_speedups) if xmark_speedups else None,
        "xmark_target": XMARK_TARGET,
        "xmark_target_met": bool(
            xmark_speedups and min(xmark_speedups) >= XMARK_TARGET
        ),
    }
    # Compiled-tier summary: the 10x bar applies to predicate-free XMark
    # queries (those the interpreted selector routes to PathM — exactly
    # the class the lazy-DFA front-end accepts); everywhere else the
    # compiled run must at least not lose to the current push path.
    pf_vs_pull = [
        row["compiled_vs_pull"]
        for row in payload["corpora"]["xmark"]["queries"].values()
        if row["engine"] == "pathm" and row["compiled_vs_pull"] is not None
    ]
    all_vs_push = [
        row["compiled_vs_push"]
        for corpus_report in payload["corpora"].values()
        for row in corpus_report["queries"].values()
        if row["compiled_vs_push"] is not None
    ]
    payload["summary"]["compiled"] = {
        "xmark_pf_min_vs_pull": min(pf_vs_pull) if pf_vs_pull else None,
        "xmark_pf_target": COMPILED_TARGET,
        "xmark_pf_target_met": bool(
            pf_vs_pull and min(pf_vs_pull) >= COMPILED_TARGET
        ),
        "min_vs_push": min(all_vs_push) if all_vs_push else None,
    }
    return payload


def write_report(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render(payload: dict) -> str:
    lines = []
    for key, corpus in payload["corpora"].items():
        size_mb = corpus["bytes"] / 1e6
        lines.append(f"{key}: {size_mb:.2f} MB, {corpus['events']} events")
        tok = corpus["tokenizer"]
        lines.append(
            f"  tokenizer   pull {tok['pull']['mb_per_s']:>7} MB/s   "
            f"push {tok['push']['mb_per_s']:>7} MB/s   "
            f"speedup {tok['speedup']}x"
        )
        for query, row in corpus["queries"].items():
            lines.append(
                f"  {query}  [{row['engine']} / compiled {row['compiled_engine']}]\n"
                f"              pull {row['pull']['mb_per_s']:>7} MB/s   "
                f"push {row['push']['mb_per_s']:>7} MB/s   "
                f"speedup {row['speedup']}x   ({row['matches']} matches)\n"
                f"              compiled {row['compiled']['mb_per_s']:>7} MB/s   "
                f"vs pull {row['compiled_vs_pull']}x   "
                f"vs push {row['compiled_vs_push']}x"
            )
    summary = payload["summary"]
    lines.append(
        f"XMark push-vs-pull minimum: {summary['xmark_min_push_vs_pull']}x "
        f"(target {summary['xmark_target']}x: "
        f"{'met' if summary['xmark_target_met'] else 'NOT MET'})"
    )
    compiled = summary["compiled"]
    lines.append(
        f"XMark predicate-free compiled-vs-pull minimum: "
        f"{compiled['xmark_pf_min_vs_pull']}x "
        f"(target {compiled['xmark_pf_target']}x: "
        f"{'met' if compiled['xmark_pf_target_met'] else 'NOT MET'}); "
        f"compiled-vs-push minimum {compiled['min_vs_push']}x"
    )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.hotpath",
        description="Core reference-vs-push throughput benchmark.",
    )
    parser.add_argument("--profile", default=DEFAULT_PROFILE)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default="BENCH_core.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny corpora, one repeat (the CI configuration)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.profile, args.repeats = "tiny", 1
    payload = run_benchmark(profile=args.profile, repeats=args.repeats)
    write_report(payload, args.output)
    print(render(payload))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
