"""Core-throughput benchmark: reference vs push pipeline, MB/s and events/s.

The tokenizer parses with Expat; it is checked against
:class:`ReferenceTokenizer`, its Python scanner alone.  The reference
feeds event objects from its pull view (:meth:`XmlTokenizer.feed`) into
the event-stream loop of the paper's machine for the query's fragment
(PathM for predicate-free queries) — the shape the pipeline had before the
fused path and the lazy DFA existed — and is reported in the ``pull``
columns.  The benchmark measures these layers of the hot path
separately so a regression can be attributed:

* **tokenizer-only** — scanning cost with no query machine: the ``pull``
  config drains the reference tokenizer's events, the ``push`` config
  drives a no-op :class:`~repro.stream.events.CountingHandler` from
  :meth:`XmlTokenizer.feed_into`.
* **pull pipeline** — reference events into
  :meth:`XPathStream.feed_events` of a stream on the paper's machine.
* **push pipeline** — :meth:`XPathStream.evaluate` as built by default
  (Expat callbacks → direct machine callbacks, see
  :mod:`repro.core.textfeed`; predicate-free queries run the lazy DFA of
  :mod:`repro.compile`, stepped inline by the Expat callbacks).

Two corpora bracket the workload space: the XMark auction document
(broad vocabulary, attribute-heavy, realistic text) and a synthetic
recursive ``a``/``b`` chain document (deep nesting, tiny vocabulary —
the worst case for per-element overhead).  Every pipeline row also
cross-checks that the reference and push produced identical solution
ids, so the benchmark doubles as an end-to-end equivalence smoke (for
predicate-free queries, of the lazy DFA against PathM).

Run it from the repo root::

    PYTHONPATH=src python -m repro.bench.hotpath --output BENCH_core.json

``BENCH_core.json`` is the recorded trajectory; ``--quick`` (tiny
corpus, one repeat) is what ``ci/perf_smoke.py`` uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from repro.bench.corpora import DEFAULT_PROFILE, Corpus, benchmark_corpus, cache_dir
from repro.bench.queries import PATH_CLASS
from repro.core.processor import XPathStream
from repro.stream.events import CountingHandler
from repro.stream.tokenizer import XmlTokenizer, iter_text_chunks
from repro.xpath.querytree import compile_query

class ReferenceTokenizer(XmlTokenizer):
    """The tokenizer's Python scanner alone: Expat is not used.

    Every tag goes through ``_find_tag_end`` → ``_handle_tag`` →
    ``_parse_tag_body``.  Differential tests and the perf gate compare
    the tokenizer, which parses with Expat and falls back to the same
    scanner, against this class.
    """

    _expat = False


def reference_events(source, **options) -> list:
    """Every event of ``source`` through :class:`ReferenceTokenizer`'s
    pull view, final events included; ``options`` go to the tokenizer."""
    tokenizer = ReferenceTokenizer(**options)
    events = []
    for chunk in iter_text_chunks(source):
        events.extend(tokenizer.feed(chunk))
    events.extend(tokenizer.close())
    return events


#: Queries per corpus: (query, why it is here).  The mix covers the
#: lazy DFA, TwigM and the value-test character path.
XMARK_QUERIES = (
    ("//regions//item/name", "lazy DFA; '//' recursion over a broad document"),
    ("//description//text", "lazy DFA; '//' into recursive parlist content"),
    ("//open_auction[bidder/personref]//reserve", "TwigM; structural predicate"),
    ("//item[quantity < 2]/name", "TwigM; value test (characters hot path)"),
)
CHAIN_QUERIES = (
    ("//a//b", "lazy DFA; every level of the recursion participates"),
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

#: Predicate-free bar: push (the lazy DFA) must beat the reference
#: (PathM) by this factor on every predicate-free XMark query.
PATH_TARGET = 10.0


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
    query: str, path, push: bool, engine: str | None = None
) -> tuple[float, list[int]]:
    stream = XPathStream(query, engine=engine)
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
        fragment = compile_query(query).fragment()
        # The reference runs the paper's machine for the fragment.
        reference = "pathm" if fragment == PATH_CLASS else None
        pull_ids: list[list[int]] = []
        push_ids: list[list[int]] = []

        def run_pull() -> float:
            seconds, ids = _time_pipeline(query, path, push=False, engine=reference)
            pull_ids.append(ids)
            return seconds

        def run_push() -> float:
            seconds, ids = _time_pipeline(query, path, push=True)
            push_ids.append(ids)
            return seconds

        q_pull = _best_of(repeats, run_pull)
        q_push = _best_of(repeats, run_push)
        if pull_ids[0] != push_ids[0]:
            raise AssertionError(
                f"{corpus.name} {query!r}: pull and push disagree "
                f"({len(pull_ids[0])} vs {len(push_ids[0])} ids)"
            )
        report["queries"][query] = {
            "fragment": fragment,
            "engine": XPathStream(query).engine_name,
            "why": why,
            "matches": len(pull_ids[0]),
            "pull": _rates(q_pull, size, events),
            "push": _rates(q_push, size, events),
            "speedup": round(q_pull / q_push, 2) if q_push else None,
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
    # The 10x bar applies to predicate-free XMark queries: the lazy DFA
    # against PathM, each behind its own tokenizer.
    pf_speedups = [
        row["speedup"]
        for row in payload["corpora"]["xmark"]["queries"].values()
        if row["fragment"] == PATH_CLASS and row["speedup"] is not None
    ]
    payload["summary"]["path"] = {
        "xmark_pf_min_push_vs_pull": min(pf_speedups) if pf_speedups else None,
        "xmark_pf_target": PATH_TARGET,
        "xmark_pf_target_met": bool(
            pf_speedups and min(pf_speedups) >= PATH_TARGET
        ),
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
                f"  {query}  [{row['engine']}]\n"
                f"              pull {row['pull']['mb_per_s']:>7} MB/s   "
                f"push {row['push']['mb_per_s']:>7} MB/s   "
                f"speedup {row['speedup']}x   ({row['matches']} matches)"
            )
    summary = payload["summary"]
    lines.append(
        f"XMark push-vs-pull minimum: {summary['xmark_min_push_vs_pull']}x "
        f"(target {summary['xmark_target']}x: "
        f"{'met' if summary['xmark_target_met'] else 'NOT MET'})"
    )
    path = summary["path"]
    lines.append(
        f"XMark predicate-free push-vs-pull minimum: "
        f"{path['xmark_pf_min_push_vs_pull']}x "
        f"(target {path['xmark_pf_target']}x: "
        f"{'met' if path['xmark_pf_target_met'] else 'NOT MET'})"
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
