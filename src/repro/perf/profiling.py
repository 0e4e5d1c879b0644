"""Deterministic profiling of one evaluation: ``python -m repro profile``.

Wraps :mod:`cProfile` around one evaluation of one query over one
document and renders the :mod:`pstats` hot-spot table, so a performance
regression can be localised without leaving the repository tooling::

    python -m repro profile '//item/name' auction.xml
    python -m repro profile --top 40 --sort tottime '//a//b' deep.xml

The same run is available programmatically as :func:`profile_pipeline`,
which returns the rendered table alongside the solution ids (so callers
can assert the profiled run still computed the right answer).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys

from repro.core.processor import XPathStream

#: pstats sort keys accepted on the command line.
SORT_KEYS = ("cumulative", "tottime", "calls")


def profile_pipeline(
    query: str,
    source,
    *,
    engine: str | None = None,
    top: int = 25,
    sort: str = "cumulative",
) -> tuple[str, list[int]]:
    """Profile one evaluation; return ``(stats_table, solution_ids)``."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, not {sort!r}")
    stream = XPathStream(query, engine=engine)
    profiler = cProfile.Profile()
    ids = profiler.runcall(stream.evaluate, source)
    rendered = io.StringIO()
    stats = pstats.Stats(profiler, stream=rendered)
    stats.sort_stats(sort).print_stats(top)
    return rendered.getvalue(), ids


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="cProfile one query evaluation.",
    )
    parser.add_argument("query", help="the XPath query")
    parser.add_argument(
        "source",
        nargs="?",
        default="-",
        help="XML file path, or '-' for stdin (the default)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "pathm", "branchm", "twigm"),
        default="auto",
        help="force a machine (default: cheapest for the query's fragment)",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort",
        choices=SORT_KEYS,
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    args = parser.parse_args(argv)
    source = sys.stdin.read() if args.source == "-" else args.source
    engine = None if args.engine == "auto" else args.engine
    table, ids = profile_pipeline(
        args.query,
        source,
        engine=engine,
        top=args.top,
        sort=args.sort,
    )
    print(table, end="")
    print(f"{len(ids)} solutions")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
