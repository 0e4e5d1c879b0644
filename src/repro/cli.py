"""The ``twigm`` command-line XPath processor.

A small ViteX-style front end [11] over the library::

    twigm '//book[price < 30]//title' catalog.xml
    cat feed.xml | twigm '//alert[severity = "high"]/source' -
    twigm --count --engine twigm '//section//title' book.xml
    twigm --fragments '//entry[id = "7"]' data.xml

Output modes: node ids (default, one per line, emitted incrementally),
``--count`` (just the number of solutions), or ``--fragments`` (the
matched elements serialized as XML, like the paper's implementation —
footnote 3).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.processor import XPathStream
from repro.errors import ReproError
from repro.xpath.querytree import QueryTree, compile_query


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twigm",
        description="Streaming XPath (XP{/,//,*,[]}) processor — TwigM.",
    )
    parser.add_argument(
        "query",
        nargs="?",
        help="the XPath query (omit when using --queries)",
    )
    parser.add_argument(
        "source",
        nargs="?",
        default="-",
        help="XML file path, or '-' for stdin (the default)",
    )
    parser.add_argument(
        "--queries",
        metavar="FILE",
        help=(
            "evaluate many standing queries in one pass: FILE has one "
            "'name<TAB>xpath' (or 'name xpath') per line; output lines "
            "are 'name<TAB>id'"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "pathm", "branchm", "twigm"),
        default="auto",
        help="force a machine (default: cheapest for the query's fragment)",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--count", action="store_true", help="print only the solution count")
    output.add_argument(
        "--fragments",
        action="store_true",
        help=(
            "print matched elements as XML (buffers only candidates whose "
            "match is still undecided)"
        ),
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the query's fragment and selected machine to stderr",
    )
    return parser


def _source(source: str):
    """The text source a face's ``evaluate`` reads: stdin for ``-``."""
    return sys.stdin if source == "-" else Path(source)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "multiq":
        # ``python -m repro multiq ...`` — the shared multi-query
        # dispatch engine's own front end (repro.multiq.cli).
        from repro.multiq.cli import main as multiq_main

        return multiq_main(argv[1:])
    if argv and argv[0] == "serve":
        # ``python -m repro serve ...`` — the fault-tolerant async
        # serving layer's front end (repro.serve.cli).
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "store":
        # ``python -m repro store ingest|replay|index|compact`` — the
        # durable ingest log's front end (repro.store.cli).
        from repro.store.cli import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "transform":
        # ``python -m repro transform select|rewrite`` — the streaming
        # transformation layer's front end (repro.transform.cli).
        from repro.transform.cli import main as transform_main

        return transform_main(argv[1:])
    if argv and argv[0] == "stats":
        # ``python -m repro stats QUERY FILE`` — one observed pass:
        # metrics exposition + stage tracing (repro.obs.cli).
        from repro.obs.cli import main as stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "profile":
        # ``python -m repro profile QUERY FILE`` — cProfile one
        # evaluation (repro.obs.profiling).
        from repro.obs.profiling import main as profile_main

        try:
            return profile_main(argv[1:])
        except (ReproError, OSError) as exc:
            print(f"twigm: {exc}", file=sys.stderr)
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    engine = None if args.engine == "auto" else args.engine
    try:
        if args.queries is not None:
            # With --queries, a lone positional is the source.
            if args.query is not None and args.source == "-":
                args.source, args.query = args.query, None
            if args.query is not None:
                parser.error("give either QUERY or --queries FILE, not both")
            return _run_multi(args)
        if args.query is None:
            parser.error("a QUERY (or --queries FILE) is required")
        if args.fragments:
            return _run_fragments(args)
        if args.count:
            stream = XPathStream(args.query, engine=engine)
            _explain(args, stream.query, stream.engine_name)
            ids = stream.evaluate(_source(args.source))
            print(len(ids))
            return 0
        matched = False

        def emit(node_id: int) -> None:
            nonlocal matched
            matched = True
            print(node_id, flush=True)

        stream = XPathStream(args.query, on_match=emit, engine=engine)
        _explain(args, stream.query, stream.engine_name)
        stream.evaluate(_source(args.source))
        return 0 if matched else 1
    except (ReproError, OSError) as exc:
        print(f"twigm: {exc}", file=sys.stderr)
        return 2


def _explain(args, query: QueryTree, machine: str) -> None:
    if args.explain:
        print(f"fragment: {query.fragment()}  machine: {machine}", file=sys.stderr)


def _read_query_file(path: str) -> dict[str, str]:
    """Parse a standing-queries file: 'name<TAB>xpath' (or space), one
    per line; '#' lines and blanks are ignored."""
    queries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" in line:
                name, _sep, query = line.partition("\t")
            else:
                name, _sep, query = line.partition(" ")
            name, query = name.strip(), query.strip()
            if not name or not query:
                raise ReproError(
                    f"{path}:{number}: expected 'name<TAB>xpath', got {line!r}"
                )
            if name in queries:
                raise ReproError(f"{path}:{number}: duplicate query name {name!r}")
            queries[name] = query
    if not queries:
        raise ReproError(f"{path}: no queries found")
    return queries


def _run_multi(args) -> int:
    """--queries mode: one routed pass, per-query incremental output."""
    from repro.multiq.engine import MultiQueryEngine

    queries = _read_query_file(args.queries)
    matched = False
    counts: dict[str, int] = {name: 0 for name in queries}

    def on_match(name: str, node_id: int) -> None:
        nonlocal matched
        matched = True
        if args.count:
            counts[name] += 1
        else:
            print(f"{name}\t{node_id}", flush=True)

    feed = MultiQueryEngine(queries, on_match=on_match)
    if args.explain:
        for name, engine_name in feed.engine_names().items():
            print(f"{name}: {queries[name]}  [{engine_name}]", file=sys.stderr)
    feed.evaluate(_source(args.source))
    if args.count:
        for name in queries:
            print(f"{name}\t{counts[name]}")
        return 0
    return 0 if matched else 1


def _run_fragments(args) -> int:
    """Stream fragments: candidate subtrees buffer only until decided."""
    from repro.transform.extract import SubstreamExtractor

    matched = False

    def emit(_name: str, _node_id: int, fragment: str) -> None:
        nonlocal matched
        matched = True
        print(fragment, flush=True)

    query = compile_query(args.query)
    extractor = SubstreamExtractor(query, on_fragment=emit)
    _explain(args, query, f"{extractor.engine_names()['select']} (select)")
    extractor.evaluate(_source(args.source))
    return 0 if matched else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
