"""The ``python -m repro multiq`` command: standing queries over one stream.

Examples::

    # one pass, incremental 'name<TAB>id' output
    python -m repro multiq --queries standing.txt feed.xml

    # inline queries, counts only, routing statistics on stderr
    python -m repro multiq -e cheap='//book[price < 30]/title' \\
        -e recent="//book[@year = '2006']/title" --count --stats catalog.xml

    # from stdin
    cat feed.xml | python -m repro multiq --queries standing.txt -

The queries file has one ``name<TAB>xpath`` (or ``name xpath``) per
line; ``#`` lines and blanks are ignored — the same format as
``twigm --queries``.  Exit status: 0 when any query matched, 1 when
none did, 2 on errors.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.multiq.canon import SHAPE_CONSTANT, SHAPE_LABEL, SHAPE_RETURN, shape_text
from repro.multiq.engine import MultiQueryEngine
from repro.multiq.registry import ShapeUnit
from repro.stream.tokenizer import parse_file, parse_string
from repro.xpath.unparse import literal_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro multiq",
        description=(
            "Shared multi-query dispatch: many standing XPath queries, "
            "one parse, alphabet-routed event delivery."
        ),
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
        help="standing-queries file: one 'name<TAB>xpath' per line",
    )
    parser.add_argument(
        "-e",
        "--query",
        metavar="NAME=XPATH",
        action="append",
        default=[],
        help="add one inline standing query (repeatable)",
    )
    parser.add_argument(
        "--count",
        action="store_true",
        help="print per-query solution counts instead of ids",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print dispatch statistics (routing win vs broadcast) to stderr",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print each query's canonical form and machine to stderr "
        "(a shape machine once, with each member's constant or label)",
    )
    return parser


def _parse_inline(specs: list[str]) -> dict[str, str]:
    queries: dict[str, str] = {}
    for spec in specs:
        name, sep, xpath = spec.partition("=")
        name, xpath = name.strip(), xpath.strip()
        if not sep or not name or not xpath:
            raise ReproError(f"expected NAME=XPATH, got {spec!r}")
        if name in queries:
            raise ReproError(f"duplicate query name {name!r}")
        queries[name] = xpath
    return queries


def _gather_queries(args) -> dict[str, str]:
    from repro.cli import _read_query_file

    queries: dict[str, str] = {}
    if args.queries is not None:
        queries.update(_read_query_file(args.queries))
    for name, xpath in _parse_inline(args.query).items():
        if name in queries:
            raise ReproError(f"duplicate query name {name!r}")
        queries[name] = xpath
    if not queries:
        raise ReproError("no standing queries given (use --queries or -e)")
    return queries


def _events(source: str):
    if source == "-":
        return parse_string(sys.stdin.read())
    return parse_file(source)


def _explain(engine: MultiQueryEngine) -> None:
    """Each query's canonical form and machine, to stderr.

    A shape unit prints once, where its first member registered: the
    shape's canonical form, then each member with its constant or labels.
    """
    canonical = engine.canonical_queries()
    machines = engine.engine_names()
    shown: set[int] = set()
    for name in engine.names:
        unit = engine.registration(name).unit
        if not isinstance(unit, ShapeUnit):
            print(f"{name}: {canonical[name]}  [{machines[name]}]", file=sys.stderr)
            continue
        if id(unit) in shown:
            continue
        shown.add(id(unit))
        count = len(unit.names)
        print(f"shape: {shape_text(unit.tree)}  [{machines[name]}, {count} "
              f"member{'' if count == 1 else 's'}]", file=sys.stderr)
        for member, key in unit.member_keys():
            if unit.engine.tails:
                print(f"  {member}: {SHAPE_LABEL} = {key[0]}, {SHAPE_RETURN} = {key[1]}",
                      file=sys.stderr)
            elif unit.engine.labels:
                print(f"  {member}: {SHAPE_LABEL} = {key}", file=sys.stderr)
            else:
                print(f"  {member}: {SHAPE_CONSTANT} = {literal_text(key)}",
                      file=sys.stderr)
    print(f"{len(engine)} queries -> {engine.unit_count()} machines", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        queries = _gather_queries(args)
        matched = False
        counts: dict[str, int] = {name: 0 for name in queries}

        def on_match(name: str, node_id: int) -> None:
            nonlocal matched
            matched = True
            if args.count:
                counts[name] += 1
            else:
                print(f"{name}\t{node_id}", flush=True)

        engine = MultiQueryEngine(queries, on_match=on_match)
        if args.explain:
            _explain(engine)
        engine.feed_events(_events(args.source))
        if args.count:
            for name in queries:
                print(f"{name}\t{counts[name]}")
        if args.stats:
            stats = engine.dispatch_stats()
            print(
                f"events={stats.events} queries={stats.queries} "
                f"machines={stats.units} "
                f"dispatched={stats.machine_events_dispatched} "
                f"broadcast={stats.machine_events_broadcast} "
                f"gate_tests={stats.gate_tests} "
                f"reduction={stats.reduction:.2f}x",
                file=sys.stderr,
            )
        return 0 if matched else 1
    except ReproError as exc:
        print(f"repro multiq: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro multiq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
