"""``python -m repro transform`` — the transformation layer's front end.

Two subcommands::

    # Extract every match as a well-formed XML fragment:
    python -m repro transform select -q '//book/title' catalog.xml
    python -m repro transform select -q '//a' -q '//b[c]' doc.xml \\
        --label --output fragments.txt --stats

    # Apply ordered rewrite rules:
    python -m repro transform rewrite --rules rules.txt doc.xml \\
        --output clean.xml --stats

Rules files hold one rule per line, tab-separated (``#`` comments)::

    //secret<TAB>drop
    //legacy-name<TAB>rename<TAB>name
    //price<TAB>wrap<TAB>amount
    //draft<TAB>replace<TAB><placeholder/>

Input is an XML file, ``-`` for stdin, or ``--store DIR`` to replay a
durable event log (:mod:`repro.store`) through the transform instead of
parsing text.  ``--stats`` prints a JSON summary (fragments/rules fired,
bytes, events, MB/s) to stderr; ``events`` counts the events the
transform was delivered, and a replay also reports the segments and
events it skipped (an extractor reads only the segments its queries can
touch, :func:`~repro.store.replay.replay_into`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import ReproError
from repro.stream.writer import DEFAULT_WRITER_CHUNK
from repro.transform.extract import SubstreamExtractor
from repro.transform.rewrite import RewriteEngine, RewriteRule

__all__ = ["main", "build_parser", "parse_rules"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro transform",
        description="Streaming substream extraction and match/rewrite "
                    "transformation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser(
        "select", help="extract every match as a well-formed XML fragment"
    )
    p_select.add_argument(
        "source", nargs="?", default="-",
        help="XML file path, or '-' for stdin (default)",
    )
    p_select.add_argument(
        "-q", "--query", dest="queries", action="append", metavar="XPATH",
        help="select query (repeatable; fragments label by query text "
             "when more than one)",
    )
    p_select.add_argument(
        "--queries", dest="queries_file", metavar="FILE",
        help="query file: one 'name<TAB>xpath' per line",
    )
    p_select.add_argument(
        "--label", action="store_true",
        help="prefix each fragment line with 'name<TAB>'",
    )
    _common(p_select)

    p_rewrite = sub.add_parser(
        "rewrite", help="apply ordered match/action rewrite rules"
    )
    p_rewrite.add_argument(
        "source", nargs="?", default="-",
        help="XML file path, or '-' for stdin (default)",
    )
    p_rewrite.add_argument(
        "--rules", required=True, metavar="FILE",
        help="rules file: 'match<TAB>action[<TAB>argument]' per line",
    )
    _common(p_rewrite)
    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", "-o", metavar="FILE",
        help="write output to FILE (default: stdout)",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="replay a repro.store event log as input instead of XML text",
    )
    parser.add_argument(
        "--from-checkpoint", type=int, metavar="N",
        help="with --store: start replay at checkpoint N's event offset",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=DEFAULT_WRITER_CHUNK,
        help="writer flush threshold in characters "
             f"(default {DEFAULT_WRITER_CHUNK})",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print a JSON run summary to stderr",
    )


def parse_rules(path: str) -> list[RewriteRule]:
    """Load a tab-separated rules file into :class:`RewriteRule` objects."""
    from repro.transform.rewrite import drop, rename, replace, wrap

    rules: list[RewriteRule] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ReproError(
                    f"{path}:{line_no}: expected "
                    "'match<TAB>action[<TAB>argument]'"
                )
            match, action = parts[0], parts[1].strip()
            argument = parts[2] if len(parts) > 2 else None
            if action == "drop":
                rules.append(drop(match))
            elif action == "rename":
                if not argument:
                    raise ReproError(f"{path}:{line_no}: rename needs a tag")
                rules.append(rename(match, argument))
            elif action == "wrap":
                if not argument:
                    raise ReproError(f"{path}:{line_no}: wrap needs a tag")
                rules.append(wrap(match, argument))
            elif action == "replace":
                if not argument:
                    raise ReproError(f"{path}:{line_no}: replace needs XML")
                rules.append(replace(match, argument))
            else:
                raise ReproError(
                    f"{path}:{line_no}: unknown action {action!r} "
                    "(drop|rename|wrap|replace)"
                )
    if not rules:
        raise ReproError(f"{path}: no rules")
    return rules


def _load_queries(args) -> dict:
    queries: dict = {}
    if args.queries_file:
        with open(args.queries_file, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                name, _, query = line.partition("\t")
                if not query:
                    name, _, query = line.partition(" ")
                queries[name.strip()] = query.strip()
    for query in args.queries or ():
        queries[query] = query
    if not queries:
        raise ReproError("no queries: pass -q XPATH or --queries FILE")
    return queries


def _drive(transform, args) -> dict:
    """Feed ``transform`` from the chosen input; return its input
    accounting: the events it was delivered, and from a store the
    segments and events replay skipped."""
    if args.store:
        from repro.store.log import EventLogReader, ReplayStats
        from repro.store.replay import replay_into

        stats = ReplayStats()
        replay_into(transform, args.store, from_checkpoint=args.from_checkpoint,
                    stats=stats, close=True)
        reader = EventLogReader(args.store)
        start = 0
        if args.from_checkpoint is not None:
            start = int(reader.load_checkpoint(args.from_checkpoint)["event"])
        return {
            "events": transform.events_in,
            "segments_skipped": stats.segments_skipped,
            "events_skipped": reader.position - start - stats.events_emitted,
        }
    if args.source == "-":
        transform.feed_text(sys.stdin.read())
        transform.close()
    else:
        with open(args.source, "r", encoding="utf-8") as handle:
            while True:
                chunk = handle.read(1 << 16)
                if not chunk:
                    break
                transform.feed_text(chunk)
        transform.close()
    return {"events": transform.events_in}


def _run_select(args, out) -> dict:
    queries = _load_queries(args)
    labelled = args.label or len(queries) > 1

    def on_fragment(name: str, node_id: int, text: str) -> None:
        if labelled:
            out.write(f"{name}\t{text}\n")
        else:
            out.write(text + "\n")

    extractor = SubstreamExtractor(
        queries, on_fragment=on_fragment, chunk_size=args.chunk_size
    )
    started = time.perf_counter()
    accounting = _drive(extractor, args)
    elapsed = time.perf_counter() - started
    return {
        "command": "select",
        "queries": len(queries),
        "fragments": dict(extractor.fragment_counts),
        "fragment_bytes": extractor.fragment_bytes,
        **accounting,
        "seconds": round(elapsed, 6),
        "fragments_per_s": round(
            sum(extractor.fragment_counts.values()) / elapsed, 1
        ) if elapsed else None,
        "mb_per_s": round(
            extractor.fragment_bytes / 1e6 / elapsed, 3
        ) if elapsed else None,
    }


def _run_rewrite(args, out) -> dict:
    rules = parse_rules(args.rules)
    engine = RewriteEngine(
        rules, on_chunk=out.write, chunk_size=args.chunk_size
    )
    started = time.perf_counter()
    accounting = _drive(engine, args)
    elapsed = time.perf_counter() - started
    out.write("\n")
    return {
        "command": "rewrite",
        "rules": len(rules),
        "rules_fired": {
            rule.source: count
            for rule, count in zip(rules, engine.rules_fired)
        },
        **accounting,
        "events_out": engine.events_out,
        "bytes_out": (engine._writer.bytes_written
                      if engine._writer is not None else None),
        "seconds": round(elapsed, 6),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    opened = None
    if args.output:
        opened = out = open(args.output, "w", encoding="utf-8")
    try:
        if args.command == "select":
            summary = _run_select(args, out)
        else:
            summary = _run_rewrite(args, out)
    except ReproError as exc:
        print(f"repro transform: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro transform: {exc}", file=sys.stderr)
        return 2
    finally:
        if opened is not None:
            opened.close()
    if args.stats:
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
