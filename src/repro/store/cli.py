"""``python -m repro store`` — the durable ingest log's front end.

Four subcommands over one store directory::

    # Record a document (and optionally evaluate while recording):
    python -m repro store ingest catalog.xml /var/lib/repro/catalog \\
        --queries standing.txt --checkpoint-interval 1024

    # Re-evaluate history (cold, or resuming an embedded checkpoint):
    python -m repro store replay /var/lib/repro/catalog --query '//book/title'
    python -m repro store replay /var/lib/repro/catalog --from-checkpoint 3

    # Inspect the structural index (and a query's skip verdicts):
    python -m repro store index /var/lib/repro/catalog --query '//misc//y'

    # Drop history before a checkpoint:
    python -m repro store compact /var/lib/repro/catalog --before-checkpoint 3

Query files use the same ``name<TAB>xpath`` format as ``twigm
--queries``.  ``replay`` prints ``name<TAB>id`` lines (or bare ids for
a single ``--query``) plus a summary to stderr; ``--stats`` adds the
skip accounting, and ``--json`` switches any subcommand to a single
JSON object on stdout (what the CI gate consumes).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.stream.recovery import ResourceLimits
from repro.store.index import index_report
from repro.store.log import EventLogReader, ReplayStats, compact
from repro.store.replay import ingest, replay

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Durable ingest log: record, replay, index, compact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="record a document into a store")
    p_ingest.add_argument("source", help="XML file path, or '-' for stdin")
    p_ingest.add_argument("store", help="store directory (created if missing)")
    p_ingest.add_argument(
        "--queries", metavar="FILE",
        help="standing queries ('name<TAB>xpath' per line) evaluated live "
             "during ingest; their engine snapshots ride the checkpoints",
    )
    p_ingest.add_argument(
        "--query", metavar="XPATH",
        help="single query evaluated live during ingest",
    )
    p_ingest.add_argument(
        "--checkpoint-interval", type=int, default=1024, metavar="N",
        help="events between embedded checkpoints (default %(default)s)",
    )
    p_ingest.add_argument(
        "--segment-events", type=int, default=4096, metavar="N",
        help="events per segment before rotation (default %(default)s)",
    )
    p_ingest.add_argument(
        "--sync", default="always", metavar="POLICY",
        help="fsync policy: always | interval[:N] | none (default %(default)s)",
    )
    p_ingest.add_argument("--json", action="store_true", help="JSON summary")

    p_replay = sub.add_parser("replay", help="re-evaluate recorded history")
    p_replay.add_argument("store", help="store directory")
    p_replay.add_argument(
        "--from-checkpoint", type=int, metavar="ID",
        help="resume the engine embedded in checkpoint ID (with --query/"
             "--queries the queries evaluate cold from that position instead)",
    )
    p_replay.add_argument("--queries", metavar="FILE", help="query file to evaluate")
    p_replay.add_argument("--query", metavar="XPATH", help="single query to evaluate")
    p_replay.add_argument(
        "--no-skip", action="store_true",
        help="disable index segment skipping (differential testing)",
    )
    p_replay.add_argument(
        "--max-depth", type=int, metavar="N",
        help="bound element depth accepted from the log (hostile-log guard)",
    )
    p_replay.add_argument(
        "--max-events", type=int, metavar="N",
        help="bound total events replayed from the log",
    )
    p_replay.add_argument("--stats", action="store_true", help="skip accounting to stderr")
    p_replay.add_argument("--json", action="store_true", help="JSON results")

    p_index = sub.add_parser("index", help="print the structural index")
    p_index.add_argument("store", help="store directory")
    p_index.add_argument("--query", metavar="XPATH", help="skip verdicts for this query")
    p_index.add_argument("--queries", metavar="FILE", help="skip verdicts for a query file")
    p_index.add_argument("--json", action="store_true", help="JSON report")

    p_compact = sub.add_parser("compact", help="drop history before a checkpoint")
    p_compact.add_argument("store", help="store directory")
    p_compact.add_argument(
        "--before-checkpoint", type=int, required=True, metavar="ID",
        help="drop segments wholly before this checkpoint's position",
    )
    p_compact.add_argument(
        "--sync", default="always", metavar="POLICY",
        help="fsync policy for the manifest swap (default %(default)s)",
    )
    p_compact.add_argument("--json", action="store_true", help="JSON summary")
    return parser


def _target(args):
    """The evaluation target from --query/--queries, or None."""
    from repro.cli import _read_query_file

    if getattr(args, "queries", None) and getattr(args, "query", None):
        raise ReproError("give --query or --queries, not both")
    if getattr(args, "queries", None):
        return _read_query_file(args.queries)
    if getattr(args, "query", None):
        return args.query
    return None


def _source_chunks(source: str):
    if source == "-":
        return sys.stdin.read()
    return source


def _cmd_ingest(args) -> int:
    target = _target(args)
    queries = target if isinstance(target, dict) else None
    engine = None
    if isinstance(target, str):
        from repro.core.processor import XPathStream

        engine = XPathStream(target)
    result = ingest(
        _source_chunks(args.source),
        args.store,
        queries=queries,
        engine=engine,
        checkpoint_interval=args.checkpoint_interval,
        segment_events=args.segment_events,
        sync=args.sync,
    )
    summary = {
        "store": result.path,
        "events": result.events,
        "segments": result.segments,
        "checkpoints": result.checkpoints,
    }
    if result.results is not None:
        summary["results"] = (
            {k: len(v) for k, v in result.results.items()}
            if isinstance(result.results, dict)
            else len(result.results)
        )
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"ingested {summary['events']} events into {summary['segments']} "
            f"sealed segment(s), checkpoints {summary['checkpoints']}"
        )
        if "results" in summary:
            print(f"live results: {summary['results']}")
    return 0


def _limits(args) -> ResourceLimits | None:
    if args.max_depth is None and args.max_events is None:
        return None
    return ResourceLimits(
        max_depth=args.max_depth, max_total_events=args.max_events
    )


def _cmd_replay(args) -> int:
    target = _target(args)
    stats = ReplayStats()
    results = replay(
        target,
        args.store,
        from_checkpoint=args.from_checkpoint,
        limits=_limits(args),
        skip=not args.no_skip,
        stats=stats,
    )
    if args.stats:
        print(
            f"segments: {stats.segments_read} read, "
            f"{stats.segments_skipped} skipped of {stats.segments_total} "
            f"(skip ratio {stats.skip_ratio:.2f}); "
            f"{stats.events_emitted} events replayed",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps({"results": results, "stats": stats.to_dict()}, indent=2))
        return 0
    if isinstance(results, dict):
        for name, ids in results.items():
            for node_id in ids:
                print(f"{name}\t{node_id}")
        return 0 if any(results.values()) else 1
    for node_id in results:
        print(node_id)
    return 0 if results else 1


def _cmd_index(args) -> int:
    reader = EventLogReader(args.store)
    report = index_report(reader, _target(args))
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    for segment in report["segments"]:
        mark = ""
        if "skippable" in segment:
            mark = "  SKIP" if segment["skippable"] else "  read"
        state = "sealed" if segment["sealed"] else "active"
        tags = ",".join(segment["tags"])
        labels = segment["open_labels"]
        opened = "?" if labels is None else "/".join(labels)
        print(
            f"{segment['file']}  [{state}]  events {segment['base_event']}"
            f"..{segment['base_event'] + segment['events']}  "
            f"levels {segment['min_level']}-{segment['max_level']}  "
            f"open={opened}  "
            f"text={'y' if segment['has_text'] else 'n'}  tags={{{tags}}}{mark}"
        )
    if "skip_ratio" in report:
        print(
            f"skippable: {report['skippable_segments']}/{len(report['segments'])} "
            f"(ratio {report['skip_ratio']:.2f})"
        )
    return 0


def _cmd_compact(args) -> int:
    summary = compact(args.store, args.before_checkpoint, sync=args.sync)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"dropped {summary['segments_dropped']} segment(s), "
            f"{summary['bytes_dropped']} bytes; history now starts at "
            f"event {summary['compacted_before_event']}"
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "index":
            return _cmd_index(args)
        return _cmd_compact(args)
    except ReproError as exc:
        print(f"repro store: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro store: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
