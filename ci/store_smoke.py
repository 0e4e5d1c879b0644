"""CI smoke: the durable ingest log under format, crash, replay, and skip gates.

0. **Format stability.**  Ingesting ``tests/data/golden_xmark.xml``
   without an engine, in 1024-character chunks with
   ``segment_events=256``, must reproduce the committed
   ``tests/data/golden_store_v2`` byte for byte — every segment file and
   the manifest.  The version-1 ``tests/data/golden_store`` (one coded
   event per record, no longer written) must still replay — from the
   start and from every checkpoint — to the document's events and to
   live evaluation's results.

Then four gates over one XMark recording, each a hard failure:

1. **Crash recovery.**  Feed 60% of the document with an engine
   attached, then simulate a SIGKILL by truncating the active segment at
   an arbitrary byte boundary (and once more with a bit flip); a third
   trial tears the last text record in half.  Reopening the
   store must recover to the last intact record; a fresh
   engine replays the recovered prefix, the document is fed on from the
   character position the recovered log covers
   (``EventLogWriter.text_position``), and both the finished live run
   and a full replay must equal live evaluation of the whole document —
   for both the reference (``ReferenceTokenizer`` events) and the text
   path.

2. **Checkpoint replay.**  Replay resumed from *every* embedded
   checkpoint must produce the same results as the cold replay and the
   live run.

3. **Index skipping.**  A selective query's replay must skip >= 50% of
   the sealed segments while returning results identical to an
   unskipped replay.

4. **Extraction skipping.**  ``replay_into`` of a
   :class:`~repro.transform.extract.SubstreamExtractor` over perfbench's
   three archive-xmark extraction queries must give fragments
   byte-identical to live extraction of the text, and the index's gate
   rule must let it skip >= 40% of the segments (the alphabet rule
   skips none: ``name`` occurs in every segment).

The run is recorded as ``BENCH_store.json`` (events/s for ingest and
replay, log bytes per event, skip ratios, recovery accounting) for
trajectory tracking, at the XMark scale of a
:data:`repro.bench.corpora.PROFILES` profile (default ``small``).

Usage: PYTHONPATH=src python ci/store_smoke.py [profile]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

from repro.bench.corpora import PROFILES
from repro.bench.hotpath import reference_events
from repro.datasets.xmark import xmark_events
from repro.multiq.engine import MultiQueryEngine
from repro.serve.framing import DEFAULT_MAX_FRAME, FRAME_HEADER
from repro.store import EventLogReader, EventLogWriter, ReplayStats, ingest, replay
from repro.store.log import REC_TEXT, _frames
from repro.store.replay import replay_into
from repro.stream.events import EventCollector
from repro.stream.tokenizer import parse_string
from repro.stream.writer import events_to_string
from repro.transform.extract import SubstreamExtractor

QUERIES = {
    "names": "//item/name",
    "bids": "//open_auction//bidder/increase",
    "people": "//person[name]/emailaddress",
    "cats": "//category/name",
}

#: Selective query for the skip gate: XMark's people section is one
#: contiguous, small slice of the document, so most segments carry
#: neither tag and are provably dead.
SELECTIVE = "//person/emailaddress"

SKIP_FLOOR = 0.50

#: The extraction queries of perfbench's archive-xmark workload.
EXTRACT_QUERIES = {
    "names": "//person/name",
    "prices": "//closed_auction/price",
    "bidders": "//open_auction/bidder",
}

EXTRACT_SKIP_FLOOR = 0.40

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "data")
GOLDEN_XML = os.path.join(DATA, "golden_xmark.xml")
GOLDEN_STORE = os.path.join(DATA, "golden_store")
GOLDEN_STORE_V2 = os.path.join(DATA, "golden_store_v2")
#: How ``golden_store_v2`` was recorded (as ``tests/test_store_golden.py``).
GOLDEN_CHUNK = 1024
GOLDEN_SEGMENT_EVENTS = 256


def fail(message: str) -> "int":
    print(f"FAIL: {message}")
    return 1


def live_reference(text: str) -> "tuple[dict, dict]":
    """(reference-event results, fused text-path results)."""
    pull_results = MultiQueryEngine(dict(QUERIES)).evaluate(reference_events(text))
    push_results = MultiQueryEngine(dict(QUERIES)).evaluate(text)
    return pull_results, push_results


def format_gate(workdir: str, bench: dict) -> "int | None":
    """Re-ingest the golden document; every v2 store file must match,
    and the v1 store must still replay to the same events and results."""
    store = os.path.join(workdir, "golden")
    with open(GOLDEN_XML, encoding="utf-8") as handle:
        text = handle.read()
    chunks = [text[i:i + GOLDEN_CHUNK] for i in range(0, len(text), GOLDEN_CHUNK)]
    ingest(chunks, store, segment_events=GOLDEN_SEGMENT_EVENTS, sync="none")
    expected = sorted(os.listdir(GOLDEN_STORE_V2))
    written = sorted(os.listdir(store))
    if written != expected:
        return fail(f"golden store files differ: wrote {written}, expected {expected}")
    for name in expected:
        with open(os.path.join(store, name), "rb") as mine, \
                open(os.path.join(GOLDEN_STORE_V2, name), "rb") as golden:
            if mine.read() != golden.read():
                return fail(f"golden store file {name} is not byte-identical")
    bench["golden_files_identical"] = len(expected)

    events = list(parse_string(text))
    if list(EventLogReader(GOLDEN_STORE).events()) != events:
        return fail("the version-1 golden store no longer replays to its events")
    live = MultiQueryEngine(dict(QUERIES)).evaluate(text)
    if replay(dict(QUERIES), GOLDEN_STORE) != live:
        return fail("the version-1 golden store no longer replays to live results")
    checkpoints = EventLogReader(GOLDEN_STORE).checkpoints()
    for info in checkpoints:
        collector = EventCollector()
        replay_into(collector, GOLDEN_STORE, from_checkpoint=info.id)
        if collector.events != events[info.event:]:
            return fail(f"version-1 replay from checkpoint {info.id} diverges")
    bench["golden_v1_checkpoints_verified"] = len(checkpoints)
    return None


def last_text_frame(path: str) -> "tuple[int, int]":
    """Byte offsets of the last text record's frame in a segment file."""
    found = (0, 0)
    for record, payload, end in _frames(path, DEFAULT_MAX_FRAME):
        if record == REC_TEXT:
            found = (end - FRAME_HEADER.size - len(payload), end)
    return found


def crash_gate(workdir: str, text: str, reference: dict, bench: dict) -> "int | None":
    """Feed, SIGKILL mid-segment (truncate + bit flip), recover, re-feed, replay."""
    recoveries = []
    for trial, mutilate in enumerate(("truncate", "bitflip", "tear-text")):
        store = os.path.join(workdir, f"crash-{trial}")
        engine = MultiQueryEngine(dict(QUERIES))
        writer = EventLogWriter(
            store, segment_events=512, checkpoint_interval=600, sync="none"
        )
        writer.attach(engine)
        cut = int(len(text) * 0.6)
        writer.feed(text[:cut], engine.as_handler())
        writer.flush()
        # SIGKILL: abandon the writer, then damage the active segment.
        active = os.path.join(store, writer._manifest.active)
        size = os.path.getsize(active)
        if mutilate == "truncate":
            with open(active, "r+b") as handle:
                handle.truncate(size - min(7, size))
        elif mutilate == "tear-text":
            start, end = last_text_frame(active)
            with open(active, "r+b") as handle:
                handle.truncate((start + end) // 2)
        else:
            with open(active, "r+b") as handle:
                handle.seek(size - min(20, size))
                byte = handle.read(1)
                handle.seek(size - min(20, size))
                handle.write(bytes([byte[0] ^ 0xFF]))
        del writer, engine

        # A fresh process recovers and finishes the job: replay the
        # intact prefix into a fresh engine, then feed the document on
        # from the character the recovered log covers.
        writer = EventLogWriter(
            store, segment_events=512, checkpoint_interval=600, sync="none"
        )
        recovered_events = writer.position
        recovered_chars = writer.text_position
        engine = MultiQueryEngine(dict(QUERIES))
        reader = EventLogReader(store)
        consumed = 0
        for event in reader.events():
            engine.feed_events((event,))
            consumed += 1
        if consumed != recovered_events:
            return fail(
                f"crash[{mutilate}]: reader saw {consumed} events, "
                f"writer recovered to {recovered_events}"
            )
        writer.attach(engine)
        handler = engine.as_handler()
        writer.feed(text[recovered_chars:], handler)
        writer.finish(handler)
        writer.close()
        if engine.results() != reference:
            return fail(f"crash[{mutilate}]: recovered live results diverge")
        replayed = replay(dict(QUERIES), store)
        if replayed != reference:
            return fail(f"crash[{mutilate}]: post-recovery replay diverges")
        recoveries.append({
            "mutilation": mutilate,
            "recovered_events": recovered_events,
            "recovered_chars": recovered_chars,
        })
    bench["recoveries"] = recoveries
    return None


def checkpoint_gate(store: str, checkpoints: list, reference: dict,
                    bench: dict) -> "int | None":
    if len(checkpoints) < 3:
        return fail(f"only {len(checkpoints)} checkpoints recorded")
    for checkpoint in checkpoints:
        resumed = replay(None, store, from_checkpoint=checkpoint)
        if resumed != reference:
            return fail(f"replay from checkpoint {checkpoint} diverges")
    bench["checkpoints_verified"] = len(checkpoints)
    return None


def skip_gate(store: str, text: str, bench: dict) -> "int | None":
    from repro.core.processor import XPathStream

    expected = XPathStream(SELECTIVE).evaluate(text)
    stats = ReplayStats()
    started = time.perf_counter()
    skipped = replay(SELECTIVE, store, stats=stats)
    skip_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    unskipped = replay(SELECTIVE, store, skip=False)
    full_elapsed = time.perf_counter() - started
    if skipped != expected or unskipped != expected:
        return fail("selective replay results diverge from direct evaluation")
    if stats.skip_ratio < SKIP_FLOOR:
        return fail(
            f"skip ratio {stats.skip_ratio:.2f} below the {SKIP_FLOOR:.2f} "
            f"floor ({stats.segments_skipped}/{stats.segments_total} skipped)"
        )
    bench["skip"] = {
        "query": SELECTIVE,
        "ratio": round(stats.skip_ratio, 4),
        "segments_total": stats.segments_total,
        "segments_skipped": stats.segments_skipped,
        "events_decoded": stats.events_emitted,
        "replay_s": round(skip_elapsed, 4),
        "full_replay_s": round(full_elapsed, 4),
        "speedup": round(full_elapsed / skip_elapsed, 2) if skip_elapsed else None,
    }
    return None


def extract_gate(store: str, text: str, bench: dict) -> "int | None":
    expected = SubstreamExtractor(EXTRACT_QUERIES).evaluate(text)
    stats = ReplayStats()
    started = time.perf_counter()
    fragments = replay_into(SubstreamExtractor(EXTRACT_QUERIES), store, stats=stats)
    skip_elapsed = time.perf_counter() - started
    unskipped = SubstreamExtractor(EXTRACT_QUERIES)
    started = time.perf_counter()
    EventLogReader(store).events_into(unskipped)
    full_elapsed = time.perf_counter() - started
    if fragments != expected or unskipped.close() != expected:
        return fail("extraction over the log diverges from live extraction")
    if stats.skip_ratio < EXTRACT_SKIP_FLOOR:
        return fail(
            f"extraction skip ratio {stats.skip_ratio:.2f} below the "
            f"{EXTRACT_SKIP_FLOOR:.2f} floor "
            f"({stats.segments_skipped}/{stats.segments_total} skipped)"
        )
    bench["extract_skip"] = {
        "queries": sorted(EXTRACT_QUERIES.values()),
        "fragments": len(fragments),
        "ratio": round(stats.skip_ratio, 4),
        "segments_total": stats.segments_total,
        "segments_skipped": stats.segments_skipped,
        "events_delivered": stats.events_emitted,
        "replay_s": round(skip_elapsed, 4),
        "full_replay_s": round(full_elapsed, 4),
        "speedup": round(full_elapsed / skip_elapsed, 2) if skip_elapsed else None,
    }
    return None


def main(profile: str) -> int:
    scale = PROFILES[profile][1]
    text = events_to_string(xmark_events(scale))
    pull_reference, push_reference = live_reference(text)
    if pull_reference != push_reference:
        return fail("reference and fused live evaluations disagree")
    reference = pull_reference
    bench: dict = {"profile": profile, "scale": scale, "document_chars": len(text)}

    workdir = tempfile.mkdtemp(prefix="store_smoke_")
    try:
        code = format_gate(workdir, bench)
        if code is not None:
            return code
        print(
            f"format gate ok: {bench['golden_files_identical']} golden store "
            "files byte-identical; the version-1 store replays identically "
            f"from the start and {bench['golden_v1_checkpoints_verified']} "
            "checkpoints"
        )

        code = crash_gate(workdir, text, reference, bench)
        if code is not None:
            return code
        print(
            "crash gate ok: "
            + ", ".join(
                f"{r['mutilation']} recovered to event {r['recovered_events']}"
                for r in bench["recoveries"]
            )
        )

        store = os.path.join(workdir, "main")
        started = time.perf_counter()
        result = ingest(
            text, store, queries=dict(QUERIES),
            checkpoint_interval=700, segment_events=512, sync="none",
        )
        ingest_elapsed = time.perf_counter() - started
        if result.results != reference:
            return fail("live-during-ingest results diverge")
        log_bytes = sum(
            os.path.getsize(os.path.join(store, name)) for name in os.listdir(store)
        )
        bench["ingest"] = {
            "events": result.events,
            "segments": result.segments,
            "events_per_s": round(result.events / ingest_elapsed),
            "log_bytes_per_event": round(log_bytes / result.events, 2),
        }

        started = time.perf_counter()
        cold = replay(dict(QUERIES), store)
        replay_elapsed = time.perf_counter() - started
        if cold != reference:
            return fail("cold replay diverges from live evaluation")
        bench["replay_events_per_s"] = round(result.events / replay_elapsed)
        print(
            f"replay gate ok: {result.events} events, cold replay matches "
            f"the reference and fused live evaluations"
        )

        code = checkpoint_gate(store, result.checkpoints, reference, bench)
        if code is not None:
            return code
        print(f"checkpoint gate ok: {len(result.checkpoints)} resume points verified")

        code = skip_gate(store, text, bench)
        if code is not None:
            return code
        skip = bench["skip"]
        print(
            f"skip gate ok: {skip['segments_skipped']}/{skip['segments_total']} "
            f"segments skipped (ratio {skip['ratio']:.2f} >= {SKIP_FLOOR:.2f}), "
            f"results identical"
        )

        code = extract_gate(store, text, bench)
        if code is not None:
            return code
        extract = bench["extract_skip"]
        print(
            f"extract gate ok: {extract['segments_skipped']}/"
            f"{extract['segments_total']} segments skipped (ratio "
            f"{extract['ratio']:.2f} >= {EXTRACT_SKIP_FLOOR:.2f}), "
            f"{extract['fragments']} fragments identical"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open("BENCH_store.json", "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("ok: BENCH_store.json written")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "small"))
