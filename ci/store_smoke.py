"""CI smoke: the durable ingest log under format, crash, replay, and skip gates.

0. **Format stability.**  Ingesting ``tests/data/golden_xmark.xml``
   without an engine (``segment_events=512``) must reproduce the
   committed ``tests/data/golden_store`` byte for byte — every segment
   file and the manifest — so stores written by earlier releases replay
   on this one and vice versa.

Then three gates over one XMark recording, each a hard failure:

1. **Crash recovery.**  Ingest with an engine attached, then simulate a
   SIGKILL mid-segment by truncating the active segment at an arbitrary
   byte boundary (and once more with a bit flip).  Reopening the store
   must recover to the last intact record, re-ingesting the remainder
   must converge, and a full replay must be byte-identical to live
   evaluation of the whole document — for both the reference
   (``ReferenceTokenizer`` events) and the fused text path.

2. **Checkpoint replay.**  Replay resumed from *every* embedded
   checkpoint must produce the same results as the cold replay and the
   live run.

3. **Index skipping.**  A selective query's replay must skip >= 50% of
   the sealed segments while returning results identical to an
   unskipped replay.

The run is recorded as ``BENCH_store.json`` (events/s for ingest and
replay, skip ratio, recovery accounting) for trajectory tracking.

Usage: PYTHONPATH=src python ci/store_smoke.py [scale]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

from repro.bench.hotpath import reference_events
from repro.datasets.xmark import xmark_events
from repro.multiq.engine import MultiQueryEngine
from repro.store import EventLogReader, EventLogWriter, ReplayStats, ingest, replay
from repro.store.replay import _Tee
from repro.stream.tokenizer import XmlTokenizer
from repro.stream.writer import events_to_string

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

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "data")
GOLDEN_XML = os.path.join(DATA, "golden_xmark.xml")
GOLDEN_STORE = os.path.join(DATA, "golden_store")


def fail(message: str) -> "int":
    print(f"FAIL: {message}")
    return 1


def live_reference(text: str) -> "tuple[dict, dict]":
    """(reference-event results, fused text-path results)."""
    pull_results = MultiQueryEngine(dict(QUERIES)).evaluate(reference_events(text))
    push_results = MultiQueryEngine(dict(QUERIES)).evaluate(text)
    return pull_results, push_results


def format_gate(workdir: str, bench: dict) -> "int | None":
    """Re-ingest the golden document; every store file must match."""
    store = os.path.join(workdir, "golden")
    with open(GOLDEN_XML, encoding="utf-8") as handle:
        ingest(handle.read(), store, segment_events=512, sync="none")
    expected = sorted(os.listdir(GOLDEN_STORE))
    written = sorted(os.listdir(store))
    if written != expected:
        return fail(f"golden store files differ: wrote {written}, expected {expected}")
    for name in expected:
        with open(os.path.join(store, name), "rb") as mine, \
                open(os.path.join(GOLDEN_STORE, name), "rb") as golden:
            if mine.read() != golden.read():
                return fail(f"golden store file {name} is not byte-identical")
    bench["golden_files_identical"] = len(expected)
    return None


def crash_gate(workdir: str, text: str, reference: dict, bench: dict) -> "int | None":
    """Ingest, SIGKILL mid-segment (truncate + bit flip), recover, replay."""
    recoveries = []
    for trial, mutilate in enumerate(("truncate", "bitflip")):
        store = os.path.join(workdir, f"crash-{trial}")
        engine = MultiQueryEngine(dict(QUERIES))
        writer = EventLogWriter(
            store, segment_events=512, checkpoint_interval=600, sync="none"
        )
        writer.attach(engine)
        tokenizer = XmlTokenizer()
        tee = _Tee(engine.as_handler(), writer)
        cut = int(len(text) * 0.6)
        tokenizer.feed_into(text[:cut], tee)
        writer.flush()
        # SIGKILL: abandon the writer, then damage the active segment.
        active = os.path.join(store, writer._manifest.active)
        size = os.path.getsize(active)
        if mutilate == "truncate":
            with open(active, "r+b") as handle:
                handle.truncate(size - min(7, size))
        else:
            with open(active, "r+b") as handle:
                handle.seek(size - min(20, size))
                byte = handle.read(1)
                handle.seek(size - min(20, size))
                handle.write(bytes([byte[0] ^ 0xFF]))
        del writer, tokenizer, tee, engine

        # A fresh process recovers and finishes the job: replay the
        # intact prefix into a fresh engine, then re-feed the document
        # from the exact character the recovered event stream covers.
        writer = EventLogWriter(
            store, segment_events=512, checkpoint_interval=600, sync="none"
        )
        recovered_events = writer.position
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
        # Re-tokenize the whole document, skipping events the log
        # already holds (determinism makes the prefix identical).
        writer.attach(engine)

        class _CatchUpTee:
            def __init__(self, skip):
                self.skip = skip
                self.inner = _Tee(engine.as_handler(), writer)

            def _forward(self, method, *args):
                if self.skip > 0:
                    self.skip -= 1
                    return
                getattr(self.inner, method)(*args)

            def start_element(self, *a):
                self._forward("start_element", *a)

            def characters(self, *a):
                self._forward("characters", *a)

            def end_element(self, *a):
                self._forward("end_element", *a)

        tee = _CatchUpTee(recovered_events)
        tokenizer = XmlTokenizer()
        tokenizer.feed_into(text, tee)
        tokenizer.close_into(tee)
        writer.close()
        if engine.results() != reference:
            return fail(f"crash[{mutilate}]: recovered live results diverge")
        replayed = replay(dict(QUERIES), store)
        if replayed != reference:
            return fail(f"crash[{mutilate}]: post-recovery replay diverges")
        recoveries.append({
            "mutilation": mutilate,
            "recovered_events": recovered_events,
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


def main(scale: float) -> int:
    text = events_to_string(xmark_events(scale))
    pull_reference, push_reference = live_reference(text)
    if pull_reference != push_reference:
        return fail("reference and fused live evaluations disagree")
    reference = pull_reference
    bench: dict = {"scale": scale, "document_chars": len(text)}

    workdir = tempfile.mkdtemp(prefix="store_smoke_")
    try:
        code = format_gate(workdir, bench)
        if code is not None:
            return code
        print(
            f"format gate ok: {bench['golden_files_identical']} golden store "
            "files byte-identical"
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
        bench["ingest"] = {
            "events": result.events,
            "segments": result.segments,
            "events_per_s": round(result.events / ingest_elapsed),
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
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open("BENCH_store.json", "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("ok: BENCH_store.json written")
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]) if len(sys.argv) > 1 else 1.0))
