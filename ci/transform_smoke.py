"""CI smoke: the streaming transformation layer on XMark.

Four gates over one XMark document, each a hard failure:

1. **Reference ≡ fused fragments.**  Substream extraction of several
   queries (immediate and predicate-gated) must produce byte-identical
   fragment lists from reference events (``ReferenceTokenizer``, the
   scanner with its fast path off, into ``feed_events``), the fused
   text path, and a chunked text feed.

2. **Snapshot resume.**  An extractor snapshotted mid-document (inside
   a streaming fragment) and restored from the JSON round-trip must
   finish with fragments byte-identical to an uninterrupted run.

3. **Rewrite idempotence.**  A rename/drop rule set applied to its own
   output must be the identity — rewritten output re-rewritten is
   byte-identical (wrap is intentionally excluded: wrapping twice is
   the *correct* non-idempotent semantics).

4. **Store replay.**  Extraction driven by ``replay_into`` over a
   durable event log must match direct evaluation of the text.

The run is recorded as ``BENCH_transform.json`` (fragments/s, MB/s,
dead-branch skip ratio) for trajectory tracking.

Usage: PYTHONPATH=src python ci/transform_smoke.py [scale]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

from repro.datasets.xmark import xmark_events
from repro.stream.tokenizer import XmlTokenizer
from repro.stream.writer import events_to_string
from repro.bench.hotpath import reference_events
from repro.transform.combinators import tee
from repro.transform.extract import SubstreamExtractor
from repro.transform.rewrite import RewriteEngine, drop, rename

QUERIES = {
    "names": "//item/name",
    "sellers": "//open_auction[seller]/seller",
    "emails": "//person[name]/emailaddress",
}

def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def fragment_gate(text: str, bench: dict) -> "int | None":
    reference = SubstreamExtractor(dict(QUERIES)).evaluate(reference_events(text))
    started = time.perf_counter()
    push = SubstreamExtractor(dict(QUERIES)).evaluate(text)
    elapsed = time.perf_counter() - started
    if reference != push:
        return fail("reference and fused fragment lists diverge")
    chunked = SubstreamExtractor(dict(QUERIES))
    for index in range(0, len(text), 4096):
        chunked.feed_text(text[index:index + 4096])
    if chunked.close() != reference:
        return fail("chunked fragments diverge from the reference")
    total_bytes = sum(len(f.text) for f in push)
    bench["extract"] = {
        "fragments": len(push),
        "fragment_bytes": total_bytes,
        "fragments_per_s": round(len(push) / elapsed) if elapsed else None,
        "mb_per_s": round(total_bytes / 1e6 / elapsed, 2) if elapsed else None,
    }
    return None


def snapshot_gate(text: str, bench: dict) -> "int | None":
    reference = SubstreamExtractor(dict(QUERIES)).evaluate(text)
    extractor = SubstreamExtractor(dict(QUERIES))
    cut = len(text) // 2
    extractor.feed_text(text[:cut])
    blob = json.loads(json.dumps(extractor.snapshot()))
    restored = SubstreamExtractor.restore(blob)
    restored.feed_text(text[cut:])
    if restored.close() != reference:
        return fail("snapshot/restore fragments diverge from one-shot run")
    bench["snapshot_chars"] = len(json.dumps(blob))
    return None


def idempotence_gate(text: str, bench: dict) -> "int | None":
    def rules():
        return [drop("//annotation"), rename("//emailaddress", "email"),
                drop("//open_auction[privacy]")]

    started = time.perf_counter()
    once = RewriteEngine(rules()).evaluate(text)
    elapsed = time.perf_counter() - started
    twice = RewriteEngine(rules()).evaluate(once)
    if twice != once:
        return fail("rewrite applied to its own output is not the identity")
    if RewriteEngine(rules()).evaluate(reference_events(text)) != once:
        return fail("reference and fused rewrite outputs diverge")
    bench["rewrite"] = {
        "input_chars": len(text),
        "output_chars": len(once),
        "mb_per_s": round(len(text) / 1e6 / elapsed, 2) if elapsed else None,
    }
    return None


def replay_gate(text: str, workdir: str, bench: dict) -> "int | None":
    from repro.store.replay import ingest, replay_into

    store = os.path.join(workdir, "log")
    ingest(text, store, segment_events=512, sync="none")
    direct = SubstreamExtractor(dict(QUERIES)).evaluate(text)
    extractor = SubstreamExtractor(dict(QUERIES))
    replay_into(extractor, store, close=False)
    if extractor.close() != direct:
        return fail("store-replay fragments diverge from direct evaluation")

    # Dead-branch skipping: a tee of the selective extractors sees the
    # same fragments while skipping events outside their alphabets.
    branches = [SubstreamExtractor({name: query})
                for name, query in QUERIES.items()]
    fan = tee(*branches)
    XmlTokenizer().feed_into(text, fan)
    teed = [fragment for result in fan.close() for fragment in result]
    if sorted(f.text for f in teed) != sorted(f.text for f in direct):
        return fail("teed extraction fragments diverge")
    bench["tee_skip_ratio"] = round(fan.skip_ratio, 4)
    return None


def main(scale: float) -> int:
    text = events_to_string(xmark_events(scale))
    bench: dict = {"scale": scale, "document_chars": len(text)}

    code = fragment_gate(text, bench)
    if code is not None:
        return code
    extract = bench["extract"]
    print(
        f"fragment gate ok: {extract['fragments']} fragments byte-identical "
        f"across reference, fused, and chunked feeds"
    )

    code = snapshot_gate(text, bench)
    if code is not None:
        return code
    print("snapshot gate ok: mid-document restore finishes byte-identical")

    code = idempotence_gate(text, bench)
    if code is not None:
        return code
    print("idempotence gate ok: rewrite of rewritten output is the identity")

    workdir = tempfile.mkdtemp(prefix="transform_smoke_")
    try:
        code = replay_gate(text, workdir, bench)
        if code is not None:
            return code
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"replay gate ok: store replay matches direct evaluation "
        f"(tee skip ratio {bench['tee_skip_ratio']:.2f})"
    )

    with open("BENCH_transform.json", "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("ok: BENCH_transform.json written")
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]) if len(sys.argv) > 1 else 1.0))
