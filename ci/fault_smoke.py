"""CI smoke: the full pipeline under repair + tight resource limits.

Runs seeded corruption campaigns through XPathStream with a
deliberately tight ResourceLimits profile — through **both** of:

* the reference path (``ReferenceTokenizer.feed``: the tokenizer with
  its regex fast path off → event objects → ``feed_events``);
* the fused path (``feed_text``: regex scanner → direct machine
  dispatch, no event objects) — the path serving sessions ride.

Three outcomes are acceptable per seed: a clean result, a clean result
after recovery (with diagnostics), or a ResourceLimitError.  Anything
else — any other exception, a hang, unbounded growth, or the two paths
disagreeing on a clean parse — fails the build.

Usage: PYTHONPATH=src python ci/fault_smoke.py [seeds]
"""

from __future__ import annotations

import sys

from repro import ResourceLimits, XPathStream
from repro.bench.hotpath import ReferenceTokenizer
from repro.errors import ResourceLimitError
from repro.stream.faults import FaultyChunks

DOCUMENT = (
    "<catalog>"
    + "".join(
        f"<book id='b{i}'><title>t{i} ☃</title><price>{i}</price></book>"
        for i in range(12)
    )
    + "<note><![CDATA[raw <markup>]]></note></catalog>"
)

QUERY = "//book[price]//title"

TIGHT = ResourceLimits(
    max_depth=16,
    max_attributes=8,
    max_attribute_length=256,
    max_text_length=4096,
    max_buffered_input=8192,
    max_buffered_candidates=256,
    max_total_events=10_000,
)

#: Sentinel result meaning "this campaign tripped a resource limit".
_LIMITED = object()


def _campaign(seed: int, push: bool, diagnostics: list):
    """One seeded corruption campaign; returns ids, _LIMITED, or raises."""
    wrapped = FaultyChunks(DOCUMENT, seed=seed, faults=1 + seed % 5)
    options = dict(policy="repair", on_diagnostic=diagnostics.append, limits=TIGHT)
    stream = XPathStream(QUERY, **options)
    try:
        if push:
            for chunk in wrapped:
                stream.feed_text(chunk)
        else:
            tokenizer = ReferenceTokenizer(**options)
            for chunk in wrapped:
                stream.feed_events(tokenizer.feed(chunk))
            stream.feed_events(tokenizer.close())
        return stream.close(), wrapped
    except ResourceLimitError:
        return _LIMITED, wrapped


def main(seeds: int) -> int:
    limited = 0
    recovered = 0
    diverged = 0
    for seed in range(seeds):
        outcomes = {}
        for push in (False, True):
            label = "push" if push else "reference"
            diagnostics: list = []
            try:
                ids, wrapped = _campaign(seed, push, diagnostics)
            except Exception as exc:  # noqa: BLE001 - the point of the smoke
                print(
                    f"FAIL seed={seed} path={label}: "
                    f"{type(exc).__name__}: {exc}"
                )
                return 1
            if ids is _LIMITED:
                limited += 1
                continue
            if diagnostics:
                recovered += 1
            assert all(isinstance(i, int) for i in ids), (seed, label)
            outcomes[label] = (ids, bool(diagnostics))
        # When neither path needed repair, they saw the same bytes and
        # must agree exactly.  (Repair-path divergences are counted and
        # reported, not failed.)
        if len(outcomes) == 2:
            (reference_ids, reference_repaired) = outcomes["reference"]
            (push_ids, push_repaired) = outcomes["push"]
            if not reference_repaired and not push_repaired:
                if reference_ids != push_ids:
                    print(
                        f"FAIL seed={seed}: clean reference/push divergence "
                        f"{reference_ids} != {push_ids}"
                    )
                    return 1
            elif reference_ids != push_ids:
                diverged += 1
    print(
        f"ok: {seeds} corruption campaigns x 2 paths "
        f"({recovered} recovered, {limited} resource-limited, "
        f"{diverged} repair-path divergences, 0 crashes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 500))
