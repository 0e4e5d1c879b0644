"""CI smoke: the full pipeline under repair + tight resource limits.

Runs seeded corruption campaigns through XPathStream with a
deliberately tight ResourceLimits profile — through **both** of:

* the reference path (``ReferenceTokenizer.feed``: the Python scanner
  alone → event objects → ``feed_events``);
* the fused path (``feed_text``: Expat, falling back to the scanner on
  damaged input → direct machine dispatch, no event objects) — the path
  serving sessions ride.

Three outcomes are acceptable per seed: a clean result, a clean result
after recovery (with diagnostics), or a ResourceLimitError.  Anything
else — any other exception, a hang, unbounded growth, or the two paths
disagreeing on the outcome (result ids or the limit error) or on any
diagnostic (message, line, column, action) — fails the build.

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

def _campaign(seed: int, push: bool) -> tuple:
    """One seeded corruption campaign: (ids or the limit error, diagnostics)."""
    wrapped = FaultyChunks(DOCUMENT, seed=seed, faults=1 + seed % 5)
    diagnostics: list = []
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
        outcome = stream.close()
        assert all(isinstance(i, int) for i in outcome), (seed, push)
    except ResourceLimitError as exc:
        outcome = exc
    return outcome, [(d.message, d.line, d.column, d.action) for d in diagnostics]


def main(seeds: int) -> int:
    limited = 0
    recovered = 0
    for seed in range(seeds):
        outcomes = {}
        for push in (False, True):
            label = "push" if push else "reference"
            try:
                outcome, diagnostics = _campaign(seed, push)
            except Exception as exc:  # noqa: BLE001 - the point of the smoke
                print(
                    f"FAIL seed={seed} path={label}: "
                    f"{type(exc).__name__}: {exc}"
                )
                return 1
            if isinstance(outcome, ResourceLimitError):
                limited += 1
                outcome = str(outcome)
            elif diagnostics:
                recovered += 1
            outcomes[label] = (outcome, diagnostics)
        if outcomes["reference"] != outcomes["push"]:
            print(
                f"FAIL seed={seed}: reference/push divergence\n"
                f"  reference: {outcomes['reference']}\n"
                f"  push:      {outcomes['push']}"
            )
            return 1
    print(
        f"ok: {seeds} corruption campaigns x 2 paths "
        f"({recovered} recovered, {limited} resource-limited, "
        f"0 divergences, 0 crashes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 500))
