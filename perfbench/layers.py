"""Per-layer self time from a cProfile run, named after repro modules.

A function's own time (``tottime``) goes to the layer of the module that
defines it.  Time in functions outside ``repro`` — builtins such as
``str.find`` or ``zlib.crc32`` and stdlib helpers such as ``json`` — goes
to the nearest ``repro`` caller: first split over the direct callers by
the time each caller spent there, then, for callers that are themselves
outside ``repro``, over their callers by cumulative time.  What has no
``repro`` ancestor (the asyncio loop, the benchmark's own code) stays in
``other``; the benchmark's own code is ``bench``.
"""

from __future__ import annotations

import pstats
from pathlib import Path

_BENCH_DIR = str(Path(__file__).resolve().parent) + "/"

#: Layers reported as ``<layer>.self_ms_per_mb``.
LAYERS = (
    "stream.tokenizer",
    "stream.codec",
    "stream.writer",
    "xpath",
    "multiq",
    "core",
    "compile",
    "store",
    "transform",
    "serve",
)

_STREAM_LAYERS = {"tokenizer", "codec", "writer"}
_MAX_HOPS = 12


def layer_of(filename: str) -> "str | None":
    """The layer a code location belongs to, or None outside ``repro``."""
    if filename.startswith(_BENCH_DIR):
        return "bench"  # the benchmark's own callbacks and loops
    if filename.startswith("<repro.compile."):
        return "compile"  # generated transition functions
    marker = "/src/repro/"
    index = filename.rfind(marker)
    if index < 0:
        return None
    parts = filename[index + len(marker):].split("/")
    if len(parts) < 2:
        return "repro.other"
    package, module = parts[0], parts[1].removesuffix(".py")
    if package == "stream":
        return f"stream.{module}" if module in _STREAM_LAYERS else "stream.other"
    return package if package in LAYERS else "repro.other"


def self_seconds(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer (plus ``stream.other``, ``repro.other``, ``other``)."""
    table = stats.stats  # type: ignore[attr-defined]
    totals: dict[str, float] = {}

    def credit(layer: str, seconds: float) -> None:
        totals[layer] = totals.get(layer, 0.0) + seconds

    for func, (_cc, _nc, tottime, _ct, callers) in table.items():
        layer = layer_of(func[0])
        if layer is not None:
            credit(layer, tottime)
            continue
        # Outside repro: walk up the caller graph to the nearest repro frame.
        frontier = _split(callers, tottime, by_own=True)
        for _ in range(_MAX_HOPS):
            if not frontier:
                break
            next_frontier: list[tuple[tuple, float]] = []
            for caller, seconds in frontier:
                caller_layer = layer_of(caller[0])
                if caller_layer is not None:
                    credit(caller_layer, seconds)
                    continue
                entry = table.get(caller)
                if entry is None or not entry[4]:
                    credit("other", seconds)
                    continue
                next_frontier.extend(_split(entry[4], seconds, by_own=False))
            frontier = next_frontier
        else:
            for _caller, seconds in frontier:
                credit("other", seconds)
        if not callers:
            credit("other", tottime)
    return totals


def _split(callers: dict, seconds: float, by_own: bool) -> list[tuple[tuple, float]]:
    """Share ``seconds`` over ``callers`` by own (tt) or cumulative (ct) time."""
    index = 2 if by_own else 3
    weights = {caller: entry[index] for caller, entry in callers.items()}
    total = sum(weights.values())
    if total <= 0:
        count = len(callers)
        return [(caller, seconds / count) for caller in callers] if count else []
    return [(caller, seconds * weight / total) for caller, weight in weights.items()]
