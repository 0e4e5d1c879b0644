"""Server child of serve-xmark: one SessionServer with the default config.

Protocol on stdio, one JSON line each way:

* the child builds and starts ``--setup-trials`` servers (keeping the
  last one) and prints ``{"port": ..., "setup_s": [...]}``;
* each ``PROBE`` line on stdin is answered with ``{"factor": ...}``, the
  reference-speed factor of this process's core (:class:`SpeedClock`),
  timed on the stdin thread while the loop is idle between rounds;
* it serves until ``STOP`` arrives on stdin (or stdin closes), then
  prints ``{"peak_bytes": ..., "gc_s": ...}`` and exits.

``--tracemalloc`` traces allocations from after server start, so the
reported peak excludes set-up; ``--profile PATH`` runs the loop under
cProfile (CPU time) from after start and dumps the stats to PATH.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import GcClock, SpeedClock  # noqa: E402
from repro.serve import ServeConfig, SessionServer  # noqa: E402


def _watch_stdin(loop, stop: asyncio.Event) -> None:
    clock = SpeedClock()
    for line in sys.stdin:
        command = line.strip()
        if command == "STOP":
            break
        if command == "PROBE":
            clock.probe()
            print(json.dumps({"factor": clock.take_factor()}), flush=True)
    loop.call_soon_threadsafe(stop.set)


async def serve(args) -> dict:
    config = ServeConfig()
    setup = []
    server = None
    for _ in range(args.setup_trials):
        if server is not None:
            await server.stop()
        started = time.perf_counter()
        server = SessionServer(config, port=0)
        await server.start()
        setup.append(time.perf_counter() - started)
    stop = asyncio.Event()
    threading.Thread(
        target=_watch_stdin, args=(asyncio.get_running_loop(), stop), daemon=True
    ).start()
    clock = GcClock()
    gc.callbacks.append(clock)
    profiler = cProfile.Profile(time.process_time) if args.profile else None
    if args.tracemalloc:
        gc.collect()
        tracemalloc.start()
    if profiler is not None:
        profiler.enable()
    print(json.dumps({"port": server.port, "setup_s": setup}), flush=True)
    try:
        await stop.wait()
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
        peak = tracemalloc.get_traced_memory()[1] if args.tracemalloc else 0
        gc.callbacks.remove(clock)
        await server.stop()
    return {"peak_bytes": peak, "gc_s": clock.seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-trials", type=int, default=1)
    parser.add_argument("--tracemalloc", action="store_true")
    parser.add_argument("--profile", default="")
    args = parser.parse_args()
    report = asyncio.run(serve(args))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
