"""The benchmark's workloads, driven through the public APIs.

Each workload builds its inputs from the seed in set-up, then exposes
phases.  A phase is one pass over the workload's input through one path
of the program; it times itself, checks its output against the
reference and appends its samples to a :class:`Pass`.  The timed run
repeats phases for a share of the run's seconds; the traced run makes
one untraced and one traced pass of every phase (see ``run.py``).

Phases are closed loops: the next chunk is fed when the previous call
returns.  All load comes from this process (serve-xmark adds one server
child), with at most two connections.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import shutil
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

from repro.bench.multiq import DEFAULT_SEED as MULTIQ_DEFAULT_SEED
from repro.bench.multiq import multiq_workload
from repro.bench.queries import BOOK_QUERIES, PATH_CLASS, XMARK_QUERIES
from repro.core.processor import XPathStream
from repro.multiq.engine import MultiQueryEngine
from repro.store.log import EventLogReader, ReplayStats
from repro.store.replay import ingest, replay, replay_into
from repro.transform.extract import SubstreamExtractor
from repro.xpath import compile_query

import common
from common import ChunkMap, input_bytes, median, split_chunks

perf = time.perf_counter

#: Input chunk size of the in-process workloads (characters).
CHUNK = 4096
#: Times each workload builds its engines to measure ``setup_s``.
SETUP_TRIALS = 7
#: The repository's fixed XMark queries (the seed drives the corpus only),
#: so archive and serve figures move with the program, not a query draw.
XMARK = {spec.qid: spec.xpath for spec in XMARK_QUERIES}
#: Live queries of archive-xmark's ingest: nested predicate path,
#: descendant path, predicate with descendant text, attribute predicate.
#: None is rooted at /site: those emit when the document element closes,
#: and mixing them in made the result-latency tail track how many results
#: wait for the end rather than how long anything takes.
ARCHIVE_QUERIES = {qid: XMARK[qid] for qid in ("XM3", "XM5", "XM9", "XM10")}
#: Selective late query of archive-xmark (index skipping applies).
LATE_QUERY = "//person/emailaddress"
#: Extraction queries (archive replay_into and serve ``select:`` sessions).
EXTRACT_QUERIES = {
    "names": "//person/name",
    "prices": "//closed_auction/price",
    "bidders": "//open_auction/bidder",
}

#: Corpus sizes per ``size``: "full" for measuring, "tiny" for the
#: benchmark's own smoke tests.
SIZES = {
    "full": {"standing_bytes": 850_000, "archive_bytes": 1_700_000,
             "serve_bytes": 430_000, "book_bytes": 700_000, "standing_queries": 1000},
    "tiny": {"standing_bytes": 50_000, "archive_bytes": 50_000,
             "serve_bytes": 100_000, "book_bytes": 60_000, "standing_queries": 40},
}


def _discard(*_args) -> None:
    pass


@dataclass
class Pass:
    """Samples accumulated over the repeated passes of one phase.

    Phases record wall seconds; the runner then rescales each pass's
    samples to reference speed (:class:`common.SpeedClock`), keeping the
    raw total in ``wall``.
    """

    bytes: int = 0
    seconds: float = 0.0
    wall: float = 0.0
    passes: int = 0
    chunk_s: list = field(default_factory=list)
    result_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def mark(self) -> tuple:
        return len(self.chunk_s), len(self.result_s), self.seconds

    def scale_since(self, mark: tuple, factor: float) -> None:
        """Rescale what was recorded after ``mark`` by ``factor``."""
        chunks, results, seconds = mark
        self.chunk_s[chunks:] = [t * factor for t in self.chunk_s[chunks:]]
        self.result_s[results:] = [t * factor for t in self.result_s[results:]]
        self.wall += self.seconds - seconds
        self.seconds = seconds + (self.seconds - seconds) * factor

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"MISMATCH {what}", file=sys.stderr)


def check_ids(acc: Pass, got: list, expected: list, what: str) -> None:
    acc.check(sorted(got) == expected, what)


class Workload:
    """Base: seeded inputs plus named phases; subclasses fill both."""

    name = ""
    #: Phase names; the first is the primary feed, the second the
    #: ``alt_mb_s`` path.  Shares split the run's seconds.
    phases: tuple = ()
    shares: tuple = ()

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.params = SIZES[size]
        self.clock = common.SpeedClock()
        #: Reference-speed factor of every pass run so far.
        self.factors: list[float] = []

    # -- hooks ---------------------------------------------------------------

    def setup_samples(self) -> list[float]:
        """Build the workload's engines several times; seconds per build."""
        raise NotImplementedError

    def setup_seconds(self) -> float:
        """``setup_s``: call after the phases ran (serve adds handshakes)."""
        return median(self._setup)

    def measure_setup(self) -> None:
        self.clock.probe()
        samples = self.setup_samples()
        self.clock.probe()
        factor = self.clock.take_factor()
        self._setup = [seconds * factor for seconds in samples]

    def run_pass(self, phase: str, acc: Pass, tracer=None) -> None:
        """One pass of ``phase``, its times rescaled to reference speed."""
        mark = acc.mark()
        self.probe()
        self.phase(phase, acc, tracer)
        self.probe()
        factor = self.take_factor()
        self.factors.append(factor)
        acc.scale_since(mark, factor)

    def probe(self) -> None:
        """Probe the host's speed around a pass."""
        self.clock.probe()

    def take_factor(self) -> float:
        """The reference-speed factor of the pass just run."""
        return self.clock.take_factor()

    def untraced(self, run) -> float:
        """Run ``run()`` untraced; return the seconds spent in GC meanwhile."""
        clock = common.GcClock()
        gc.callbacks.append(clock)
        try:
            run()
        finally:
            gc.callbacks.remove(clock)
        return clock.seconds

    def profiled(self, run) -> pstats.Stats:
        """Run ``run()`` under cProfile; return the stats."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()
        return pstats.Stats(profiler)

    def peak_mem_bytes(self) -> int:
        raise NotImplementedError

    def queries(self) -> list[str]:
        """Every XPath the workload parses (for ``xpath.setup_ms``)."""
        raise NotImplementedError

    def counts(self) -> dict:
        """Per-layer counts from public return values (after a pass)."""
        return {}

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        return {}

    def phase(self, name: str, acc: Pass, tracer) -> None:
        getattr(self, f"phase_{name.replace('-', '_')}")(acc, tracer)


def traced_peak(run) -> int:
    """``tracemalloc`` peak bytes over ``run()``, excluding what exists before."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Hits:
    """Results as they arrive: query names, node ids and arrival times.

    Ids and times live in flat arrays, so recording a result allocates no
    container that the garbage collector would have to scan.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array("q")
        self.times = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def clear(self) -> None:
        del self.names[:], self.ids[:], self.times[:]

    def multi(self):
        """An ``on_match(name, node_id)`` callback recording into this."""
        names, ids, times = self.names.append, self.ids.append, self.times.append

        def on_match(name, node_id):
            names(name)
            ids(node_id)
            times(perf())

        return on_match

    def single(self):
        """An ``on_match(node_id)`` callback recording into this."""
        ids, times = self.ids.append, self.times.append

        def on_match(node_id):
            ids(node_id)
            times(perf())

        return on_match

    def by_name(self, names) -> dict[str, list]:
        got: dict[str, list] = {name: [] for name in names}
        for name, node_id in zip(self.names, self.ids):
            got[name].append(node_id)
        return got

    def latencies(self, acc: Pass, starts, chunk_map: ChunkMap, clock) -> None:
        """Result latency: arrival minus the start of the carrying chunk."""
        chunk_of, between = chunk_map.chunk_of, clock.between
        acc.result_s.extend(
            between(starts[chunk_of(node_id)], t)
            for node_id, t in zip(self.ids, self.times))


def _feed_timed(acc: Pass, feed, chunks, tracer, clock) -> list[float]:
    """Feed ``chunks`` one call each, recording per-chunk wall time and
    probing the clock between chunks."""
    starts = [0.0] * len(chunks)
    chunk_s = acc.chunk_s
    for index, chunk in enumerate(chunks):
        if tracer is not None:
            tracer.begin("chunk", index=index)
        started = perf()
        starts[index] = started
        feed(chunk)
        chunk_s.append(perf() - started)
        if tracer is not None:
            tracer.end()
        clock.maybe_probe(index)
    return starts


# -- standing-xmark ----------------------------------------------------------


class StandingXmark(Workload):
    """1000 standing queries on one XMark feed (the multiq router path)."""

    name = "standing-xmark"
    phases = ("push", "pull")
    shares = (0.6, 0.4)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.text = common.xmark_text(self.params["standing_bytes"], seed)
        self.size = input_bytes(self.text)
        self.chunks = split_chunks(self.text, CHUNK)
        self.chunk_map = ChunkMap(self.chunks)
        # The query draw is fixed (BENCH_multiq's seed): redrawing it per
        # seed swung peak memory by a quarter through result volume.
        self.query_set = multiq_workload(self.params["standing_queries"],
                                         MULTIQ_DEFAULT_SEED)
        self.expected = common.reference_ids(self.text, self.query_set)
        self.hits = Hits()
        self.engine = None

    def queries(self):
        return list(self.query_set.values())

    def _build(self):
        return MultiQueryEngine(self.query_set, on_match=self.hits.multi())

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_TRIALS):
            started = perf()
            self.engine = self._build()
            samples.append(perf() - started)
        return samples

    def _pass(self, acc: Pass, tracer, push: bool) -> None:
        engine = self.engine
        engine.reset()
        self.hits.clear()
        feed = engine.feed_text_push if push else engine.feed_text
        started = perf()
        starts = _feed_timed(acc, feed, self.chunks, tracer, self.clock)
        engine.close()
        acc.seconds += self.clock.between(started, perf())
        acc.bytes += self.size
        got = self.hits.by_name(self.query_set)
        if push:
            self.hits.latencies(acc, starts, self.chunk_map, self.clock)
        for name, expected in self.expected.items():
            check_ids(acc, got[name], expected, f"{self.name} {name}")
        self.results = len(self.hits)

    def phase_push(self, acc, tracer):
        self._pass(acc, tracer, push=True)

    def phase_pull(self, acc, tracer):
        self._pass(acc, tracer, push=False)

    def peak_mem_bytes(self):
        engine = MultiQueryEngine(self.query_set, on_match=_discard)

        def run():
            for chunk in self.chunks:
                engine.feed_text_push(chunk)
            engine.close()

        return traced_peak(run)

    def counts(self):
        stats = self.engine.dispatch_stats()
        return {
            "multiq.units": self.engine.unit_count(),
            "multiq.machine_events_dispatched": stats.machine_events_dispatched,
            "multiq.dispatch_reduction": stats.reduction,
            "core.results": self.results,
        }

    def describe(self):
        return {"corpus": "xmark", "target_bytes": self.params["standing_bytes"],
                "bytes": self.size, "events": self.chunk_map.events,
                "queries": len(self.query_set)}


# -- book-recursive ----------------------------------------------------------


class BookRecursive(Workload):
    """The paper's Q1-Q10 on recursive Book data: pull, then compiled."""

    name = "book-recursive"
    phases = ("pull", "compiled")
    shares = (0.7, 0.3)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.text = common.book_text(self.params["book_bytes"], seed)
        self.size = input_bytes(self.text)
        self.chunks = split_chunks(self.text, CHUNK)
        self.chunk_map = ChunkMap(self.chunks)
        self.query_set = {spec.qid: spec.xpath for spec in BOOK_QUERIES}
        self.expected = common.reference_ids(self.text, self.query_set)
        self.results = 0

    def queries(self):
        return list(self.query_set.values())

    def _pull_streams(self):
        streams = []
        for qid, query in self.query_set.items():
            hits = Hits()
            streams.append((qid, XPathStream(query, on_match=hits.single()), hits))
        return streams

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_TRIALS):
            started = perf()
            self._pull_streams()
            self.compiled = [(qid, XPathStream(query, compiled=True))
                             for qid, query in self.query_set.items()]
            samples.append(perf() - started)
        return samples

    def phase_pull(self, acc, tracer):
        # Fresh streams per pass: XPathStream.reset() keeps a callback
        # sink's seen-set, so a reset stream would suppress every repeat.
        self.results = 0
        for qid, stream, hits in self._pull_streams():
            if tracer is not None:
                tracer.begin("query", qid=qid)
            started = perf()
            starts = _feed_timed(acc, stream.feed_text, self.chunks, tracer, self.clock)
            stream.close()
            acc.seconds += self.clock.between(started, perf())
            if tracer is not None:
                tracer.end()
            acc.bytes += self.size
            hits.latencies(acc, starts, self.chunk_map, self.clock)
            check_ids(acc, list(hits.ids), self.expected[qid],
                      f"{self.name} pull {qid}")
            self.results += len(hits)

    def phase_compiled(self, acc, tracer):
        for qid, stream in self.compiled:
            stream.reset()
            if tracer is not None:
                tracer.begin("query", qid=qid)
            started = perf()
            for chunk in self.chunks:
                stream.feed_text_push(chunk)
            got = stream.close()
            acc.seconds += perf() - started
            if tracer is not None:
                tracer.end()
            acc.bytes += self.size
            check_ids(acc, list(got), self.expected[qid],
                      f"{self.name} compiled {qid}")
            self.clock.probe()

    def peak_mem_bytes(self):
        # The predicate queries (TwigM, Q5-Q10) are the Fig. 8 subject; the
        # path queries keep O(depth) state, and tracing them too would
        # double the cost of this untimed pass.
        streams = [XPathStream(spec.xpath, on_match=_discard)
                   for spec in BOOK_QUERIES if spec.fragment != PATH_CLASS]

        def run():
            for stream in streams:
                for chunk in self.chunks:
                    stream.feed_text(chunk)
                stream.close()

        return traced_peak(run)

    def counts(self):
        return {
            "core.results": self.results,
            "compile.dfa_queries": sum(
                1 for _qid, stream in self.compiled if stream.engine_name == "dfa"
            ),
        }

    def describe(self):
        return {"corpus": "book", "target_bytes": self.params["book_bytes"],
                "bytes": self.size, "events": self.chunk_map.events,
                "queries": len(self.query_set)}


# -- archive-xmark -----------------------------------------------------------


class ArchiveXmark(Workload):
    """Durable ingest with 4 live queries, then three reads of the log."""

    name = "archive-xmark"
    phases = ("ingest", "extract", "replay", "late")
    shares = (0.5, 0.3, 0.1, 0.1)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.text = common.xmark_text(self.params["archive_bytes"], seed)
        self.size = input_bytes(self.text)
        self.chunks = split_chunks(self.text, CHUNK)
        self.chunk_map = ChunkMap(self.chunks)
        self.query_set = ARCHIVE_QUERIES
        self.expected = common.reference_ids(self.text, self.query_set)
        self.expected_late = common.reference_ids(
            self.text, {"late": LATE_QUERY})["late"]
        self.expected_fragments = common.reference_fragments(
            self.text, EXTRACT_QUERIES)
        self.workdir = common.CACHE / f"work-{self.name}-{os.getpid()}"
        self.log = str(self.workdir / "log")
        self.ingested = None
        self.late_stats = ReplayStats()
        self.fragments: list = []

    def queries(self):
        return [*self.query_set.values(), LATE_QUERY, *EXTRACT_QUERIES.values()]

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_TRIALS):
            started = perf()
            MultiQueryEngine(self.query_set, on_match=_discard)
            SubstreamExtractor(EXTRACT_QUERIES)
            samples.append(perf() - started)
        return samples

    def _engine(self, on_match) -> MultiQueryEngine:
        """A live engine for one ingest, with an empty log directory."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return MultiQueryEngine(self.query_set, on_match=on_match)

    def _ingest(self, engine, tracer=None, pulls=None):
        def source():
            for index, chunk in enumerate(self.chunks):
                if pulls is not None:
                    pulls.append(perf())
                if tracer is not None:
                    tracer.instant("chunk", index=index)
                yield chunk
                self.clock.maybe_probe(index)

        return ingest(source(), self.log, engine=engine, sync="none")

    def phase_ingest(self, acc, tracer):
        hits = Hits()
        engine = self._engine(hits.multi())
        pulls: list[float] = []
        started = perf()
        result = self._ingest(engine, tracer, pulls)
        ended = perf()
        between = self.clock.between
        acc.seconds += between(started, ended)
        acc.bytes += self.size
        pulls.append(ended)
        acc.chunk_s.extend(between(a, b) for a, b in zip(pulls, pulls[1:]))
        hits.latencies(acc, pulls, self.chunk_map, self.clock)
        got = hits.by_name(self.query_set)
        for name, expected in self.expected.items():
            check_ids(acc, got[name], expected, f"{self.name} ingest {name}")
        acc.check(result.events == self.chunk_map.events,
                  f"{self.name} ingest event count {result.events}")
        self.engine, self.ingested, self.results = engine, result, len(hits)

    def _require_log(self) -> None:
        if self.ingested is None:
            self.engine = self._engine(_discard)
            self.ingested = self._ingest(self.engine)
            self.results = 0

    def phase_replay(self, acc, tracer):
        self._require_log()
        started = perf()
        got = replay(dict(self.query_set), self.log)
        acc.seconds += perf() - started
        acc.bytes += self.size
        for name, expected in self.expected.items():
            check_ids(acc, got[name], expected, f"{self.name} replay {name}")

    def phase_late(self, acc, tracer):
        self._require_log()
        stats = ReplayStats()
        started = perf()
        got = replay(LATE_QUERY, self.log, stats=stats)
        acc.seconds += perf() - started
        acc.bytes += self.size
        check_ids(acc, got, self.expected_late, f"{self.name} late query")
        self.late_stats = stats

    def phase_extract(self, acc, tracer):
        self._require_log()
        extractor = SubstreamExtractor(EXTRACT_QUERIES)
        started = perf()
        fragments = replay_into(extractor, self.log)
        acc.seconds += perf() - started
        acc.bytes += self.size
        got = [[f.query, f.node_id, f.text] for f in fragments]
        acc.check(got == self.expected_fragments, f"{self.name} extract")
        self.fragments = got

    def peak_mem_bytes(self):
        engine = self._engine(_discard)
        return traced_peak(lambda: self._ingest(engine))

    def counts(self):
        reader = EventLogReader(self.log)
        sizes = [
            len(json.dumps(reader.load_checkpoint(info.id), separators=(",", ":")))
            for info in reader.checkpoints()
        ]
        log_bytes = sum(p.stat().st_size for p in self.workdir.rglob("*")
                        if p.is_file())
        stats = self.engine.dispatch_stats()
        return {
            "multiq.units": self.engine.unit_count(),
            "multiq.machine_events_dispatched": stats.machine_events_dispatched,
            "multiq.dispatch_reduction": stats.reduction,
            "core.results": self.results,
            "store.checkpoints": len(self.ingested.checkpoints),
            "store.checkpoint_kb_mean": sum(sizes) / len(sizes) / 1024 if sizes else 0,
            "store.log_bytes_per_event": log_bytes / self.ingested.events,
            "store.skip_ratio": self.late_stats.skip_ratio,
            "store.events_decoded": self.late_stats.events_emitted,
            "transform.fragments": len(self.fragments),
            "transform.fragment_bytes": sum(
                len(text.encode("utf-8")) for _q, _n, text in self.fragments),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def describe(self):
        return {"corpus": "xmark", "target_bytes": self.params["archive_bytes"],
                "bytes": self.size, "events": self.chunk_map.events,
                "queries": len(self.query_set)}


def parse_all(queries: list[str]) -> float:
    """Seconds to parse and lower every query (``xpath.setup_ms``)."""
    started = perf()
    for query in queries:
        compile_query(query)
    return perf() - started


def make(name: str, seed: int, size: str) -> Workload:
    from serve_load import ServeXmark

    classes = {cls.name: cls for cls in
               (StandingXmark, BookRecursive, ArchiveXmark, ServeXmark)}
    return classes[name](seed, size)


WORKLOADS = ("standing-xmark", "book-recursive", "archive-xmark", "serve-xmark")
