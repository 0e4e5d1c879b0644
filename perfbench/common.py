"""Shared plumbing of the layered benchmark: corpora, references, stats.

Everything here but :class:`SpeedClock` runs outside the timed regions.  Corpora are
generated from the workload seed into the benchmark's own cache
(``perfbench/.cache``), and the expected output of every workload is
computed once per input by paths independent of the engines under test:

* query ids come from the navigational DOM evaluator
  (:func:`repro.baselines.navigational.evaluate_on_document`);
* fragments come from the pull :meth:`SubstreamExtractor.evaluate`.

References are cached by a content hash of the corpus text, the queries
and :data:`REFERENCE_VERSION`, so a second run on the same seed skips
the oracle.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
from pathlib import Path

from repro.baselines.navigational import evaluate_on_document
from repro.datasets.book import PAPER_CONFIG, book_events
from repro.datasets.xmark import DEFAULT_CONFIG as XMARK_CONFIG
from repro.datasets.xmark import xmark_events
from repro.stream.document import Document, build_document
from repro.stream.events import EndElement
from repro.stream.tokenizer import XmlTokenizer, parse_string
from repro.stream.writer import events_to_string
from repro.transform.extract import SubstreamExtractor
from repro.xpath import compile_query

HERE = Path(__file__).resolve().parent
#: Corpora, references and scratch logs; tests point it elsewhere.
CACHE = Path(os.environ.get("PERFBENCH_CACHE", HERE / ".cache"))
OUT = HERE / ".out"

#: Bump when the reference computation changes, so stale caches miss.
REFERENCE_VERSION = 1

MB = 1_000_000


# -- corpora -------------------------------------------------------------


#: XMark bytes per unit of scale (about 43 KB).
_XMARK_BYTES_PER_SCALE = 43_000


def xmark_text(target_bytes: int, seed: int) -> str:
    """Seeded XMark auction document (default generator knobs, new seed)
    whose size is closest to ``target_bytes`` among scales within ±10% of
    the nominal one.

    At a fixed scale the size swings by ±12% with the seed, and result
    volume, memory and result latency swing with it.
    """
    config = dataclasses.replace(XMARK_CONFIG, seed=seed)
    nominal = target_bytes / _XMARK_BYTES_PER_SCALE

    def closest() -> str:
        candidates = [events_to_string(xmark_events(nominal * step, config))
                      for step in (0.9, 0.95, 1.0, 1.05, 1.1)]
        return min(candidates, key=lambda text: abs(len(text) - target_bytes))

    return _cached_corpus(f"xmark-b{target_bytes}-seed{seed}", closest)


def book_text(target_bytes: int, seed: int) -> str:
    """Seeded recursive Book corpus (the paper's generator knobs, new seed):
    the shortest prefix of books that reaches ``target_bytes``.

    Book sizes are heavy-tailed, so a fixed book count would make the
    corpus size, and everything measured on it, swing with the seed.
    """
    config = dataclasses.replace(PAPER_CONFIG, seed=seed)

    def events():
        stream = book_events(10_000, config)
        yield next(stream)  # <bib>
        size, book = 0, []
        for event in stream:
            book.append(event)
            if isinstance(event, EndElement) and event.level == 2:
                yield from book
                size += len(events_to_string(book))
                book = []
                if size >= target_bytes:
                    break
        yield EndElement("bib", 1)

    return _cached_corpus(f"book-b{target_bytes}-seed{seed}",
                          lambda: events_to_string(events()))


def _cached_corpus(name: str, make_text) -> str:
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"{name}.xml"
    if path.exists():
        return path.read_text(encoding="utf-8")
    text = make_text()
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
    return text


def split_chunks(text: str, size: int) -> list[str]:
    return [text[i:i + size] for i in range(0, len(text), size)]


def input_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


class _StartCounter:
    """Push handler counting events and the last node id started."""

    def __init__(self) -> None:
        self.last_id = 0
        self.events = 0

    def start_element(self, tag, level, node_id, attributes) -> None:
        self.last_id = node_id
        self.events += 1

    def characters(self, text, level) -> None:
        self.events += 1

    def end_element(self, tag, level) -> None:
        self.events += 1


class ChunkMap:
    """Maps a node id to the chunk that carried its start tag.

    Built by one tokenizer pass over the same chunking the workload
    feeds; node ids are assigned in document order, so chunk ``i``
    carries the ids in ``(bounds[i-1], bounds[i]]``.
    """

    def __init__(self, chunks: list[str]):
        tokenizer = XmlTokenizer()
        counter = _StartCounter()
        self.bounds: list[int] = []
        for chunk in chunks:
            tokenizer.feed_into(chunk, counter)
            self.bounds.append(counter.last_id)
        tokenizer.close_into(counter)
        self.events = counter.events
        self.elements = counter.last_id

    def chunk_of(self, node_id: int) -> int:
        return bisect.bisect_left(self.bounds, node_id)


# -- references ------------------------------------------------------------


class _AlphabetDocument(Document):
    """A document whose element scan covers only a query's tag alphabet.

    :func:`evaluate_on_document` scans ``iter_elements()`` to build
    node sets and intersects every set with tag matches, so elements whose
    tag no query node names can never enter a result; leaving them out of
    the scan changes no answer (the benchmark's tests check this against
    the full document).  It makes the 1000-query oracle affordable.
    """

    __slots__ = ("_elements",)

    def __init__(self, root, elements):
        super().__init__(root)
        self._elements = elements

    def iter_elements(self):
        return iter(self._elements)


class NavigationalOracle:
    """Reference query ids over one document, via the DOM evaluator."""

    def __init__(self, text: str):
        self.document = build_document(parse_string(text))
        self._all = list(self.document.root.iter_subtree())
        self._by_tag: dict[str, list] = {}
        for element in self._all:
            self._by_tag.setdefault(element.tag, []).append(element)

    def view(self, query: str) -> Document:
        names = {node.name for node in compile_query(query).iter_nodes()}
        if "*" in names:
            return _AlphabetDocument(self.document.root, self._all)
        elements = [e for name in names for e in self._by_tag.get(name, ())]
        elements.sort(key=lambda element: element.node_id)
        return _AlphabetDocument(self.document.root, elements)

    def ids(self, query: str) -> list[int]:
        return evaluate_on_document(self.view(query), query)


def _cache_key(kind: str, text: str, payload) -> str:
    digest = hashlib.sha256()
    digest.update(f"{kind}:{REFERENCE_VERSION}\0".encode())
    digest.update(text.encode("utf-8"))
    digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:32]


def _cached(kind: str, text: str, payload, compute):
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"ref-{kind}-{_cache_key(kind, text, payload)}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    value = compute()
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value), encoding="utf-8")
    tmp.replace(path)
    return value


def reference_ids(text: str, queries: dict[str, str]) -> dict[str, list[int]]:
    """Expected sorted ids per query name (oracle run once per distinct query)."""

    def compute():
        oracle = NavigationalOracle(text)
        by_query = {query: oracle.ids(query) for query in set(queries.values())}
        return {name: by_query[query] for name, query in queries.items()}

    return _cached("ids", text, queries, compute)


def reference_fragments(text: str, queries: dict[str, str]) -> list[list]:
    """Expected ``[query, node_id, text]`` fragments, pull extraction."""

    def compute():
        fragments = SubstreamExtractor(queries).evaluate(text)
        return [[f.query, f.node_id, f.text] for f in fragments]

    return _cached("fragments", text, queries, compute)


# -- statistics ------------------------------------------------------------

#: Seconds :func:`_calibration_loop` takes at the reference speed: its
#: fast state on the 2-vCPU x86-64 container (CPython 3.11) where this
#: benchmark was defined.
REFERENCE_SECONDS = 0.0075


def _calibration_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class SpeedClock:
    """Calibration probes that rescale wall times to reference speed.

    The host's speed drifts by a quarter or more over tens of seconds
    (shared cores), and a pure-Python loop slows by about the same factor
    as the program.  Workloads call :meth:`probe` between chunks and
    passes; a pass's times are multiplied by the mean
    ``REFERENCE_SECONDS / loop time`` of the probes taken around and
    inside it, and the probes' own time is taken out of every interval
    (:meth:`between`).  See README, "Times are at reference speed".
    """

    #: Chunks fed between two probes inside a pass.
    EVERY = 32

    def __init__(self) -> None:
        self._ends: list[float] = []
        self._paused: list[float] = []
        self._factors: list[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        _calibration_loop()
        ended = time.perf_counter()
        self._factors.append(REFERENCE_SECONDS / (ended - started))
        self._ends.append(ended)
        self._paused.append((self._paused[-1] if self._paused else 0.0)
                            + ended - started)

    def maybe_probe(self, index: int) -> None:
        """Probe after every :attr:`EVERY`-th chunk."""
        if index % self.EVERY == self.EVERY - 1:
            self.probe()

    def _paused_before(self, moment: float) -> float:
        index = bisect.bisect_right(self._ends, moment)
        return self._paused[index - 1] if index else 0.0

    def between(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end`` (``perf_counter`` values)
        minus the probes that ran in between."""
        return end - start - (self._paused_before(end) - self._paused_before(start))

    def take_factor(self) -> float:
        """Mean factor of the probes since the last call (at least one)."""
        if not self._factors:
            self.probe()
        factor = statistics.fmean(self._factors)
        self._factors.clear()
        return factor


def tail_quantile(samples: list[float], q: float = 0.99) -> tuple[float, float]:
    """``(value, quantile)``: the ``q`` quantile, or the highest quantile
    with at least ten samples beyond it when ``samples`` is too short."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    usable = max(0.5, min(q, 1.0 - 10.0 / n))
    ordered = sorted(samples)
    rank = usable * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return value, usable


def median(samples: list[float]) -> float:
    return statistics.median(samples)


class GcClock:
    """Wall seconds spent in garbage collection, fed by ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase, _info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
