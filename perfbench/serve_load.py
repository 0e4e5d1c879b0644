"""serve-xmark: two concurrent ServeClient sessions against a server child.

The server (:mod:`serve_child`) runs a default-config ``SessionServer``
with the in-memory session store in its own process; this process is the
load generator.  Each round opens two sessions at once and streams the
whole document through each in 16 KiB chunks (closed loop: the next
round starts when both sessions have seen DONE).  No faults are
injected, so any retry or resume counts as a failure.

Timestamps come from public surfaces of :class:`ServeClient`: the
``mangle`` hook sees every outgoing frame (DATA send times), the
``results`` mapping is replaced by one that stamps each arrival, and
``acked_offset`` records when each checkpoint ACK arrived.  Latencies
exclude the queue wait that flooding the socket adds (see
:meth:`ServeXmark._group_starts`).
"""

from __future__ import annotations

import asyncio
import json
import pstats
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import FrameType, ServeClient

import common
from common import ChunkMap, input_bytes, median, split_chunks
from workloads import EXTRACT_QUERIES, SETUP_TRIALS, XMARK, Pass, Workload, check_ids

perf = time.perf_counter
CHILD = Path(__file__).resolve().parent / "serve_child.py"
#: Input chunk size of serve sessions (characters).
SERVE_CHUNK = 16 * 1024
SESSIONS = 2
QUERIES_PER_SESSION = 8
#: RACKs off: a RACK written while the server closes after DONE fails the
#: attempt ("connection closed by server") and forces a resume, about
#: one session in 30.  A session's few thousand results stay far below
#: the server's unacknowledged-result cap.
_NO_RACK = 1 << 30
#: Offset of the type byte in a frame header (``!IBI``: length, type, CRC).
_TYPE_BYTE = 4


class ServerChild:
    """The server process; a context manager that always reaps it."""

    def __init__(self, *flags: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("server child exited before listening")
        hello = json.loads(line)
        self.port = hello["port"]
        self.setup_s = hello["setup_s"]
        self.report: dict = {}

    def probe(self) -> float:
        """The server core's reference-speed factor, measured now."""
        self.proc.stdin.write("PROBE\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["factor"]

    def stop(self) -> dict:
        if self.proc.poll() is None:
            try:
                out, _ = self.proc.communicate("STOP\n", timeout=60)
                lines = out.strip().splitlines()
                self.report = json.loads(lines[-1]) if lines else {}
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.report

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


class _StampedResults(dict):
    """``ServeClient.results`` that records ``(node_id, arrival)`` per result."""

    def __init__(self):
        super().__init__()
        self.arrivals: list = []

    def __setitem__(self, seq, value):
        self.arrivals.append((value[1], perf()))
        super().__setitem__(seq, value)


class _StampedClient(ServeClient):
    """A ServeClient whose public ``acked_offset`` records each ACK's arrival."""

    @property
    def acked_offset(self) -> int:
        return self._acked

    @acked_offset.setter
    def acked_offset(self, offset: int) -> None:
        self._acked = offset
        if offset:
            self.acks.append((offset, perf()))


class _Session:
    def __init__(self, port: int, queries: dict, tracer, index: int):
        self.sends: list[float] = []
        self.tracer = tracer
        self.index = index
        self.client = _StampedClient("127.0.0.1", port, queries,
                                     mangle=self._mangle, rng=random.Random(index),
                                     rack_every=_NO_RACK)
        self.client.acks = []
        self.client.results = _StampedResults()

    def _mangle(self, data: bytes) -> bytes:
        # One frame per call; the type byte follows the 4-byte length.
        if data[_TYPE_BYTE] == FrameType.DATA:
            self.sends.append(perf())
            if self.tracer is not None:
                self.tracer.instant("chunk", session=self.index,
                                    index=len(self.sends) - 1)
        return data

    async def run(self, chunks):
        self.started = perf()
        try:
            return await self.client.run(chunks)
        finally:
            self.ended = perf()


class ServeXmark(Workload):
    """Standing queries over the wire (framing, sessions, asyncio loop)."""

    name = "serve-xmark"
    phases = ("sessions", "select")
    shares = (0.7, 0.3)

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        self.text = common.xmark_text(self.params["serve_bytes"], seed)
        self.size = input_bytes(self.text)
        self.chunks = split_chunks(self.text, SERVE_CHUNK)
        self.chunk_map = ChunkMap(self.chunks)
        #: End offset (characters) of each chunk -> chunk index.
        self.chunk_ending = {}
        offset = 0
        for index, chunk in enumerate(self.chunks):
            offset += len(chunk)
            self.chunk_ending[offset] = index
        # Session 0 registers XM1-XM8 and session 1 XM3-XM10.
        names = list(XMARK)
        self.session_queries = [
            {name: XMARK[name] for name in names[i * 2:i * 2 + QUERIES_PER_SESSION]}
            for i in range(SESSIONS)
        ]
        self.expected = common.reference_ids(self.text, XMARK)
        self.select_queries = {
            name: "select:" + query for name, query in EXTRACT_QUERIES.items()}
        self.expected_fragments = common.reference_fragments(
            self.text, EXTRACT_QUERIES)
        #: The main server child (timed run) and the one sessions dial now.
        self.child: "ServerChild | None" = None
        self.active: "ServerChild | None" = None
        self.server_factors: list[float] = []
        self.handshakes: list[float] = []
        self.attempts: list[int] = []
        self.results = 0
        self.fragments: list = []

    def queries(self):
        return [q for qs in self.session_queries for q in qs.values()] + list(
            EXTRACT_QUERIES.values())

    # -- set-up ----------------------------------------------------------

    def setup_samples(self):
        self.child = self.active = ServerChild("--setup-trials", str(SETUP_TRIALS))
        return self.child.setup_s

    def probe(self) -> None:
        """Probe this process and the server child: the two run on
        different cores, whose speeds drift apart."""
        self.clock.probe()
        self.server_factors.append(self.active.probe())

    def take_factor(self) -> float:
        server = sum(self.server_factors) / len(self.server_factors)
        self.server_factors.clear()
        return (server + self.clock.take_factor()) / 2

    def setup_seconds(self):
        factor = sum(self.factors) / len(self.factors)
        return median(self._setup) + median(self.handshakes) * factor

    def close(self):
        if self.child is not None:
            self.child.stop()

    # -- rounds ------------------------------------------------------------

    def _round(self, acc: Pass, tracer, per_session: list) -> list:
        sessions = [_Session(self.active.port, queries, tracer, i)
                    for i, queries in enumerate(per_session)]

        async def both():
            return await asyncio.gather(
                *(s.run(self.chunks) for s in sessions), return_exceptions=True)

        started = perf()
        outcomes = asyncio.run(both())
        acc.seconds += perf() - started
        acc.bytes += self.size * len(sessions)
        good = []
        for session, outcome in zip(sessions, outcomes):
            client = session.client
            self.attempts.append(client.attempts)
            if isinstance(outcome, BaseException):
                acc.check(False, f"{self.name} session error {outcome!r}")
                continue
            acc.check(client.attempts == 1 and client.resumes == 0,
                      f"{self.name} session retried ({client.attempts} attempts)")
            if client.attempts == 1 and session.sends:
                good.append(session)
        return good

    def phase_sessions(self, acc, tracer):
        self.results = 0
        for session in self._round(acc, tracer, self.session_queries):
            client, sends = session.client, session.sends
            self.handshakes.append(sends[0] - session.started)
            starts = self._group_starts(session)
            chunk_of = self.chunk_map.chunk_of
            acc.result_s.extend(t - starts[chunk_of(node_id)]
                                for node_id, t in client.results.arrivals)
            acc.chunk_s.extend(session.service)
            for name in client.queries:
                check_ids(acc, client.result_ids(name), self.expected[name],
                          f"{self.name} {name}")
            self.results += len(client.results)

    def _group_starts(self, session) -> list[float]:
        """When the server could start on each chunk's checkpoint group.

        The client sends the whole document at once, so a DATA frame's
        send time is mostly queue wait.  Each ACK (every
        ``checkpoint_interval`` chunks; DONE for the tail) marks the end
        of a group; the next group starts at the later of that ACK's
        arrival and its first chunk's send.  Sets ``session.service`` to
        the per-chunk service time of each group.
        """
        sends = session.sends
        ends = [(self.chunk_ending[offset], t) for offset, t in session.client.acks]
        ends.append((len(sends) - 1, session.ended))
        starts = [0.0] * len(sends)
        session.service = []
        first, previous = 0, sends[0]
        for last, ended in ends:
            if last < first:
                continue
            begun = max(previous, sends[first])
            starts[first:last + 1] = [begun] * (last + 1 - first)
            session.service.append((ended - begun) / (last + 1 - first))
            first, previous = last + 1, ended
        return starts

    def phase_select(self, acc, tracer):
        sessions = self._round(acc, tracer, [self.select_queries] * SESSIONS)
        for session in sessions:
            client = session.client
            got = [[name, node_id, text]
                   for name in EXTRACT_QUERIES
                   for node_id, text in zip(client.result_ids(name),
                                            client.result_fragments(name))]
            want = [[name, node_id, text]
                    for name in EXTRACT_QUERIES
                    for q, node_id, text in self.expected_fragments if q == name]
            acc.check(got == want, f"{self.name} select fragments")
            self.fragments = got

    # -- memory, tracing ---------------------------------------------------

    def peak_mem_bytes(self):
        saved = self.active
        with ServerChild("--tracemalloc") as child:
            self.active = child
            self._round(Pass(), None, self.session_queries)
        self.active = saved
        return child.report.get("peak_bytes", 0)

    def untraced(self, run) -> float:
        with ServerChild() as child:
            self.active = child
            run()
        return child.report.get("gc_s", 0.0)

    def profiled(self, run) -> pstats.Stats:
        path = common.OUT / f"serve-child-{self.seed}.prof"
        common.OUT.mkdir(parents=True, exist_ok=True)
        with ServerChild("--profile", str(path)) as child:
            self.active = child
            run()
        return pstats.Stats(str(path))

    def counts(self):
        return {
            "core.results": self.results,
            "serve.results": self.results,
            "serve.attempts_per_session": (
                sum(self.attempts) / len(self.attempts) if self.attempts else 0),
            "transform.fragments": len(self.fragments),
            "transform.fragment_bytes": sum(
                len(text.encode("utf-8")) for _q, _n, text in self.fragments),
        }

    def describe(self):
        return {"corpus": "xmark", "target_bytes": self.params["serve_bytes"],
                "bytes": self.size, "events": self.chunk_map.events,
                "sessions": SESSIONS, "queries_per_session": QUERIES_PER_SESSION}
