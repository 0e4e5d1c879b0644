"""The asyncio serving loop, end to end over real sockets.

Every test spins a real :class:`SessionServer` on an ephemeral port and
drives it with :class:`ServeClient` (or raw frames where the client
library would paper over the behaviour under test).  The sharded
multi-process front is exercised by ``ci/serve_soak.py`` — these tests
stay single-process so the tier-1 suite is fast and deterministic.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.core.processor import XPathStream
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.framing import (
    FrameDecoder,
    FrameType,
    encode_data,
    encode_frame,
    encode_json,
)
from repro.serve.server import SessionServer, shard_for_token, worker_port
from repro.serve.session import ServeConfig

XML = (
    "<site><people>"
    + "".join(
        f"<person><name>p{i}</name><age>{20 + i % 50}</age></person>"
        for i in range(300)
    )
    + "</people></site>"
)
QUERY = "//person/name"


def reference(query: str = QUERY, xml: str = XML) -> list[int]:
    stream = XPathStream(query)
    stream.feed_text(xml)
    return stream.close()


def chunked(xml: str, size: int) -> list[str]:
    return [xml[i:i + size] for i in range(0, len(xml), size)]


async def start_server(**overrides) -> SessionServer:
    defaults = dict(port=0, checkpoint_interval=2, retry_after=0.01,
                    idle_timeout=5.0)
    defaults.update(overrides)
    server = SessionServer(ServeConfig(**defaults))
    await server.start()
    return server


def run(coro):
    return asyncio.run(coro)


async def first_reply(server: SessionServer, hello: dict):
    """Send one HELLO; return the first frame back (None if it hung up)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(encode_json(FrameType.HELLO, hello))
    await writer.drain()
    decoder = FrameDecoder()
    frames = []
    while not frames:
        data = await asyncio.wait_for(reader.read(65536), timeout=5)
        if not data:
            break
        frames = decoder.feed(data)
    writer.close()
    return frames[0] if frames else None


class TestHappyPath:
    def test_single_query_byte_identical(self):
        async def go():
            server = await start_server()
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY})
            done = await client.run(chunked(XML, 777))
            await server.stop()
            return done, client

        done, client = run(go())
        assert client.result_ids("q") == reference()
        assert done["counts"] == {"q": len(reference())}

    def test_multi_query_byte_identical(self):
        queries = {"names": "//person/name", "ages": "//person/age"}

        async def go():
            server = await start_server()
            client = ServeClient("127.0.0.1", server.port, queries)
            await client.run(chunked(XML, 500))
            await server.stop()
            return client

        client = run(go())
        for name, query in queries.items():
            assert client.result_ids(name) == reference(query)

    def test_concurrent_sessions_are_isolated(self):
        async def go():
            server = await start_server()
            clients = [
                ServeClient("127.0.0.1", server.port, {"q": QUERY},
                            tenant=f"t{i % 3}")
                for i in range(12)
            ]
            await asyncio.gather(*(
                c.run(chunked(XML, 400 + 13 * i)) for i, c in enumerate(clients)
            ))
            await server.stop()
            return clients

        clients = run(go())
        expected = reference()
        for client in clients:
            assert client.result_ids("q") == expected


    def test_rack_every_result_completes_in_one_attempt(self):
        async def go():
            server = await start_server()
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 rack_every=1, max_attempts=1)
            await client.run(chunked(XML, 4096))
            await server.stop()
            return client

        client = run(go())
        assert client.attempts == 1
        assert client.result_ids("q") == reference()

    def test_rack_skipped_on_closing_transport(self):
        class ClosingWriter:
            def is_closing(self):
                return True

            def write(self, data):  # pragma: no cover - must not be called
                raise AssertionError("wrote into a closing transport")

        client = ServeClient("127.0.0.1", 1, {"q": QUERY}, rack_every=1)
        client._on_result({"seq": 1, "query": "q", "id": 7}, ClosingWriter())
        assert client.result_ids("q") == [7]
        assert client.last_seq == 1


class TestFaults:
    def test_corruption_resumes_byte_identical(self):
        rng = random.Random(11)
        corrupted = [0]

        def mangle(data: bytes) -> bytes:
            if len(data) > 200 and rng.random() < 0.2:
                i = rng.randrange(20, len(data))
                corrupted[0] += 1
                return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]
            return data

        async def go():
            server = await start_server(checkpoint_interval=1)
            client = ServeClient(
                "127.0.0.1", server.port, {"q": QUERY},
                rack_every=8, backoff_base=0.01, max_attempts=60,
                rng=random.Random(2), mangle=mangle,
            )
            done = await client.run(chunked(XML, 300))
            await server.stop()
            return done, client

        done, client = run(go())
        assert corrupted[0] > 0, "mangler never fired — test is vacuous"
        assert client.resumes > 0, "no resume was exercised"
        assert client.result_ids("q") == reference()

    def test_mid_stream_disconnect_resumes(self):
        """Kill the TCP connection partway, then resume on a new one."""
        async def go():
            server = await start_server(checkpoint_interval=1)
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 rack_every=4, backoff_base=0.01)
            chunks = chunked(XML, 250)

            async def saboteur():
                while client.last_seq < 30:
                    await asyncio.sleep(0.001)
                # yank every open connection out from under the client
                for conn in list(server._connections.values()):
                    conn.writer.transport.abort()

            sab = asyncio.ensure_future(saboteur())
            done = await client.run(chunks)
            sab.cancel()
            await server.stop()
            return done, client

        done, client = run(go())
        assert client.result_ids("q") == reference()
        assert client.attempts >= 2

    def test_worker_restart_resumes_from_spool(self, tmp_path):
        """A brand-new server over the same spool dir (a restarted worker)
        carries resumed sessions to byte-identical completion."""
        spool = str(tmp_path / "spool")

        async def go():
            config = dict(checkpoint_interval=1, spool_dir=spool)
            server = await start_server(**config)
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 rack_every=4, backoff_base=0.01)
            chunks = chunked(XML, 250)
            # feed only a prefix through server #1, then kill it cold
            prefix_task = asyncio.ensure_future(client.run(chunks))
            while client.last_seq < 20:
                await asyncio.sleep(0.001)
            prefix_task.cancel()
            try:
                await prefix_task
            except asyncio.CancelledError:
                pass
            await server.stop()
            # server #2: fresh memory, same spool, same port impossible —
            # point the client at the new address
            server2 = await start_server(**config)
            client.addr = ("127.0.0.1", server2.port)
            done = await client.run(chunks)
            await server2.stop()
            return done, client

        done, client = run(go())
        assert client.result_ids("q") == reference()
        assert client.resumes >= 1


class TestAdmissionAndErrors:
    def test_reject_over_sessions_carries_retry_after(self):
        async def go():
            server = await start_server(max_sessions=1)
            hold = ServeClient("127.0.0.1", server.port, {"q": QUERY})
            # occupy the only slot with an unfinished session
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_json(FrameType.HELLO, {"queries": {"q": QUERY}}))
            await writer.drain()
            # wait for its WELCOME so admission definitely happened
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(await reader.read(65536))
            assert frames[0].type == FrameType.WELCOME
            # second session must be refused
            refused = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                  max_attempts=2, backoff_base=0.01)
            with pytest.raises(ServeClientError, match="gave up"):
                await refused.run(chunked(XML, 500))
            writer.close()
            await server.stop()

        run(go())

    def test_bad_query_rejected_fatally(self):
        async def go():
            server = await start_server()
            client = ServeClient("127.0.0.1", server.port, {"bad": "//a[["})
            with pytest.raises(ServeClientError, match="bad_query"):
                await client.run(["<a/>"])
            await server.stop()

        run(go())

    def test_unknown_resume_token_rejected(self):
        async def go():
            server = await start_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_json(FrameType.HELLO, {
                "resume": {"token": "feedfacefeedface", "seq": 0},
            }))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(await reader.read(65536))
            writer.close()
            await server.stop()
            return frames[0]

        frame = run(go())
        assert frame.type == FrameType.REJECT
        assert frame.json()["code"] == "unknown_session"

    @pytest.mark.parametrize("hello", [
        {"resume": 5},
        {"resume": {"token": "feedfacefeedface", "seq": "x"}},
        {"queries": {"q": QUERY}, "priority": "x"},
        {"queries": {"q": QUERY}, "deadline_ms": "soon"},
    ])
    def test_malformed_hello_gets_bad_hello(self, hello):
        async def go():
            server = await start_server()
            frame = await first_reply(server, hello)
            await server.stop()
            return frame

        frame = run(go())
        assert frame is not None, "connection dropped without a REJECT"
        assert frame.type == FrameType.REJECT
        assert frame.json()["code"] == "bad_hello"

    def test_non_object_spool_blob_is_unknown_session(self, tmp_path):
        (tmp_path / "feedfacefeedface.ckpt").write_text("[]")

        async def go():
            server = await start_server(spool_dir=str(tmp_path))
            frame = await first_reply(server, {
                "resume": {"token": "feedfacefeedface", "seq": 0},
            })
            await server.stop()
            return frame

        frame = run(go())
        assert frame is not None, "connection dropped without a REJECT"
        assert frame.type == FrameType.REJECT
        assert frame.json()["code"] == "unknown_session"

    def test_resource_limit_error_is_structured_and_fatal(self):
        from repro.stream.recovery import ResourceLimits

        async def go():
            server = await start_server(
                limits=ResourceLimits(max_text_length=8), checkpoint_interval=1,
            )
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 max_attempts=3, backoff_base=0.01)
            big_text = "<a>" + "x" * 100 + "</a>"
            with pytest.raises(ServeClientError) as info:
                await client.run([big_text])
            await server.stop()
            return info.value

        error = run(go())
        payload = error.payload
        assert payload["code"] == "resource_limit"
        assert payload["error"]["limit"] == "max_text_length"
        assert payload["error"]["configured"] == 8
        json.dumps(payload)  # reject frames must stay serializable

    def test_end_offset_mismatch_reported(self):
        async def go():
            server = await start_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(encode_json(FrameType.HELLO, {"queries": {"q": "//a"}}))
            writer.write(encode_data(0, "<a/>"))
            writer.write(encode_json(FrameType.END, {"offset": 999}))
            await writer.drain()
            decoder = FrameDecoder()
            seen = []
            while not any(f.type in (FrameType.ERROR, FrameType.DONE) for f in seen):
                data = await asyncio.wait_for(reader.read(65536), timeout=5)
                if not data:
                    break
                seen += decoder.feed(data)
            writer.close()
            await server.stop()
            return seen

        frames = run(go())
        errors = [f for f in frames if f.type == FrameType.ERROR]
        assert errors and errors[0].json()["code"] == "input_gap"


class TestShedding:
    def test_load_shed_sends_retry_hint_and_resumes(self):
        async def go():
            # Tiny queue budget: the second session's queued input trips
            # the global budget and the newest session is shed.
            server = await start_server(
                max_queued_chars=2000, checkpoint_interval=1, queue_depth=4,
            )
            survivor = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                   priority=5, backoff_base=0.01)
            victim = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 priority=0, backoff_base=0.01,
                                 max_attempts=40)
            results = await asyncio.gather(
                survivor.run(chunked(XML, 400)),
                victim.run(chunked(XML, 400)),
            )
            shed_total = server.shedder.shed
            await server.stop()
            return results, survivor, victim, shed_total

        results, survivor, victim, shed_total = run(go())
        expected = reference()
        assert survivor.result_ids("q") == expected
        assert victim.result_ids("q") == expected  # shed, retried, finished
        assert shed_total >= 0  # bookkeeping stays consistent


class TestSharding:
    def test_worker_port_layout(self):
        config = ServeConfig(port=7600, shards=4)
        assert [worker_port(config, s) for s in range(4)] == [
            7601, 7602, 7603, 7604,
        ]

    def test_token_placement_is_deterministic(self):
        token = "abcdef0123456789"
        assert shard_for_token(token, 4) == shard_for_token(token, 4)
        spread = {shard_for_token(f"token{i}", 4) for i in range(64)}
        assert spread == {0, 1, 2, 3}  # all shards reachable


class TestMetrics:
    def test_served_session_updates_registry(self):
        from repro.obs.metrics import MetricsRegistry

        async def go():
            metrics = MetricsRegistry()
            config = ServeConfig(port=0, checkpoint_interval=2)
            server = SessionServer(config, metrics=metrics)
            await server.start()
            client = ServeClient("127.0.0.1", server.port, {"q": QUERY},
                                 tenant="acme", rack_every=16)
            await client.run(chunked(XML, 600))
            await server.stop()
            return metrics

        metrics = run(go())
        assert metrics.get("repro_serve_accepted_total").get(tenant="acme") == 1
        assert metrics.get("repro_serve_completed_total").get() == 1
        assert metrics.get("repro_serve_results_total").get() == len(reference())
        assert metrics.get("repro_serve_chars_total").get(tenant="acme") == len(XML)
        assert metrics.get("repro_serve_checkpoints_total").get() > 0
        # the per-tenant gauge returns to zero after the session detaches
        assert metrics.get("repro_serve_sessions").get(tenant="acme") == 0
        exposition = metrics.render_prometheus()
        assert "repro_serve_chunk_seconds" in exposition
