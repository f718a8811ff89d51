"""TCP ingest frontend: wire protocol round-trips over a real socket."""

import asyncio
import json

from repro.network.mesh import Mesh2D
from repro.serve import ServeSession
from repro.serve.frontend import ServeFrontend, selfcheck


class TestSelfcheck:
    def test_selfcheck_answers_every_request(self):
        out = selfcheck(side=4, requests=120, clients=3, n_vars=8, seed=0)
        assert out["selfcheck"] == "ok"
        assert out["answered"] == 120
        assert out["requests"] + out["rejected"] >= 120
        assert out["latency_p50"] <= out["latency_p99"]


class TestWireProtocol:
    def test_create_read_write_stats_and_errors(self):
        async def main():
            sess = ServeSession(Mesh2D(2, 2), "fixed-home", seed=0)
            fe = await ServeFrontend(sess, batch_interval=0.002).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)

            async def ask(msg):
                writer.write((json.dumps(msg) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            created = await ask({"op": "create", "proc": 1, "payload": 64})
            assert created == {"ok": True, "vid": 0}
            wrote = await ask({"op": "write", "proc": 2, "vid": 0,
                               "value": 7, "id": "w1"})
            assert wrote["ok"] and wrote["id"] == "w1" and wrote["time"] > 0
            read = await ask({"op": "read", "proc": 3, "vid": 0})
            assert read["ok"] and read["value"] == 7
            stats = await ask({"op": "stats"})
            assert stats["ok"] and stats["completed"] == 2
            bad_op = await ask({"op": "frobnicate"})
            assert not bad_op["ok"] and "unknown op" in bad_op["error"]
            # Malformed JSON must answer an error, not kill the server.
            writer.write(b"this is not json\n")
            await writer.drain()
            garbled = json.loads(await reader.readline())
            assert not garbled["ok"]
            still_alive = await ask({"op": "stats"})
            assert still_alive["ok"]

            writer.close()
            await fe.aclose()
            return sess.close()

        report = asyncio.run(main())
        assert report.requests == 2 and report.created == 1


def _connection_tasks():
    """The request-task set of the one open connection, read from its
    suspended ``ServeFrontend._client`` coroutine."""
    (coro,) = [t.get_coro() for t in asyncio.all_tasks()
               if getattr(t.get_coro(), "__qualname__", "")
               == "ServeFrontend._client"]
    return coro.cr_frame.f_locals["tasks"]


class TestLongLivedConnection:
    def test_answered_requests_are_not_retained(self):
        """A connection used for many requests must not keep one finished
        task per request, or its memory grows with every request."""

        async def main():
            sess = ServeSession(Mesh2D(2, 2), "fixed-home", seed=0)
            sess.create(0, 64)
            fe = await ServeFrontend(sess, batch_interval=0.001).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)
            for i in range(60):
                req = {"op": "read", "proc": i % 4, "vid": 0, "id": i}
                writer.write((json.dumps(req) + "\n").encode())
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
            held = _connection_tasks()
            # A task leaves the set one loop iteration after it finishes.
            for _ in range(200):
                if not held:
                    break
                await asyncio.sleep(0.001)
            finished = [t for t in held if t.done()]
            writer.close()
            await fe.aclose()
            sess.close()
            return held, finished

        held, finished = asyncio.run(main())
        assert finished == [] and len(held) == 0


class TestOversizeLine:
    def test_oversize_line_is_answered_then_closed(self):
        """A request line past the stream limit gets one error reply and
        a clean close, not a silent EOF; the server keeps serving."""

        async def main():
            sess = ServeSession(Mesh2D(2, 2), "fixed-home", seed=0)
            fe = await ServeFrontend(sess, batch_interval=0.002).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)
            big = {"op": "stats", "pad": "x" * 70_000}
            writer.write((json.dumps(big) + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            eof = await reader.read()
            writer.close()
            # A fresh connection is served as usual.
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", fe.port)
            writer2.write(b'{"op": "stats"}\n')
            await writer2.drain()
            after = json.loads(await reader2.readline())
            writer2.close()
            await fe.aclose()
            sess.close()
            return reply, eof, after

        reply, eof, after = asyncio.run(main())
        assert reply["ok"] is False and "too long" in reply["error"]
        assert eof == b""
        assert after["ok"] is True
