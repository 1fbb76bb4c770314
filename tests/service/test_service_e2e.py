"""End-to-end service tests.

Two layers: in-process :class:`ServiceServer` tests exercise the request
core (admission control, deadlines, worker recycling, protocol errors)
without transport overhead, and one spawned ``repro serve --stdio``
daemon -- shared by the whole module -- proves the real subprocess
transport: SAFE/UNSAFE verdicts, cache-hit repeats, and verdict
equivalence with the in-process API on every example program.
"""

import asyncio
import glob
import json
import os
import socket
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer
from repro.verify import Verdict, VerifierConfig
from repro.verify.verifier import verify_one

EXAMPLES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "..", "..",
                 "examples", "programs", "*.c")
))

SAFE_PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""

UNSAFE_PROGRAM = """
int c = 0;
thread a { int t; t = c; c = t + 1; }
thread b { int t; t = c; c = t + 1; }
main { start a; start b; join a; join b; assert(c == 2); }
"""

#: Exponential-ish workload for deadline/shedding tests: several threads
#: of nondeterministic writes at a deep unwind.
SLOW_PROGRAM = """
int x = 0, y = 0, z = 0;
thread t1 { int i; i = 0; while (i < 6) { x = x + y; y = y + z; i = i + 1; } }
thread t2 { int i; i = 0; while (i < 6) { y = y + x; z = z + x; i = i + 1; } }
thread t3 { int i; i = 0; while (i < 6) { z = z + y; x = x + z; i = i + 1; } }
main {
    start t1; start t2; start t3; join t1; join t2; join t3;
    assert(x + y + z >= 0);
}
"""


def _request(server, req):
    return asyncio.run(server.handle_request(req))


@pytest.fixture()
def server():
    srv = ServiceServer(workers=1, max_queue=2)
    yield srv
    srv.close()


class TestRequestCore:
    def test_verify_and_cache_hit(self, server):
        req = {"id": 1, "op": "verify", "source": UNSAFE_PROGRAM}
        first = _request(server, req)
        assert first["ok"] and not first["cache_hit"]
        assert first["result"]["verdict"] == Verdict.UNSAFE
        second = _request(server, dict(req, id=2))
        assert second["ok"] and second["cache_hit"]
        assert second["result"]["verdict"] == Verdict.UNSAFE
        assert second["result"]["stats"]["cache_hit"] == 1
        assert first["result"]["stats"]["cache_hit"] == 0

    def test_search_knob_change_still_hits(self, server):
        base = {"id": 1, "op": "verify", "source": SAFE_PROGRAM,
                "config": {"preset": "zord"}}
        assert not _request(server, base)["cache_hit"]
        variant = dict(base, id=2, config={"preset": "zord-tarjan"})
        assert _request(server, variant)["cache_hit"]

    def test_formula_knob_change_misses(self, server):
        base = {"id": 1, "op": "verify", "source": SAFE_PROGRAM,
                "config": {"unwind": 4}}
        assert not _request(server, base)["cache_hit"]
        variant = dict(base, id=2, config={"unwind": 5})
        assert not _request(server, variant)["cache_hit"]

    def test_inconclusive_never_cached(self, server):
        """A budget UNKNOWN must not poison the cache for the identical
        request."""
        req = {"id": 1, "op": "verify", "source": SLOW_PROGRAM,
               "config": {"unwind": 6, "max_conflicts": 5}}
        first = _request(server, req)
        assert first["result"]["verdict"] == Verdict.UNKNOWN
        second = _request(server, dict(req, id=2))
        assert not second["cache_hit"]
        assert len(server.cache) == 0

    def test_deadline_rides_budget(self, server):
        req = {"id": 1, "op": "verify", "source": SLOW_PROGRAM,
               "config": {"unwind": 8}, "deadline_s": 0.05}
        response = _request(server, req)
        assert response["ok"]
        assert response["result"]["verdict"] == Verdict.UNKNOWN

    def test_shedding_under_load(self):
        """With the queue full, new jobs come back UNKNOWN/overloaded
        immediately instead of waiting."""
        server = ServiceServer(workers=1, max_queue=1)
        try:
            async def burst():
                slow = {"op": "verify", "source": SLOW_PROGRAM,
                        "config": {"unwind": 6}, "deadline_s": 20.0}
                fast = {"op": "verify", "source": SAFE_PROGRAM}
                tasks = [
                    asyncio.ensure_future(
                        server.handle_request(dict(slow, id=i))
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0.2)  # let them submit/shed
                late = await server.handle_request(dict(fast, id=99))
                done = await asyncio.gather(*tasks)
                return done + [late]

            responses = asyncio.run(burst())
            verdicts = [r["result"]["verdict"] for r in responses]
            shed = [
                r for r in responses
                if r["result"]["stats"].get("reason") == "overloaded"
            ]
            assert shed, verdicts
            assert server.jobs_shed == len(shed)
            for r in shed:
                assert r["result"]["verdict"] == Verdict.UNKNOWN
                assert "overloaded" in r["result"]["diagnostic"]
        finally:
            server.close()

    def test_pipelined_duplicates_coalesce(self):
        """Identical requests arriving while the first is still computing
        await its result (single-flight) instead of each burning a worker
        job, and report the shared answer as a cache hit."""
        server = ServiceServer(workers=2, max_queue=8)
        try:
            async def burst():
                req = {"op": "verify", "source": UNSAFE_PROGRAM}
                tasks = [
                    asyncio.ensure_future(
                        server.handle_request(dict(req, id=i))
                    )
                    for i in range(4)
                ]
                return await asyncio.gather(*tasks)

            responses = asyncio.run(burst())
            assert all(r["ok"] for r in responses)
            assert {r["result"]["verdict"] for r in responses} == {
                Verdict.UNSAFE
            }
            assert sum(r["cache_hit"] for r in responses) == 3
            assert server.jobs_coalesced == 3
            assert server.pool.jobs_done == 1
        finally:
            server.close()

    def test_inconclusive_leader_not_shared(self):
        """Coalesced duplicates of a job that ends UNKNOWN recompute
        rather than inheriting the inconclusive answer as a 'hit'."""
        server = ServiceServer(workers=2, max_queue=8)
        try:
            async def burst():
                req = {"op": "verify", "source": SLOW_PROGRAM,
                       "config": {"unwind": 6, "max_conflicts": 5}}
                tasks = [
                    asyncio.ensure_future(
                        server.handle_request(dict(req, id=i))
                    )
                    for i in range(2)
                ]
                return await asyncio.gather(*tasks)

            responses = asyncio.run(burst())
            for r in responses:
                assert r["result"]["verdict"] == Verdict.UNKNOWN
                assert not r["cache_hit"]
            assert server.jobs_coalesced == 0
        finally:
            server.close()

    def test_worker_recycling(self):
        server = ServiceServer(workers=1, recycle_after=1)
        try:
            for i, source in enumerate((SAFE_PROGRAM, UNSAFE_PROGRAM)):
                response = _request(
                    server, {"id": i, "op": "verify", "source": source}
                )
                assert response["ok"]
            assert server.pool.recycles >= 1
            assert response["result"]["stats"]["worker_recycles"] >= 1
        finally:
            server.close()

    def test_analyze_op(self, server):
        response = _request(
            server, {"id": 1, "op": "analyze", "source": UNSAFE_PROGRAM}
        )
        assert response["ok"]
        assert response["report"]["pairs_racy"] > 0
        assert response["report"]["races"]

    def test_ping_and_stats(self, server):
        assert _request(server, {"id": 1, "op": "ping"})["pong"]
        _request(server, {"id": 2, "op": "verify", "source": SAFE_PROGRAM})
        stats = _request(server, {"id": 3, "op": "stats"})["stats"]
        assert stats["jobs_total"] == 1
        assert stats["cache_misses"] == 1


class TestProtocolErrors:
    def _line(self, server, line):
        return json.loads(asyncio.run(server.handle_line(line)))

    def test_malformed_json(self, server):
        response = self._line(server, "{nope\n")
        assert not response["ok"] and "JSON" in response["error"]

    def test_unknown_op(self, server):
        response = self._line(server, '{"id": 1, "op": "explode"}\n')
        assert not response["ok"] and "unknown op" in response["error"]

    def test_parse_error_is_request_error(self, server):
        response = _request(
            server, {"id": 1, "op": "verify", "source": "int x = ;"}
        )
        assert not response["ok"] and "ParseError" in response["error"]
        assert response["id"] == 1

    def test_bad_config_is_request_error(self, server):
        response = _request(
            server,
            {"id": 1, "op": "verify", "source": SAFE_PROGRAM,
             "config": {"warp_speed": 9}},
        )
        assert not response["ok"] and "bad config" in response["error"]


class TestSyncClientPipelining:
    def test_threads_share_one_connection(self):
        """Two threads pipeline over one sync client while the server
        answers out of request order -- whichever thread reads the other's
        response must stash it, and the owner must find it in the stash
        instead of blocking in readline() forever."""
        ours, theirs = socket.socketpair()
        stream = ours.makefile("rw", encoding="utf-8", newline="\n")
        client = ServiceClient(stream, stream, sock=ours)
        peer = theirs.makefile("rw", encoding="utf-8", newline="\n")

        def fake_server():
            requests = [json.loads(peer.readline()) for _ in range(2)]
            # Both requests are in before any response goes out, answered
            # in reverse id order: at least one thread reads a response
            # that is not its own.
            for req in sorted(requests, key=lambda r: -r["id"]):
                peer.write(json.dumps({"id": req["id"], "ok": True}) + "\n")
            peer.flush()

        responses = {}

        def caller():
            response = client.request("ping")
            responses[response["id"]] = response

        server = threading.Thread(target=fake_server, daemon=True)
        callers = [threading.Thread(target=caller, daemon=True)
                   for _ in range(2)]
        server.start()
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in callers), (
                "pipelined sync request deadlocked"
            )
            assert set(responses) == {1, 2}
            assert all(r["ok"] for r in responses.values())
        finally:
            client.close()
            peer.close()
            theirs.close()


class TestStdioShutdown:
    def test_shutdown_op_exits_daemon(self):
        """The 'shutdown' op alone must terminate the daemon -- the
        stdin reader must not keep the process alive until the peer
        closes the pipe."""
        client = ServiceClient.spawn(workers=1)
        try:
            assert client.ping()["pong"]
            client.shutdown()
            assert client._proc.wait(timeout=30.0) == 0
        finally:
            client.close()


class TestRecyclingDaemon:
    def test_recycled_workers_do_not_drain_the_daemon(self):
        """Replacement workers are forked after the daemon installed its
        asyncio signal handlers.  Retiring one (here after every job)
        must neither be ignored as a no-op SIGTERM nor wake the daemon's
        loop as if the daemon itself had been signalled to drain."""
        client = ServiceClient.spawn(workers=1, recycle_after=1)
        try:
            for i in range(4):
                source = SAFE_PROGRAM.replace("x == 1", f"x == 1 || x == {i + 2}")
                assert client.verify(source).verdict == Verdict.SAFE
            health = client.health()
            assert not health["draining"]
            assert health["status"] == "ok"
            assert client.ready()
            # The last retirement may still be in progress.
            assert client.stats()["worker_recycles"] >= 3
        finally:
            client.close()


@pytest.fixture(scope="module")
def client():
    client = ServiceClient.spawn(workers=2)
    yield client
    client.close()


class TestStdioDaemon:
    def test_safe_unsafe_and_cache_hit(self, client):
        unsafe = client.verify(UNSAFE_PROGRAM)
        assert unsafe.verdict == Verdict.UNSAFE
        assert unsafe.stats["cache_hit"] == 0
        safe = client.verify(SAFE_PROGRAM)
        assert safe.verdict == Verdict.SAFE
        repeat = client.verify(UNSAFE_PROGRAM)
        assert repeat.verdict == unsafe.verdict
        assert repeat.stats["cache_hit"] == 1

    def test_ping_stats_shapes(self, client):
        assert client.ping()["protocol"] == 1
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["jobs_total"] >= 1

    def test_witness_survives_the_wire(self, client):
        result = client.verify(UNSAFE_PROGRAM)
        assert result.witness is not None
        assert result.witness.steps

    def test_service_error_on_garbage(self, client):
        with pytest.raises(ServiceError, match="ParseError"):
            client.verify("int x = ;")

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES]
    )
    def test_verdict_equivalence_with_direct_api(self, client, path):
        """Service mode and the in-process pipeline agree on every
        example program (same default config both sides)."""
        with open(path) as f:
            source = f.read()
        direct = verify_one(source, VerifierConfig())
        served = client.verify(source)
        assert served.verdict == direct.verdict
        assert direct.verdict in (Verdict.SAFE, Verdict.UNSAFE)
