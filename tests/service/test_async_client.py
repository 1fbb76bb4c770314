"""The async client is a facade over the sync one: concurrent awaits on
one client pipeline over its single connection, each matched to its own
response by id."""

import asyncio
import json
import os
import socket

import pytest

from repro.service.client import AsyncServiceClient
from tests.service.test_resilience import FakeServer, _ok

pytestmark = pytest.mark.timeout(60)


class PipelinedFakeServer(FakeServer):
    """A FakeServer whose sessions read and write through separate
    streams, so requests pipelined into one chunk are all answered."""

    def _session(self, conn, conn_no):
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        with conn:
            for line in reader:
                req = json.loads(line)
                self.requests.append(req)
                writer.write(json.dumps(self._handler(conn_no, req)) + "\n")
                writer.flush()


def test_concurrent_pings_resolve_with_matched_ids():
    server = PipelinedFakeServer(lambda conn_no, req: _ok(req, echo=req["id"]))

    async def go():
        async with await AsyncServiceClient.connect(server.address) as client:
            return await asyncio.gather(*(client.ping() for _ in range(16)))

    try:
        responses = asyncio.run(go())
    finally:
        server.close()
    assert len(responses) == 16
    assert all(r["echo"] == r["id"] for r in responses)
    assert server.connections == 1
    assert sorted(r["id"] for r in responses) == list(range(1, 17))
    assert server.connections == 1


class HoldingFakeServer(PipelinedFakeServer):
    """Answers nothing until ``hold`` requests are on the wire at once,
    then answers them all in reverse order.  If they never are, the
    connection is dropped and every reconnect refused, so the client's
    retries fail fast instead of waiting again."""

    def __init__(self, hold):
        self.hold = hold
        super().__init__(None)

    def _session(self, conn, conn_no):
        if conn_no > 1:
            conn.close()
            return
        conn.settimeout(10.0)
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        with conn:
            held = []
            try:
                while len(held) < self.hold:
                    held.append(json.loads(reader.readline()))
            except (socket.timeout, ValueError):
                return  # fewer than ``hold`` in flight: the client waits
            self.requests.extend(held)
            for req in reversed(held):
                writer.write(json.dumps(_ok(req, echo=req["id"])) + "\n")
            writer.flush()


def test_more_slow_requests_in_flight_than_the_default_executor():
    """Every await is on the wire at once, even beyond the size of the
    loop's default executor, and the default executor stays free."""
    default_executor_size = min(32, (os.cpu_count() or 1) + 4)
    n = default_executor_size + 8
    server = HoldingFakeServer(hold=n)

    async def go():
        async with await AsyncServiceClient.connect(
            server.address, request_timeout_s=30.0
        ) as client:
            pings = asyncio.gather(*(client.ping() for _ in range(n)))
            # A default-executor user is not starved by the held pings.
            await asyncio.wait_for(asyncio.to_thread(lambda: None), 5.0)
            return await pings

    try:
        responses = asyncio.run(go())
    finally:
        server.close()
    assert len(server.requests) == n
    assert sorted(r["id"] for r in responses) == list(range(1, n + 1))
    assert all(r["echo"] == r["id"] for r in responses)
    assert server.connections == 1
