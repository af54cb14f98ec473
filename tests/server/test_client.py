"""Client-library tests: blocking + async flavours against a live server."""

from __future__ import annotations

import asyncio

import pytest

from repro.server.client import (
    AsyncSolverClient,
    ServerConnectionError,
    SolveReply,
    SolverClient,
)

from tests.server.conftest import (
    PARSE_ERROR_SCRIPT,
    SAT_SCRIPT,
    UNSAT_SCRIPT,
    answer_once,
)

pytestmark = pytest.mark.server


class TestBlockingClient:
    def test_keep_alive_reuse(self, server):
        with SolverClient(server.host, server.port) as client:
            first = client.solve(SAT_SCRIPT)
            second = client.solve(SAT_SCRIPT)
            health = client.healthz()
        assert first.ok and second.ok
        assert health["http_status"] == 200

    def test_connection_error_is_typed(self):
        client = SolverClient("127.0.0.1", 1)  # nothing listens on port 1
        with pytest.raises(ServerConnectionError):
            client.solve(SAT_SCRIPT)

    def test_protocol_failures_are_data_not_exceptions(self, server):
        with SolverClient(server.host, server.port) as client:
            reply = client.solve(PARSE_ERROR_SCRIPT)
        assert isinstance(reply, SolveReply)
        assert not reply.ok and reply.error_type == "parse"

    def test_repr_forms(self, server):
        with SolverClient(server.host, server.port) as client:
            good = client.solve(SAT_SCRIPT)
            bad = client.solve(PARSE_ERROR_SCRIPT)
        assert "sat" in repr(good)
        assert "parse" in repr(bad)


class TestAsyncClient:
    def test_single_solve(self, server):
        client = AsyncSolverClient(server.host, server.port, timeout=30.0)
        reply = asyncio.run(client.solve(SAT_SCRIPT))
        assert reply.ok and reply.status == "sat"

    def test_concurrent_burst_all_answered(self, server):
        client = AsyncSolverClient(server.host, server.port, timeout=60.0)
        scripts = [SAT_SCRIPT, UNSAT_SCRIPT, PARSE_ERROR_SCRIPT] * 3

        async def burst():
            return await asyncio.gather(*(client.solve(s) for s in scripts))

        replies = asyncio.run(burst())
        assert len(replies) == 9
        statuses = [r.status if r.ok else r.error_type for r in replies]
        assert statuses.count("sat") == 3
        assert statuses.count("unsat") == 3
        assert statuses.count("parse") == 3

    def test_healthz_and_metrics(self, server):
        client = AsyncSolverClient(server.host, server.port, timeout=30.0)

        async def probe():
            return await client.healthz(), await client.metrics()

        health, metrics = asyncio.run(probe())
        assert health["status"] == "ok"
        assert "counters" in metrics and "server" in metrics

    def test_connection_error_is_typed(self):
        client = AsyncSolverClient("127.0.0.1", 1, timeout=2.0)
        with pytest.raises(ServerConnectionError):
            asyncio.run(client.solve(SAT_SCRIPT))

    @pytest.mark.parametrize(
        "response",
        [
            # cut off mid-body: 9 of the 100 declared bytes, then close
            b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\":tru",
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
        ],
        ids=["truncated-body", "non-numeric-status"],
    )
    def test_broken_response_is_typed(self, response):
        def solve(port):
            return AsyncSolverClient("127.0.0.1", port, timeout=5.0).solve(SAT_SCRIPT)

        with pytest.raises(ServerConnectionError):
            asyncio.run(answer_once(response, solve))
