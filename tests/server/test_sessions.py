"""Fault-path tests for the sticky ``/session/*`` endpoints.

Mirrors ``test_lifecycle.py`` for the session tier: every failure mode a
client can hit — over-pop, unknown/expired/duplicate ids, the session
limit, deadline-exceeded checks, drain-window ops — must come back as a
**typed** error envelope, and the ``server.requests`` accounting
identity must hold across the whole mix. Expiry is additionally pinned
solve-safe: a sweep can never reap a session whose check is running on
the executor.

The router tier rides along: sessions are server-side state, so the
session id must pin its shard (no fail-over — an op re-routed elsewhere
would silently run against a fresh empty session).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.server.app import BackgroundServer
from repro.server.client import SolverClient
from repro.server.router import (
    BackgroundRouter,
    RouterConfig,
    ShardSpec,
    session_shard_key,
    shard_index,
)

from tests.server.conftest import SlowSamplerFactory, fast_config

pytestmark = pytest.mark.server

LEN2 = '(declare-const x String)(assert (= (str.len x) 2))'


def open_session(client, session_id=None) -> str:
    reply = client.session_open(session_id=session_id)
    assert reply.ok, reply
    return reply.envelope.request_id


class TestHappyPath:
    def test_full_session_conversation(self, server):
        with SolverClient(server.host, server.port) as client:
            sid = open_session(client)
            assert client.session_assert(sid, LEN2).ok
            assert client.session_check(sid).status == "sat"
            assert client.session_push(sid).ok
            assert client.session_assert(
                sid, '(assert (= x "aa"))(assert (= x "bb"))'
            ).ok
            assert client.session_check(sid).status != "sat"
            assert client.session_pop(sid).ok
            # Re-checking the base frame is a memo hit server-side.
            recheck = client.session_check(sid)
            assert recheck.status == "sat"
            assert recheck.cache_hit
            closed = client.session_close(sid)
            assert closed.ok
            assert "depth=0" in closed.envelope.reason


class TestTypedRejections:
    def test_pop_past_base_frame_is_bad_request(self, server):
        with SolverClient(server.host, server.port) as client:
            sid = open_session(client)
            assert client.session_push(sid).ok
            reply = client.session_pop(sid, levels=2)
            assert reply.error_type == "bad_request"
            assert "assertion-stack" in reply.error.message
            # The failed pop consumed nothing: one pop still works.
            assert client.session_pop(sid).ok

    def test_unknown_session_is_bad_request(self, server):
        with SolverClient(server.host, server.port) as client:
            reply = client.session_check("never-opened")
            assert reply.error_type == "bad_request"
            assert "unknown session" in reply.error.message

    def test_missing_session_id_is_bad_request(self, server):
        with SolverClient(server.host, server.port) as client:
            reply = client.session_check("")
            assert reply.error_type == "bad_request"

    def test_duplicate_open_id_is_bad_request(self, server):
        with SolverClient(server.host, server.port) as client:
            open_session(client, session_id="dup")
            reply = client.session_open(session_id="dup")
            assert reply.error_type == "bad_request"
            assert "already open" in reply.error.message

    def test_closed_session_reports_closed_not_unknown(self, server):
        with SolverClient(server.host, server.port) as client:
            sid = open_session(client)
            client.session_close(sid)
            reply = client.session_push(sid)
            assert reply.error_type == "bad_request"
            assert "closed" in reply.error.message

    def test_session_limit_is_overloaded(self):
        with BackgroundServer(fast_config(max_sessions=1)) as server:
            with SolverClient(server.host, server.port) as client:
                open_session(client, session_id="only")
                reply = client.session_open(session_id="second")
                assert reply.error_type == "overloaded"
                assert "session limit" in reply.error.message
                # Closing frees the slot.
                client.session_close("only")
                assert client.session_open(session_id="second").ok

    def test_bad_assert_fragment_is_parse_error(self, server):
        with SolverClient(server.host, server.port) as client:
            sid = open_session(client)
            reply = client.session_assert(sid, '(assert (= x "unterminated')
            assert reply.error_type == "parse"


class TestExpiry:
    def test_idle_session_expires_with_precise_error(self):
        config = fast_config(session_idle_timeout=0.2)
        with BackgroundServer(config) as server:
            with SolverClient(server.host, server.port) as client:
                sid = open_session(client)
                time.sleep(0.45)
                reply = client.session_push(sid)  # get() sweeps first
                assert reply.error_type == "bad_request"
                assert "expired" in reply.error.message
                metrics = client.metrics()
                assert metrics["sessions"]["expired"] == 1
                assert metrics["sessions"]["active"] == 0
                assert metrics["counters"]["server.sessions.expired"] == 1

    def test_sweep_never_reaps_a_session_mid_solve(self):
        # The check outlives the idle timeout; concurrent traffic keeps
        # sweeping the whole time — the locked session must survive.
        config = fast_config(
            session_idle_timeout=0.3,
            sampler_factory=SlowSamplerFactory(1.2),
        )
        with BackgroundServer(config) as server:
            with SolverClient(server.host, server.port) as client:
                sid = open_session(client)
                assert client.session_assert(sid, LEN2).ok
                outcome = {}

                def check():
                    with SolverClient(server.host, server.port, timeout=30.0) as c:
                        outcome["reply"] = c.session_check(sid)

                thread = threading.Thread(target=check)
                thread.start()
                time.sleep(0.8)  # idle_for > timeout, but the lock is held
                # Any manager touch-point sweeps; open() is one.
                open_session(client, session_id="sweeper")
                assert client.metrics()["sessions"]["expired"] == 0
                thread.join(timeout=30.0)
                assert outcome["reply"].status == "sat"
                # The finished check touched the clock: still usable.
                assert client.session_push(sid).ok


class TestDeadlines:
    def test_check_deadline_exceeded_mid_solve_is_timeout(self):
        config = fast_config(sampler_factory=SlowSamplerFactory(1.5))
        with BackgroundServer(config) as server:
            with SolverClient(server.host, server.port, timeout=30.0) as client:
                sid = open_session(client)
                assert client.session_assert(sid, LEN2).ok
                reply = client.session_check(sid, deadline_ms=300.0)
                assert reply.error_type == "timeout"
                assert reply.envelope.status == "timeout"
                counters = client.metrics()["counters"]
                assert counters["server.timeout"] == 1
                assert counters["server.timeout.solving"] == 1


class TestTiming:
    def test_lock_wait_is_queue_time_not_solve_time(self, server):
        with SolverClient(server.host, server.port, timeout=30.0) as client:
            sid = open_session(client)
            assert client.session_assert(sid, LEN2).ok

            async def hold_lock():
                # A mutation holding the lock for 0.5 s.
                managed = server.server.sessions.get(sid)
                await managed.lock.acquire()
                asyncio.get_running_loop().call_later(0.5, managed.lock.release)

            asyncio.run_coroutine_threadsafe(hold_lock(), server._loop).result(5.0)
            started = time.monotonic()
            reply = client.session_check(sid)
            roundtrip_ms = (time.monotonic() - started) * 1000.0
        assert reply.status == "sat"
        assert reply.envelope.queue_ms >= 400.0
        assert reply.envelope.queue_ms + reply.envelope.solve_ms <= roundtrip_ms + 5.0


class TestDrain:
    def test_close_allowed_but_mutations_rejected_during_drain(self):
        config = fast_config(
            sampler_factory=SlowSamplerFactory(1.0), drain_timeout=30.0
        )
        server = BackgroundServer(config).start()
        stopper = None
        try:
            client = SolverClient(server.host, server.port, timeout=30.0)
            client.healthz()  # establish the keep-alive connection now:
            # the listener closes at drain start, so every drain-window
            # request below must ride this socket.
            sid = open_session(client, session_id="drainee")
            assert client.session_assert(sid, LEN2).ok

            checked = {}

            def slow_check():
                with SolverClient(server.host, server.port, timeout=30.0) as c:
                    checked["reply"] = c.session_check(sid)

            busy = threading.Thread(target=slow_check)
            busy.start()
            time.sleep(0.3)  # the check is on the executor; drain now
            stopper = threading.Thread(target=lambda: server.stop(timeout=30.0))
            stopper.start()
            time.sleep(0.3)

            assert client.session_open(session_id="latecomer").error_type == (
                "draining"
            )
            assert client.session_push(sid).error_type == "draining"
            closed = client.session_close(sid)
            assert closed.ok, closed
            busy.join(timeout=30.0)
            assert checked["reply"].status == "sat"
            client.close()
        finally:
            if stopper is not None:
                stopper.join(timeout=30.0)
            server.stop()


class TestAccounting:
    def test_session_traffic_keeps_the_accounting_identity(self, server):
        with SolverClient(server.host, server.port) as client:
            sid = open_session(client)                 # completed
            client.session_assert(sid, LEN2)           # completed
            client.session_check(sid)                  # completed
            client.session_pop(sid)                    # rejected.bad_request
            client.session_open(session_id=sid)        # rejected.bad_request
            client.session_check("ghost")              # rejected.bad_request
            client.session_assert(sid, "(oops")        # rejected.parse
            client.session_close(sid)                  # completed
            counters = client.metrics()["counters"]
            rejected = sum(
                v for k, v in counters.items()
                if k.startswith("server.rejected.")
            )
            assert counters["server.requests"] == 8
            assert counters["server.requests"] == (
                counters.get("server.completed", 0)
                + rejected
                + counters.get("server.timeout", 0)
                + counters.get("server.cancelled", 0)
                + counters.get("server.internal", 0)
            )

    def test_sessions_snapshot_counts_lifecycle(self, server):
        with SolverClient(server.host, server.port) as client:
            first = open_session(client)
            open_session(client)
            client.session_close(first)
            snapshot = client.metrics()["sessions"]
            assert snapshot["opened"] == 2
            assert snapshot["closed"] == 1
            assert snapshot["active"] == 1
            assert snapshot["busy"] == 0


class TestRouterStickiness:
    def test_session_pins_its_shard_and_never_fails_over(self):
        servers = [BackgroundServer(fast_config()).start() for _ in range(2)]
        router = BackgroundRouter(
            RouterConfig(
                port=0,
                shards=[ShardSpec("127.0.0.1", s.port) for s in servers],
                health_interval=0.15,
            )
        ).start()
        try:
            # An id that hashes to shard 0 keeps the test deterministic.
            sid = next(
                f"pin{i}" for i in range(512)
                if shard_index(session_shard_key(f"pin{i}"), 2) == 0
            )
            with SolverClient(router.host, router.port, timeout=30.0) as client:
                assert client.session_open(session_id=sid).ok
                assert client.session_assert(sid, LEN2).ok
                assert client.session_check(sid).status == "sat"

                # Only the owning shard holds the session state.
                actives = []
                for server in servers:
                    with SolverClient(server.host, server.port) as direct:
                        actives.append(direct.metrics()["sessions"]["active"])
                assert actives == [1, 0]

                # Owning shard down: typed upstream error, no fail-over
                # (shard 1 must never grow a ghost session).
                servers[0].stop()
                reply = client.session_check(sid)
                assert reply.error_type == "upstream"
                with SolverClient(servers[1].host, servers[1].port) as direct:
                    assert direct.metrics()["sessions"]["active"] == 0
        finally:
            router.stop()
            for server in servers:
                server.stop()

    def test_bad_session_fields_are_rejected_at_the_router(self):
        # Every /session/* body is validated at the router: a bad field is
        # a router bad_request and never reaches (or is counted by) a shard.
        server = BackgroundServer(fast_config()).start()
        router = BackgroundRouter(
            RouterConfig(port=0, shards=[ShardSpec("127.0.0.1", server.port)])
        ).start()
        bodies = [
            {"session": "s1", "levels": -1},
            {"session": "s1", "levels": True},
            {"session": "s1", "deadline_ms": 0},
            {"session": "s1", "id": 5},
            {"session": "s1", "script": 7},
        ]
        try:
            with SolverClient(router.host, router.port, timeout=30.0) as client:
                for body in bodies:
                    reply = client._session_request("push", body)
                    assert reply.error_type == "bad_request", body
                counters = client.metrics()["router"]["counters"]
                # An id-less open gets its id injected at the router and
                # that id routes follow-ups to the same session.
                assert client.session_push(open_session(client)).ok
            assert counters["router.rejected.bad_request"] == len(bodies)
            assert "router.forwarded" not in counters
            with SolverClient(server.host, server.port) as direct:
                shard = direct.metrics()["counters"]
            assert "server.rejected.bad_request" not in shard
        finally:
            router.stop()
            server.stop()

    def test_session_shard_key_is_stable(self):
        import hashlib

        assert session_shard_key("abc") == hashlib.sha256(b"abc").hexdigest()
        assert session_shard_key("abc") == session_shard_key("abc")
