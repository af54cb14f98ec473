"""The HTTP surface both services share through :class:`HttpService`.

Every test in :class:`TestSharedSurface` runs twice: against a
:class:`BackgroundServer` and against a :class:`BackgroundRouter` over one
shard. Routes, framing rejections, keep-alive, the idle timeout and the
draining ``/healthz`` are one implementation, so they must answer alike.
The router-only tests pin the router's own accounting: a typed
``cancelled`` when the drain timeout runs out mid-proxy, the identity
``router.requests == forwarded + upstream_errors + Σ rejected.* +
cancelled`` over a mixed request stream, and a counted ``upstream``
error when a shard closes mid-body.
"""

from __future__ import annotations

import functools
import http.client
import json
import socket
import socketserver
import threading
import time
from typing import Callable, Dict, List, Optional

import pytest

from repro.server.app import BackgroundServer, ServerConfig
from repro.server.client import SolverClient
from repro.server.router import BackgroundRouter, RouterConfig, ShardSpec

from tests.server.conftest import SAT_SCRIPT, SlowSamplerFactory, fast_config

pytestmark = pytest.mark.server


class Service:
    """A running service under test, plus whatever it routes to."""

    def __init__(self, handle, prefix: str, stops: List[Callable[[], None]]) -> None:
        self.handle = handle
        self.prefix = prefix
        self._stops = stops

    @property
    def host(self) -> str:
        return self.handle.host

    @property
    def port(self) -> int:
        return self.handle.port

    def counter(self, name: str) -> float:
        return self.handle.metrics.counter(f"{self.prefix}.{name}").value

    def stop(self) -> None:
        for stop in self._stops:
            stop()


def start_service(
    kind: str, sampler_delay: Optional[float] = None, **listener
) -> Service:
    """A server, or a router over one shard, with *listener* fields set."""
    solver = {}
    if sampler_delay is not None:
        solver = dict(workers=1, sampler_factory=SlowSamplerFactory(sampler_delay))
    if kind == "server":
        server = BackgroundServer(fast_config(**solver, **listener)).start()
        return Service(server, "server", [server.stop])
    shard = BackgroundServer(fast_config(**solver, drain_timeout=0.1)).start()
    router = BackgroundRouter(
        RouterConfig(
            port=0,
            shards=[ShardSpec("127.0.0.1", shard.port)],
            health_interval=0.15,
            **listener,
        )
    ).start()
    return Service(router, "router", [router.stop, shard.stop])


@pytest.fixture(params=["server", "router"])
def make_service(request):
    started: List[Service] = []

    def make(**kwargs) -> Service:
        service = start_service(request.param, **kwargs)
        started.append(service)
        return service

    yield make
    for service in started:
        service.stop()


def raw_exchange(service: Service, payload: bytes) -> bytes:
    """Send raw bytes, read until the service closes the connection."""
    with socket.create_connection((service.host, service.port), timeout=10.0) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def parse_raw(response: bytes):
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


def request(conn: http.client.HTTPConnection, method: str, path: str, body=None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestSharedSurface:
    def test_unknown_path_is_404(self, make_service):
        service = make_service()
        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        status, payload = request(conn, "GET", "/nope")
        conn.close()
        assert status == 404
        assert payload["error"]["type"] == "not_found"

    def test_get_on_solve_is_405(self, make_service):
        service = make_service()
        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        status, payload = request(conn, "GET", "/solve")
        conn.close()
        assert status == 405
        assert payload["error"]["type"] == "bad_request"

    def test_keep_alive_reuses_the_connection(self, make_service):
        service = make_service()
        conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
        try:
            assert request(conn, "GET", "/healthz")[0] == 200
            first = conn.sock
            status, payload = request(conn, "POST", "/solve", SAT_SCRIPT)
            assert status == 200 and payload["status"] == "sat"
            assert request(conn, "GET", "/healthz")[0] == 200
            assert conn.sock is first
        finally:
            conn.close()

    def test_idle_connection_closed_after_idle_timeout(self, make_service):
        service = make_service(idle_timeout=0.3)
        with socket.create_connection((service.host, service.port), timeout=5.0) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""  # clean EOF, not a recv timeout
        assert time.monotonic() - started < 3.0

    def test_malformed_framing_is_a_counted_400(self, make_service):
        service = make_service()
        status, payload = parse_raw(raw_exchange(service, b"GARBAGE\r\n\r\n"))
        assert status == 400
        assert payload["error"]["type"] == "bad_request"
        assert service.counter("requests") == 1
        assert service.counter("rejected.bad_request") == 1

    def test_oversized_request_is_a_counted_413(self, make_service):
        service = make_service(max_request_bytes=4096)
        body = json.dumps({"script": SAT_SCRIPT + " " * 8192}).encode()
        head = (
            "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        status, payload = parse_raw(raw_exchange(service, head + body))
        assert status == 413
        assert payload["error"]["type"] == "too_large"
        assert service.counter("requests") == 1
        assert service.counter("rejected.too_large") == 1

    def test_healthz_goes_503_while_draining(self, make_service):
        service = make_service(sampler_delay=1.5, drain_timeout=10.0)
        # An open keep-alive connection outlives the listener's close.
        probe = http.client.HTTPConnection(service.host, service.port, timeout=30)
        try:
            assert request(probe, "GET", "/healthz")[0] == 200
            replies: Dict[str, object] = {}

            def solve() -> None:
                with SolverClient(service.host, service.port, timeout=30.0) as client:
                    replies["solve"] = client.solve(SAT_SCRIPT)

            solver = threading.Thread(target=solve)
            solver.start()
            time.sleep(0.4)  # the slow solve is in flight
            stopper = threading.Thread(target=service.handle.stop)
            stopper.start()
            time.sleep(0.3)  # draining: waiting on the in-flight solve
            status, payload = request(probe, "GET", "/healthz")
            stopper.join(timeout=30.0)
            solver.join(timeout=30.0)
        finally:
            probe.close()
        assert status == 503
        assert payload["state"] == "draining"
        assert replies["solve"].ok


class TestRouterParity:
    def test_drain_timeout_mid_proxy_answers_typed_cancelled(self):
        service = start_service("router", sampler_delay=3.0, drain_timeout=0.3)
        replies: Dict[str, object] = {}
        try:

            def solve() -> None:
                with SolverClient(service.host, service.port, timeout=30.0) as client:
                    replies["solve"] = client.solve(SAT_SCRIPT)

            solver = threading.Thread(target=solve)
            solver.start()
            time.sleep(0.4)  # in flight on the slow shard
            started = time.monotonic()
            service.handle.stop()
            elapsed = time.monotonic() - started
            solver.join(timeout=30.0)
        finally:
            service.stop()
        assert elapsed < 3.0
        reply = replies["solve"]
        assert reply.error_type == "cancelled"
        assert reply.http_status == 503
        assert service.counter("cancelled") == 1

    def test_accounting_identity_over_mixed_requests(self):
        service = start_service("router", max_request_bytes=4096)
        try:
            with SolverClient(service.host, service.port, timeout=30.0) as client:
                assert client.solve(SAT_SCRIPT).ok
                conn = http.client.HTTPConnection(service.host, service.port, timeout=30)
                headers = {"Content-Type": "application/json"}
                conn.request("POST", "/solve", body="{not json", headers=headers)
                assert conn.getresponse().status == 400
                conn.close()
            raw_exchange(service, b"GARBAGE\r\n\r\n")
            raw_exchange(
                service,
                b"POST /solve HTTP/1.1\r\nContent-Length: 99999\r\n\r\n" + b"x" * 100,
            )
            counters = service.handle.metrics.export()["counters"]
        finally:
            service.stop()
        rejected = sum(
            value for name, value in counters.items()
            if name.startswith("router.rejected.")
        )
        assert counters["router.requests"] == 4
        assert counters["router.requests"] == (
            counters.get("router.forwarded", 0)
            + counters.get("router.upstream_errors", 0)
            + rejected
            + counters.get("router.cancelled", 0)
        )
        assert counters["router.rejected.bad_request"] == 2
        assert counters["router.rejected.too_large"] == 1


class _TruncatingShard(socketserver.BaseRequestHandler):
    """A shard that answers with a body shorter than its Content-Length."""

    def handle(self) -> None:
        self.request.recv(65536)
        self.request.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")


def test_router_counts_a_shard_that_dies_mid_body():
    shard = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _TruncatingShard)
    threading.Thread(target=shard.serve_forever, daemon=True).start()
    router = BackgroundRouter(
        RouterConfig(port=0, shards=[ShardSpec("127.0.0.1", shard.server_address[1])])
    ).start()
    try:
        with SolverClient(router.host, router.port, timeout=30.0) as client:
            reply = client.solve(SAT_SCRIPT)
        counters = router.metrics.export()["counters"]
    finally:
        router.stop()
        shard.shutdown()
        shard.server_close()
    assert reply.error_type == "upstream"
    assert "failed mid-request" in reply.error.message
    assert counters["router.requests"] == counters["router.upstream_errors"] == 1


@pytest.mark.parametrize(
    "config",
    [ServerConfig, functools.partial(RouterConfig, shards=[ShardSpec("127.0.0.1", 1)])],
    ids=["ServerConfig", "RouterConfig"],
)
@pytest.mark.parametrize(
    "bad",
    [
        {"drain_timeout": -1.0},
        {"max_request_bytes": 0},
        {"idle_timeout": 0.0},
        {"idle_timeout": -1.0},
    ],
    ids=["drain_timeout<0", "max_request_bytes<1", "idle_timeout=0", "idle_timeout<0"],
)
def test_configs_validate_listener_fields_alike(config, bad):
    with pytest.raises(ValueError):
        config(**bad)
