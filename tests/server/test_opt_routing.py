"""Weighted scripts through the server: /solve optimization routing."""

from __future__ import annotations

import pytest

from repro.server.app import BackgroundServer
from repro.server.client import SolverClient

from .conftest import SAT_SCRIPT, fast_config

pytestmark = [pytest.mark.server, pytest.mark.opt]

WEIGHTED_SCRIPT = (
    "(declare-const x String)"
    "(assert (= (str.len x) 1))"
    '(assert-soft (= x "a") :weight 1)'
    '(assert-soft (= x "b") :weight 3)'
    "(check-sat)"
)
WEIGHTED_INFEASIBLE = (
    '(assert (= "a" "b"))'
    "(declare-const x String)"
    '(assert-soft (= x "a") :weight 5)'
    "(check-sat)"
)


def test_weighted_script_returns_opt_envelope(server):
    client = SolverClient(server.host, server.port)
    reply = client.solve(WEIGHTED_SCRIPT)
    assert reply.http_status == 200
    assert reply.ok
    assert reply.status == "sat"
    assert reply.model == {"x": "b"}
    envelope = reply.envelope
    assert envelope.opt_status == "optimal"
    assert envelope.objective == 1.0
    assert envelope.lower_bound == 1.0
    assert envelope.upper_bound == 1.0


def test_weighted_infeasible_projects_to_unsat(server):
    client = SolverClient(server.host, server.port)
    reply = client.solve(WEIGHTED_INFEASIBLE)
    assert reply.ok
    assert reply.status == "unsat"
    assert reply.envelope.opt_status == "infeasible"
    assert reply.envelope.objective is None


def test_plain_script_keeps_null_opt_fields(server):
    client = SolverClient(server.host, server.port)
    reply = client.solve(SAT_SCRIPT)
    assert reply.ok
    envelope = reply.envelope
    assert envelope.opt_status == ""
    assert envelope.objective is None
    assert envelope.lower_bound is None
    assert envelope.upper_bound is None


def test_opt_metrics_counted(server):
    client = SolverClient(server.host, server.port)
    client.solve(WEIGHTED_SCRIPT)
    metrics = client.metrics()
    counters = metrics.get("counters", {})
    assert counters.get("server.opt.optimal", 0) >= 1


def _cache_counters(backend):
    with BackgroundServer(fast_config(backend=backend, workers=1)) as handle:
        client = SolverClient(handle.host, handle.port)
        assert client.solve(SAT_SCRIPT).ok
        assert client.solve(WEIGHTED_SCRIPT).envelope.opt_status == "optimal"
        counters = client.metrics().get("counters", {})
    return {k: v for k, v in counters.items() if k.startswith("cache.")}


def test_backends_count_cache_traffic_alike():
    # Only the plain solve consults the compile cache; the weighted
    # request never does, on either backend.
    thread = _cache_counters("thread")
    assert thread == {"cache.misses": 1}
    assert _cache_counters("process") == thread
