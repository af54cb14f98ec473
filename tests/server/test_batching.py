"""Server micro-batching: config gating, fused solves, counters."""

import threading

import pytest

from repro.server.app import BackgroundServer, ServerConfig
from repro.server.client import SolverClient

from .conftest import FAST_SOLVER, SAT_SCRIPT, UNSAT_SCRIPT


class TestConfigValidation:
    def test_batching_requires_thread_backend(self):
        with pytest.raises(ValueError, match="thread"):
            ServerConfig(backend="process", batch_window_ms=5.0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="batch_window_ms"):
            ServerConfig(batch_window_ms=-1.0)

    def test_batch_max_validated(self):
        with pytest.raises(ValueError, match="batch_max"):
            ServerConfig(batch_window_ms=5.0, batch_max=0)

    def test_zero_window_means_disabled(self):
        config = ServerConfig(batch_window_ms=0.0)
        assert config.batch_window_ms == 0.0


class TestMicroBatching:
    def test_concurrent_requests_batched(self):
        config = ServerConfig(
            port=0,
            workers=8,
            queue_limit=16,
            batch_window_ms=60.0,
            batch_max=8,
            **FAST_SOLVER,
        )
        scripts = [
            f'(declare-const x String)(assert (= x "b{i}"))(check-sat)'
            for i in range(6)
        ]
        replies = [None] * len(scripts)
        with BackgroundServer(config) as server:
            def hit(i):
                with SolverClient(server.host, server.port) as client:
                    replies[i] = client.solve(scripts[i])

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(len(scripts))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with SolverClient(server.host, server.port) as client:
                metrics = client.metrics()

        for i, reply in enumerate(replies):
            assert reply.status == "sat"
            assert reply.model == {"x": f"b{i}"}
        counters = metrics["counters"]
        assert counters["server.batches"] >= 1
        assert counters["server.batched_solves"] == len(scripts)
        # Fewer fused kernel dispatches than requests: batching engaged.
        assert counters["server.batches"] < len(scripts)

    def test_unsat_and_sat_share_a_batch(self):
        config = ServerConfig(
            port=0, workers=4, batch_window_ms=40.0, batch_max=4, **FAST_SOLVER
        )
        replies = {}
        with BackgroundServer(config) as server:
            def hit(name, script):
                with SolverClient(server.host, server.port) as client:
                    replies[name] = client.solve(script)

            threads = [
                threading.Thread(target=hit, args=("sat", SAT_SCRIPT)),
                threading.Thread(target=hit, args=("unsat", UNSAT_SCRIPT)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert replies["sat"].status == "sat"
        assert replies["unsat"].status == "unsat"

    def test_single_request_still_served(self):
        # A lone request pays at most one window of extra latency and is
        # solved as a batch of one.
        config = ServerConfig(
            port=0, workers=2, batch_window_ms=10.0, batch_max=4, **FAST_SOLVER
        )
        with BackgroundServer(config) as server:
            with SolverClient(server.host, server.port) as client:
                reply = client.solve(SAT_SCRIPT)
                metrics = client.metrics()
        assert reply.status == "sat"
        assert metrics["counters"]["server.batched_solves"] == 1

    def test_batching_disabled_by_default(self):
        config = ServerConfig(port=0, workers=2, **FAST_SOLVER)
        with BackgroundServer(config) as server:
            with SolverClient(server.host, server.port) as client:
                reply = client.solve(SAT_SCRIPT)
                metrics = client.metrics()
        assert reply.status == "sat"
        assert "server.batches" not in metrics["counters"]

    def test_shutdown_with_batching_enabled_is_clean(self):
        config = ServerConfig(
            port=0, workers=2, batch_window_ms=25.0, batch_max=4, **FAST_SOLVER
        )
        server = BackgroundServer(config).start()
        try:
            with SolverClient(server.host, server.port) as client:
                assert client.solve(SAT_SCRIPT).status == "sat"
        finally:
            server.stop()
