"""Regression tests for the batch solve service.

Covers the acceptance criterion: a warm cache over a batch of 20 repeated
constraints yields a hit per repeat and bit-identical models to the
sequential path at fixed seed, with per-stage timings and the cache hit
rate in the metrics export.
"""

from __future__ import annotations

import json

import pytest

from repro.service import CompileCache, MetricsRegistry, RetryPolicy
from repro.service.batch import BatchItemResult, BatchReport, BatchSolver
from repro.smt import ast
from repro.smt.solver import QuantumSMTSolver

pytestmark = pytest.mark.service

SEED = 7
FAST = {"num_reads": 32, "sampler_params": {"num_sweeps": 300}}

UNIQUE_SCRIPTS = [
    f'(declare-const x String)(assert (= x "{word}"))(check-sat)'
    for word in ("hi", "ok", "go", "no", "up")
]


def make_batch(**overrides) -> BatchSolver:
    kwargs = dict(seed=SEED, executor="serial", **FAST)
    kwargs.update(overrides)
    return BatchSolver(**kwargs)


def sequential_reference(script: str):
    solver = QuantumSMTSolver.from_script_text(script, seed=SEED, **FAST)
    return solver.check_sat()


class TestBatchBasics:
    def test_statuses_in_submission_order(self):
        report = make_batch().solve_batch(UNIQUE_SCRIPTS)
        assert isinstance(report, BatchReport)
        assert [item.index for item in report] == list(range(len(UNIQUE_SCRIPTS)))
        assert report.statuses == ["sat"] * len(UNIQUE_SCRIPTS)
        assert report.models == [{"x": w} for w in ("hi", "ok", "go", "no", "up")]

    def test_accepts_ast_conjunctions_and_scripts(self):
        conjunction = [ast.Eq(ast.StrVar("x"), ast.StrLit("ab"))]
        report = make_batch().solve_batch([UNIQUE_SCRIPTS[0], conjunction])
        assert report.statuses == ["sat", "sat"]
        assert report.models[1] == {"x": "ab"}

    def test_rejects_bad_item_type(self):
        with pytest.raises(TypeError):
            make_batch().solve_batch([42])

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            BatchSolver(num_workers=0)
        with pytest.raises(ValueError):
            BatchSolver(executor="process")
        with pytest.raises(TypeError):
            import numpy as np

            BatchSolver(seed=np.random.default_rng(0))

    def test_empty_batch(self):
        report = make_batch().solve_batch([])
        assert len(report) == 0 and report.ok

    def test_unsat_and_out_of_fragment_items_do_not_abort_batch(self):
        ground_false = '(assert (= "a" "b"))(check-sat)'
        multivar = (
            "(declare-const a String)(declare-const b String)"
            "(assert (= a b))(check-sat)"
        )
        report = make_batch().solve_batch(
            [UNIQUE_SCRIPTS[0], ground_false, multivar]
        )
        assert report.statuses == ["sat", "unsat", "unknown"]
        assert report[2].error_type == "CompilationError"
        assert "several string variables" in report[2].error


class TestWarmCacheAcceptance:
    """The ISSUE acceptance scenario: 20 repeated constraints, warm cache."""

    def test_twenty_repeats_hit_cache_and_match_sequential(self):
        scripts = UNIQUE_SCRIPTS * 4  # 20 items, 5 unique
        batch = make_batch(cache=CompileCache(maxsize=64))
        report = batch.solve_batch(scripts)

        # >= 1 cache hit per repeat: 5 misses (first sightings) + 15 hits.
        stats = report.cache_stats
        assert stats.misses == 5
        assert stats.hits == 15
        assert stats.hit_rate == pytest.approx(0.75)
        hits_by_script = {}
        for script, item in zip(scripts, report):
            hits_by_script.setdefault(script, []).append(item.cache_hit)
        for flags in hits_by_script.values():
            assert flags[0] is False and all(flags[1:])

        # Bit-identical models against the sequential path at fixed seed.
        for script, item in zip(scripts, report):
            reference = sequential_reference(script)
            assert item.status == reference.status
            assert item.model == reference.model

        # Metrics export: per-stage timings + cache hit rate.
        export = report.metrics
        for stage in ("compile", "embed", "anneal", "decode"):
            assert stage in export["histograms"], stage
            assert export["histograms"][stage]["count"] >= 1
        assert export["histograms"]["compile"]["count"] == 5  # misses only
        assert export["histograms"]["anneal"]["count"] >= 20  # one per item (+retries)
        assert export["cache"]["hit_rate"] == pytest.approx(0.75)
        assert export["counters"]["batch.items"] == 20
        assert export["counters"]["batch.sat"] == 20

    def test_metrics_json_round_trips(self):
        batch = make_batch()
        batch.solve_batch(UNIQUE_SCRIPTS[:2])
        parsed = json.loads(batch.metrics_json())
        assert set(parsed) >= {"counters", "histograms", "cache"}


class TestDeterminismAcrossExecutors:
    def test_thread_pool_matches_serial_any_width(self):
        scripts = UNIQUE_SCRIPTS * 2
        serial = make_batch(executor="serial").solve_batch(scripts)
        for workers in (1, 3, 8):
            threaded = make_batch(
                executor="thread", num_workers=workers
            ).solve_batch(scripts)
            assert threaded.statuses == serial.statuses
            assert threaded.models == serial.models

    def test_cache_state_does_not_change_results(self):
        scripts = [UNIQUE_SCRIPTS[0]] * 3
        cold = make_batch(cache=CompileCache(maxsize=64)).solve_batch(scripts)
        warm_cache = CompileCache(maxsize=64)
        make_batch(cache=warm_cache).solve_batch(scripts)
        warm = make_batch(cache=warm_cache).solve_batch(scripts)
        assert cold.models == warm.models
        assert all(item.cache_hit for item in warm)


class TestConcurrentSubmits:
    @pytest.mark.slow
    def test_shared_cache_and_metrics_under_concurrent_batches(self):
        import threading

        cache = CompileCache(maxsize=64)
        metrics = MetricsRegistry()
        errors = []
        reports = []
        lock = threading.Lock()

        def submit():
            try:
                batch = make_batch(
                    executor="thread", num_workers=4, cache=cache, metrics=metrics
                )
                report = batch.solve_batch(UNIQUE_SCRIPTS * 2)
                with lock:
                    reports.append(report)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(reports) == 4
        for report in reports:
            assert report.statuses == ["sat"] * 10
        stats = cache.stats
        assert stats.misses == 5  # compiled once across all batches
        assert stats.hits == 4 * 10 - 5
        assert metrics.counter("batch.items").value == 40


class TestRetryPolicyIntegration:
    def test_policy_is_shared_with_item_solvers(self):
        policy = RetryPolicy(max_attempts=5)
        batch = make_batch(policy=policy)
        assert batch.spec.solver().retry_policy is policy

    def test_batch_item_result_repr(self):
        report = make_batch().solve_batch([UNIQUE_SCRIPTS[0]])
        item = report[0]
        assert isinstance(item, BatchItemResult)
        assert "sat" in repr(item)
        assert "n=1" in repr(report)
