"""Self-tests for the perf runner (repro.perf.runner).

Uses tiny unregistered specs (short strings, few reads) so the tier-1
suite stays fast while still exercising the real pipeline end to end.
"""

import math

import pytest

from repro.perf.registry import BenchmarkSpec
from repro.perf.runner import (
    STAGES,
    BenchmarkResult,
    WorkloadDeterminismError,
    run_spec,
    run_suite,
    time_to_solution,
)
from repro.perf.workloads import Workload, build_workload
from repro.service.metrics import MetricsRegistry

pytestmark = pytest.mark.perf


def _tiny_solve_spec(name="tiny-equality"):
    return BenchmarkSpec(
        name=name,
        suite="core",
        kind="solve",
        params={
            "formulation": "equality", "target": "hi",
            "num_reads": 8, "num_sweeps": 100, "seed": 11,
        },
    )


def _tiny_kernel_spec():
    return BenchmarkSpec(
        name="tiny-kernel",
        suite="sparse",
        kind="kernel",
        params={"length": 4, "num_reads": 8, "num_sweeps": 32, "seed": 3},
    )


class TestRunSpec:
    def test_shapes_and_stages(self):
        result = run_spec(_tiny_solve_spec(), repeats=3, warmup=1)
        assert isinstance(result, BenchmarkResult)
        assert len(result.wall_times) == 3
        assert all(t > 0 for t in result.wall_times)
        # Stage series align with the wall series, one total per repeat.
        for name, series in result.stage_times.items():
            assert len(series) == 3, name
        assert set(result.stage_times) & set(STAGES)

    def test_workload_fingerprint(self):
        result = run_spec(_tiny_solve_spec(), repeats=2, warmup=0)
        assert result.workload["output"] == "hi"
        assert result.workload["ok"] is True

    def test_metadata_model_shape(self):
        result = run_spec(_tiny_kernel_spec(), repeats=1, warmup=0)
        assert result.metadata["num_variables"] == 28  # 7 bits x 4 chars
        assert result.metadata["coupling_form"] == "sparse"
        assert result.counters.get("kernel.reads") == 8

    def test_determinism_across_invocations(self):
        # The acceptance criterion: two runs at the fixed seed agree on
        # everything except the timing fields.
        a = run_spec(_tiny_solve_spec(), repeats=2, warmup=0).to_dict()
        b = run_spec(_tiny_solve_spec(), repeats=2, warmup=0).to_dict()
        for doc in (a, b):
            doc.pop("wall_times")
            doc.pop("wall")
            doc.pop("stage_median")
        assert a == b

    def test_run_by_name_uses_registry(self):
        with pytest.raises(KeyError):
            run_spec("not-a-registered-benchmark", repeats=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_spec(_tiny_solve_spec(), repeats=0)
        with pytest.raises(ValueError):
            run_spec(_tiny_solve_spec(), warmup=-1)

    def test_nondeterministic_workload_rejected(self, monkeypatch):
        # A workload whose fingerprint drifts between repeats cannot be
        # regression-gated; the runner must refuse it loudly.
        calls = {"n": 0}

        def drifting(metrics):
            calls["n"] += 1
            return {"value": calls["n"]}

        spec = _tiny_solve_spec("drifting")
        workload = Workload(spec, drifting, metadata={})
        monkeypatch.setattr(
            "repro.perf.runner.build_workload", lambda _spec: workload
        )
        with pytest.raises(WorkloadDeterminismError):
            run_spec(spec, repeats=2, warmup=0)


class TestRunSuite:
    def test_explicit_specs(self):
        results = run_suite(
            "core", repeats=1, warmup=0, specs=[_tiny_solve_spec()]
        )
        assert [r.name for r in results] == ["tiny-equality"]

    def test_progress_callback(self):
        seen = []
        run_suite("core", repeats=1, warmup=0,
                  specs=[_tiny_solve_spec()], progress=seen.append)
        assert [spec.name for spec in seen] == ["tiny-equality"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus")


class TestWorkloadBuild:
    def test_unknown_kind_rejected(self):
        spec = BenchmarkSpec("x", "core", "solve")
        object.__setattr__(spec, "kind", "mystery")
        with pytest.raises(ValueError):
            build_workload(spec)

    def test_batch_warm_cache_all_hits(self):
        spec = BenchmarkSpec(
            name="tiny-batch-warm",
            suite="service",
            kind="batch",
            params={
                "words": ["hi", "ok"], "repeats": 2, "warm": True,
                "executor": "serial", "num_workers": 1,
                "num_reads": 8, "num_sweeps": 100, "seed": 5,
            },
        )
        workload = build_workload(spec)
        metrics = MetricsRegistry()
        fingerprint = workload.run(metrics)
        assert fingerprint["statuses"] == ["sat"] * 4
        counters = metrics.export()["counters"]
        assert counters.get("cache.hits") == 4
        assert "cache.misses" not in counters


class TestTimeToSolution:
    def test_formula(self):
        # 0.64 s per call of 64 reads, half of them succeed: 0.01 s per
        # read times ln(0.01) / ln(0.5) ≈ 6.64 reads.
        assert time_to_solution(0.64, 64, 0.5) == pytest.approx(
            0.01 * math.log(0.01) / math.log(0.5)
        )

    def test_one_read_suffices_at_high_success(self):
        assert time_to_solution(0.64, 64, 0.99) == pytest.approx(0.01)
        assert time_to_solution(0.64, 64, 1.0) == pytest.approx(0.01)

    def test_never_succeeds(self):
        assert time_to_solution(0.64, 64, 0.0) is None


def _result(stage_times, workload, params):
    return BenchmarkResult(
        name="r", suite="core", kind="solve", tolerance=0.5, repeats=3,
        warmup=0, wall_times=[0.2, 0.1, 0.3], stage_times=stage_times,
        counters={}, workload=workload, metadata={}, params=params,
    )


class TestHonestSchema:
    def test_values_kept_apart_from_stage_seconds(self):
        result = _result(
            {"anneal": [0.1, 0.2, 0.3], "opt.objective": [2.0, 2.0, 3.0],
             "refine.qubo_variables": [27.0, 27.0, 27.0],
             "batch.wall": [0.4, 0.5, 0.6]},
            workload={}, params={},
        )
        doc = result.to_dict()
        # Only the pipeline stages count as stage seconds; a whole-call
        # wall overlaps them and goes with the other histograms.
        assert doc["stage_median"] == {"anneal": 0.2}
        assert doc["values"] == {
            "batch.wall": 0.5, "opt.objective": 2.0, "refine.qubo_variables": 27.0,
        }
        assert "tts99_s" not in doc["wall"]

    def test_tts99_reported_with_a_success_rate(self):
        result = _result(
            {"anneal": [0.1]}, workload={"success_rate": 0.5},
            params={"num_reads": 10},
        )
        expected = 0.02 * math.log(0.01) / math.log(0.5)
        assert result.tts99_s() == pytest.approx(expected)
        assert result.to_dict()["wall"]["tts99_s"] == round(expected, 6)

    def test_tts99_null_without_successes(self):
        result = _result(
            {}, workload={"success_rate": 0.0}, params={"num_reads": 10}
        )
        assert result.to_dict()["wall"]["tts99_s"] is None

    def test_solve_spec_reports_build_stage(self):
        result = run_spec(_tiny_solve_spec(), repeats=1, warmup=0)
        assert "build" in result.stage_medians()
        assert "embed" not in result.stage_medians()
        assert result.to_dict()["wall"]["tts99_s"] > 0
