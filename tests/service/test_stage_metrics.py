"""Metrics threading through the solve pipeline and the §4.12 pipeline."""

from __future__ import annotations

import pytest

from repro.core.pipeline import ConstraintPipeline, PipelineStage
from repro.core.reverse import StringReversal
from repro.core.replace import StringReplaceAll
from repro.core.solver import StringQuboSolver
from repro.service import MetricsRegistry, RetryPolicy

pytestmark = pytest.mark.service


def make_solver(metrics=None):
    return StringQuboSolver(
        num_reads=32, seed=9, sampler_params={"num_sweeps": 300}, metrics=metrics
    )


class TestStringQuboSolverStages:
    def test_embed_anneal_decode_recorded_per_solve(self):
        metrics = MetricsRegistry()
        solver = make_solver(metrics)
        result = solver.solve(StringReversal("hello"))
        assert result.output == "olleh"
        export = metrics.export()
        for stage in ("build", "anneal", "decode"):
            assert export["histograms"][stage]["count"] == 1
        # Stage times nest inside the reported wall time (build + anneal).
        stage_sum = (
            export["histograms"]["build"]["total"]
            + export["histograms"]["anneal"]["total"]
        )
        assert stage_sum <= result.wall_time + 0.05

    def test_metrics_are_optional(self):
        result = make_solver(metrics=None).solve(StringReversal("ab"))
        assert result.output == "ba"


class TestPipelineIntegration:
    def _pipeline(self):
        return ConstraintPipeline(
            [
                PipelineStage("reverse", lambda prev: StringReversal(prev)),
                PipelineStage(
                    "replace_all",
                    lambda prev: StringReplaceAll(prev, "e", "a"),
                ),
            ]
        )

    def test_metrics_record_per_stage_wall_times(self):
        metrics = MetricsRegistry()
        result = self._pipeline().run(
            make_solver(), initial="hello", metrics=metrics
        )
        assert result.output == "ollah"
        export = metrics.export()
        assert export["histograms"]["pipeline.stage.reverse"]["count"] == 1
        assert export["histograms"]["pipeline.stage.replace_all"]["count"] == 1
        assert export["counters"]["pipeline.runs"] == 1
        assert export["counters"]["pipeline.ok"] == 1

    def test_policy_retries_unverified_stage(self):
        solver = make_solver()
        real_solve = solver.solve
        state = {"calls": 0}

        def flaky_solve(formulation, **params):
            state["calls"] += 1
            result = real_solve(formulation, **params)
            if state["calls"] == 1:
                result.ok = False
            return result

        solver.solve = flaky_solve
        pipeline = ConstraintPipeline(
            [PipelineStage("reverse", lambda prev: StringReversal(prev))]
        )
        result = pipeline.run(
            solver, initial="hello", policy=RetryPolicy(max_attempts=3)
        )
        assert result.ok
        assert state["calls"] == 2

    def test_policy_exhaustion_returns_last_stage_result(self):
        solver = make_solver()
        real_solve = solver.solve

        def always_unverified(formulation, **params):
            result = real_solve(formulation, **params)
            result.ok = False
            return result

        solver.solve = always_unverified
        pipeline = ConstraintPipeline(
            [PipelineStage("reverse", lambda prev: StringReversal(prev))]
        )
        result = pipeline.run(
            solver, initial="hi", policy=RetryPolicy(max_attempts=2)
        )
        assert not result.ok  # surfaced, not raised: soft degradation
        assert len(result.stages) == 1

    def test_run_without_policy_or_metrics_unchanged(self):
        result = self._pipeline().run(make_solver(), initial="hello")
        assert result.output == "ollah"
        assert result.ok
        assert result.total_wall_time > 0
