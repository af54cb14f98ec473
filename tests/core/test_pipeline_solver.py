import pytest

from repro.anneal.random_sampler import RandomSampler
from repro.core.encoding import encode_string
from repro.core.equality import StringEquality
from repro.core.pipeline import ConstraintPipeline, PipelineResult, PipelineStage
from repro.core.replace import StringReplaceAll
from repro.core.reverse import StringReversal
from repro.core.solver import StringQuboSolver


class TestStringQuboSolver:
    def test_solve_result_fields(self, solver):
        result = solver.solve(StringEquality("ok"))
        assert result.output == "ok"
        assert result.ok
        assert result.energy == result.ground_energy
        assert result.success_rate > 0
        assert result.wall_time > 0
        assert result.reached_ground is True

    def test_success_rate_weighted_over_reads(self, solver):
        result = solver.solve(StringEquality("a"))
        assert 0.0 < result.success_rate <= 1.0

    def test_weak_sampler_fails_verification(self):
        # A random sampler almost surely cannot hit a 35-bit target.
        weak = StringQuboSolver(sampler=RandomSampler(), num_reads=4, seed=0)
        result = weak.solve(StringEquality("hello"))
        assert not result.ok
        assert result.reached_ground is False

    def test_per_call_overrides(self, solver):
        result = solver.solve(StringEquality("x"), num_reads=3)
        assert len(result.sampleset) == 3

    def test_seed_sequence_differs_across_solves(self):
        s = StringQuboSolver(num_reads=4, seed=1, sampler_params={"num_sweeps": 20})
        a = s.solve(StringEquality("ab"))
        b = s.solve(StringEquality("ab"))
        # Different spawned seeds: usually different samplesets; at minimum
        # the solver must not crash and must keep verifying.
        assert a.ok and b.ok

    def test_seed_override_leaves_the_stream_untouched(self):
        # A caller-supplied seed must not advance the driver's own stream:
        # the next unseeded solve draws what a fresh driver would draw.
        params = dict(num_reads=4, sampler_params={"num_sweeps": 20})
        used = StringQuboSolver(seed=5, **params)
        fresh = StringQuboSolver(seed=5, **params)
        used.solve(StringEquality("ab"), seed=123)
        assert used._rng.integers(0, 2**63 - 1) == fresh._rng.integers(0, 2**63 - 1)

    def test_clamped_solve_reduces_and_expands(self, solver):
        # Pin the first character of "ab" (7 bits): the annealer sees the
        # 7 free bits only, the decoded answer is the full-width string.
        clamps = {i: int(b) for i, b in enumerate(encode_string("a"))}
        result = solver.solve(StringEquality("ab"), clamps=clamps)
        assert result.output == "ab" and result.ok
        assert result.sampleset.states.shape[1] == 14
        assert result.info["refine"] == {
            "clamped_bits": 7,
            "reduced_variables": 7,
            "full_variables": 14,
        }

    def test_no_clamps_records_no_refine_info(self, solver):
        assert "refine" not in solver.solve(StringEquality("ab")).info

    def test_bad_num_reads(self):
        with pytest.raises(ValueError):
            StringQuboSolver(num_reads=0)

    def test_info_propagated(self, solver):
        result = solver.solve(StringEquality("q"))
        assert result.info.get("sampler") == "SimulatedAnnealingSampler"


class TestConstraintPipeline:
    def test_table1_row1(self, solver):
        pipeline = ConstraintPipeline(
            [
                PipelineStage("reverse", lambda prev: StringReversal(prev)),
                PipelineStage(
                    "replace_all", lambda prev: StringReplaceAll(prev, "e", "a")
                ),
            ]
        )
        result = pipeline.run(solver, initial="hello")
        assert result.output == "ollah"
        assert result.ok
        assert len(result.stages) == 2
        assert result.stages[0].output == "olleh"

    def test_output_threading(self, solver):
        pipeline = ConstraintPipeline(
            [
                PipelineStage("upper1", lambda prev: StringEquality(prev + "b")),
                PipelineStage("upper2", lambda prev: StringEquality(prev + "c")),
            ]
        )
        result = pipeline.run(solver, initial="a")
        assert result.output == "abc"

    def test_total_wall_time(self, solver):
        pipeline = ConstraintPipeline(
            [PipelineStage("one", lambda prev: StringEquality("z"))]
        )
        result = pipeline.run(solver)
        assert result.total_wall_time > 0

    def test_default_solver_constructed(self):
        pipeline = ConstraintPipeline(
            [PipelineStage("eq", lambda prev: StringEquality("a"))]
        )
        result = pipeline.run(num_reads=8, num_sweeps=100, seed=0)
        assert result.ok

    def test_failure_propagates_to_ok(self):
        weak = StringQuboSolver(sampler=RandomSampler(), num_reads=2, seed=0)
        pipeline = ConstraintPipeline(
            [PipelineStage("eq", lambda prev: StringEquality("impossible?"))]
        )
        result = pipeline.run(weak)
        assert not result.ok

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstraintPipeline([])
        with pytest.raises(ValueError):
            ConstraintPipeline(
                [
                    PipelineStage("dup", lambda prev: StringEquality("a")),
                    PipelineStage("dup", lambda prev: StringEquality("b")),
                ]
            )
        with pytest.raises(ValueError):
            _ = PipelineResult().output
