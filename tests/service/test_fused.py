"""The fused batch executor: statuses, fallback discipline, metrics."""

import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.service.batch import BatchSolver
from repro.service.fused import solve_batch_fused
from repro.service.spec import SolveSpec
from repro.smt.parser import parse_script

FAST = {"num_sweeps": 200}


def scripts(k, template='(declare-const x String)(assert (= x "w{i}"))(check-sat)'):
    return [template.format(i=i) for i in range(k)]


class TestBatchSolverFused:
    def test_executor_validation(self):
        with pytest.raises(ValueError, match="executor"):
            BatchSolver(executor="bogus")
        with pytest.raises(ValueError, match="tile_max"):
            BatchSolver(executor="fused", tile_max=0)

    def test_statuses_match_serial(self):
        items = scripts(5) + [
            '(assert (= "a" "b"))(check-sat)',  # trivially unsat
            '(declare-const y String)'
            '(assert (str.prefixof "ab" y))(assert (= (str.len y) 3))(check-sat)',
        ]
        fused = BatchSolver(
            seed=7, num_reads=32, sampler_params=FAST, executor="fused", tile_max=3
        )
        serial = BatchSolver(
            seed=7, num_reads=32, sampler_params=FAST, executor="serial"
        )
        report_f = fused.solve_batch(items)
        report_s = serial.solve_batch(items)
        assert report_f.statuses == report_s.statuses
        assert report_f.models[:5] == [{"x": f"w{i}"} for i in range(5)]

    def test_tile_max_chunks_do_not_change_results(self):
        items = scripts(6)
        reports = [
            BatchSolver(
                seed=3,
                num_reads=32,
                sampler_params=FAST,
                executor="fused",
                tile_max=tile_max,
            ).solve_batch(items)
            for tile_max in (1, 2, 6)
        ]
        # Batch-invariant RNG: chunking must not change any verdict/model.
        for report in reports[1:]:
            assert report.statuses == reports[0].statuses
            assert report.models == reports[0].models

    def test_fused_metrics(self):
        solver = BatchSolver(
            seed=5, num_reads=32, sampler_params=FAST, executor="fused", tile_max=4
        )
        report = solver.solve_batch(scripts(6))
        counters = report.metrics["counters"]
        assert counters["fused.tiles"] == 2
        assert counters["fused.blocks"] == 6
        assert counters["batch.items"] == 6
        assert counters["batch.sat"] == 6

    def test_cache_hits_across_duplicates(self):
        solver = BatchSolver(
            seed=5, num_reads=32, sampler_params=FAST, executor="fused"
        )
        report = solver.solve_batch(scripts(3) + scripts(3))
        assert sum(1 for item in report if item.cache_hit) == 3

    def test_compilation_error_degrades_to_unknown(self):
        solver = BatchSolver(
            seed=5, num_reads=16, sampler_params=FAST, executor="fused"
        )
        report = solver.solve_batch(
            ['(declare-const y String)(assert (= (str.++ y "b") "ab"))(check-sat)']
            + scripts(1)
        )
        assert report.statuses[0] == "unknown"
        assert report.items[0].error_type
        assert report.statuses[1] == "sat"


class TestSolveBatchFused:
    def test_outcome_paths(self):
        sets = [parse_script(s).assertions for s in scripts(3)]
        sets.append(parse_script('(assert (= "a" "b"))(check-sat)').assertions)
        outcomes = solve_batch_fused(
            sets, SolveSpec(seed=2, num_reads=32, sampler_params=FAST)
        )
        assert [o.status for o in outcomes] == ["sat", "sat", "sat", "unsat"]
        assert [o.path for o in outcomes] == ["fused", "fused", "fused", "trivial"]

    def test_fallback_on_fused_miss(self):
        # A sampler too weak for the fused single pass: the item must still
        # come back through the per-item fallback (retries + verification)
        # rather than report an unverified result.
        sets = [parse_script(s).assertions for s in scripts(2)]
        outcomes = solve_batch_fused(
            sets,
            SolveSpec(seed=2, num_reads=1, sampler_params={"num_sweeps": 1}),
        )
        for outcome in outcomes:
            assert outcome.path in ("fused", "fallback")
            assert outcome.status in ("sat", "unknown")
            if outcome.status == "sat":
                # sat is only ever a verified model, fused or not.
                assert outcome.result.model

    def test_per_item_policies_length_checked(self):
        sets = [parse_script(s).assertions for s in scripts(2)]
        with pytest.raises(ValueError, match="policies"):
            solve_batch_fused(sets, SolveSpec(), policies=[None])

    def test_sampler_factory_used(self):
        calls = []

        def factory():
            calls.append(1)
            return SimulatedAnnealingSampler()

        sets = [parse_script(s).assertions for s in scripts(2)]
        outcomes = solve_batch_fused(
            sets,
            SolveSpec(
                seed=4, num_reads=32, sampler_params=FAST, sampler_factory=factory
            ),
        )
        assert [o.status for o in outcomes] == ["sat", "sat"]
        assert calls


class _Boom(SimulatedAnnealingSampler):
    """A sampler whose solo and tiled kernels both raise."""

    def sample_model(self, model, **params):
        raise RuntimeError("boom")

    def sample_tiled(self, tiled, **params):
        raise RuntimeError("boom")


class TestKernelFailure:
    ITEMS = scripts(3) + [
        '(assert (= "a" "b"))(check-sat)',
        "(declare-const x String)(assert (= (str.len x) 1))"
        '(assert-soft (= x "a") :weight 1)(check-sat)',
    ]

    def run(self, executor):
        return BatchSolver(
            lambda: _Boom(),
            seed=1,
            num_reads=8,
            sampler_params={"num_sweeps": 10},
            executor=executor,
        ).solve_batch(self.ITEMS)

    @pytest.mark.parametrize("executor", ["serial", "thread", "fused"])
    def test_same_outcomes_on_every_executor(self, executor):
        report = self.run(executor)
        reference = self.run("serial")
        assert report.statuses == reference.statuses
        assert [i.error_type for i in report] == [i.error_type for i in reference]
        assert report.statuses[:3] == ["unknown"] * 3
        assert [i.error_type for i in report][:3] == ["RetryExhaustedError"] * 3
        assert report.statuses[3] == "unsat"
        assert report[4].opt_status == reference[4].opt_status

    def test_failed_tile_items_count_as_fallbacks(self):
        report = self.run("fused")
        counters = report.metrics["counters"]
        assert counters["fused.tiles"] == 1
        assert counters["fused.fallbacks"] == 3
        assert [item.path for item in report][:4] == ["fallback"] * 3 + ["trivial"]
