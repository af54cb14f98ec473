"""The anytime optimizer driver: statuses, bounds, budgets, metrics."""

from __future__ import annotations

import pytest

from repro.opt.driver import AnytimeOptimizer, audit_cost
from repro.opt.result import OptStatus, solve_status_for
from repro.service.metrics import MetricsRegistry
from repro.smt.parser import parse_script

pytestmark = pytest.mark.opt

CLOSEST_L2 = (
    "(declare-const x String)"
    "(assert (= (str.len x) 2))"
    '(assert-soft (= (str.at x 0) "h") :weight 1 :id ref0)'
    '(assert-soft (= (str.at x 1) "i") :weight 1 :id ref0)'
    '(assert-soft (= (str.at x 0) "h") :weight 1 :id ref1)'
    '(assert-soft (= (str.at x 1) "o") :weight 1 :id ref1)'
    '(assert-soft (= (str.at x 0) "m") :weight 1 :id ref2)'
    '(assert-soft (= (str.at x 1) "y") :weight 1 :id ref2)'
)


def _split(text: str):
    script = parse_script(text)
    return list(script.assertions), list(script.soft_assertions)


class TestExhaustive:
    def test_true_optimum_with_breakdown(self):
        optimizer = AnytimeOptimizer(seed=0)
        result = optimizer.optimize_script(CLOSEST_L2)
        assert result.status is OptStatus.OPTIMAL
        # Majority vote per position: "h?" ties broken by enumeration
        # order, but the objective is pinned at 3 regardless.
        assert result.objective == 3.0
        assert result.lower_bound == result.upper_bound == 3.0
        assert len(result.breakdown) == 6
        assert result.total_weight == 6.0
        assert result.satisfied_weight == 3.0
        satisfied = [entry for entry in result.breakdown if entry.satisfied]
        assert sum(entry.weight for entry in satisfied) == 3.0
        assert result.certificate["num_soft_encoded"] == 6

    def test_deterministic(self):
        one = AnytimeOptimizer(seed=9).optimize_script(CLOSEST_L2)
        two = AnytimeOptimizer(seed=9).optimize_script(CLOSEST_L2)
        assert one.to_dict() == two.to_dict()

    def test_zero_cost_model_short_circuits(self):
        result = AnytimeOptimizer(seed=1).optimize_script(
            "(declare-const x String)"
            "(assert (= (str.len x) 1))"
            '(assert-soft (= x "q") :weight 4)'
        )
        assert result.status is OptStatus.OPTIMAL
        assert result.objective == 0.0
        assert result.model == {"x": "q"}


class TestInfeasibleAndUnknown:
    def test_ground_false_hard_is_infeasible(self):
        result = AnytimeOptimizer(seed=0).optimize_script(
            '(assert (= "a" "b"))'
            '(declare-const x String)'
            '(assert-soft (= x "a") :weight 5)'
        )
        assert result.status is OptStatus.INFEASIBLE
        assert result.objective is None
        assert result.model == {}
        assert result.satisfied_weight is None

    def test_exhausted_pinned_length_is_infeasible(self):
        # Length exactly pinned to 1 and every 1-char string refuted:
        # exhaustive enumeration is a sound refutation.
        result = AnytimeOptimizer(seed=0).optimize_script(
            "(declare-const x String)"
            "(assert (= (str.len x) 1))"
            '(assert (= (str.at x 0) "a"))'
            '(assert (not (= x "a")))'
            '(assert-soft (str.contains x "a") :weight 1)'
        )
        assert result.status is OptStatus.INFEASIBLE

    def test_lower_bound_only_length_stays_unknown(self):
        # prefixof only bounds the length from below; an exhausted sweep
        # at the minimum buffer is NOT a refutation.
        result = AnytimeOptimizer(seed=0).optimize_script(
            "(declare-const x String)"
            '(assert (str.prefixof "ab" x))'
            '(assert (not (= x "ab")))'
            '(assert-soft (= (str.at x 0) "a") :weight 1)'
        )
        assert result.status is OptStatus.UNKNOWN
        assert result.objective is None

    def test_ground_soft_costs_still_audited(self):
        result = AnytimeOptimizer(seed=0).optimize_script(
            '(assert-soft (= "a" "b") :weight 2)'
            '(assert-soft (= "a" "a") :weight 1)'
        )
        assert result.status is OptStatus.OPTIMAL
        assert result.objective == 2.0
        assert result.lower_bound == 2.0


class TestAnytime:
    def _run(self, **kwargs):
        params = dict(
            seed=2025, num_reads=16, exhaustive_bits=0,
            sampler_params={"num_sweeps": 200},
        )
        params.update(kwargs)
        return AnytimeOptimizer(**params).optimize_script(
            "(declare-const x String)"
            "(assert (= (str.len x) 4))"
            + "".join(
                f'(assert-soft (= (str.at x {i}) "{c}") :weight 1 :id ref{r})'
                for r, ref in enumerate(("kale", "male", "mole"))
                for i, c in enumerate(ref)
            )
        )

    def test_restarts_no_worse_than_direct_at_equal_reads(self):
        direct = self._run(max_restarts=1, num_reads=64)
        anytime = self._run(max_restarts=4, num_reads=16)
        assert direct.status.is_feasible and anytime.status.is_feasible
        assert anytime.objective <= direct.objective
        assert anytime.reads_used == direct.reads_used == 64

    def test_bounds_bracket_objective(self):
        result = self._run(max_restarts=2)
        assert result.status is OptStatus.FEASIBLE
        assert result.lower_bound <= result.objective <= result.upper_bound
        assert result.upper_bound == result.objective

    def test_deadline_limits_restarts(self):
        # A sub-millisecond deadline is spent by the first restart (which
        # always runs); the deadline check stops every later one.
        result = self._run(max_restarts=8, deadline_ms=0.001)
        assert result.restarts == 1
        assert result.status.is_feasible

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            AnytimeOptimizer(seed=0, deadline_ms=0)

    def test_restart_accounting(self):
        result = self._run(max_restarts=3)
        assert 1 <= result.restarts <= 3
        assert result.reads_used == 16 * result.restarts

    def test_decodes_each_distinct_state_once(self, monkeypatch):
        from repro.anneal.simulated import SimulatedAnnealingSampler
        from repro.opt.weighted import WeightedFormulation

        distinct = []
        sample_model = SimulatedAnnealingSampler.sample_model

        def counting_sample_model(self, model, **params):
            sampleset = sample_model(self, model, **params)
            distinct.append(len({row.tobytes() for row in sampleset.states}))
            return sampleset

        decoded = []
        decode = WeightedFormulation.decode

        def counting_decode(self, state):
            decoded.append(1)
            return decode(self, state)

        monkeypatch.setattr(SimulatedAnnealingSampler, "sample_model", counting_sample_model)
        monkeypatch.setattr(WeightedFormulation, "decode", counting_decode)
        result = self._run(max_restarts=3, num_reads=64)
        assert len(distinct) == result.restarts
        assert len(decoded) == sum(distinct) < result.reads_used


class TestCtorValidation:
    def test_max_restarts_positive(self):
        with pytest.raises(ValueError, match="max_restarts"):
            AnytimeOptimizer(seed=0, max_restarts=0)


class TestMetrics:
    def test_counters_and_series(self):
        metrics = MetricsRegistry()
        AnytimeOptimizer(seed=0, metrics=metrics).optimize_script(CLOSEST_L2)
        assert metrics.counter("opt.optimize").value == 1
        assert metrics.counter("opt.optimal").value == 1
        assert metrics.counter("opt.exhaustive_vars").value == 1
        assert metrics.values("opt.objective") == [3.0]
        assert len(metrics.values("opt.wall")) == 1


class TestAuditCost:
    def test_counts_violated_weight(self):
        hard, soft = _split(
            "(declare-const x String)"
            "(assert (= (str.len x) 2))"
            '(assert-soft (= (str.at x 0) "a") :weight 2)'
            '(assert-soft (= (str.at x 1) "b") :weight 1)'
        )
        pairs = [(float(s.weight), s.term) for s in soft]
        feasible, violated = audit_cost(hard, pairs, {"x": "ax"})
        assert feasible is True
        assert violated == 1.0
        feasible, violated = audit_cost(hard, pairs, {"x": "xxx"})
        assert feasible is False


class TestStatusProjection:
    @pytest.mark.parametrize(
        "status, expected",
        [
            (OptStatus.OPTIMAL, "sat"),
            (OptStatus.FEASIBLE, "sat"),
            (OptStatus.INFEASIBLE, "unsat"),
            (OptStatus.UNKNOWN, "unknown"),
        ],
    )
    def test_solve_status_for(self, status, expected):
        assert solve_status_for(status) == expected

    def test_aliases(self):
        assert OptStatus.from_value("sat") is OptStatus.FEASIBLE
        assert OptStatus.from_value("timeout") is OptStatus.UNKNOWN
        with pytest.raises(ValueError):
            OptStatus.from_value("bogus")
