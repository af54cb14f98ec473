"""DifferentialOracle: classification taxonomy and end-to-end checks."""

import pytest

from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.solver import SmtResult
from repro.smt.status import SolveStatus
from repro.verify import DifferentialOracle, Verdict

X = ast.StrVar("x")


def _len_eq(n):
    return ast.Eq(ast.Length(X), ast.IntLit(n))


def _assertions():
    return [_len_eq(2), ast.PrefixOf(ast.StrLit("a"), X)]


@pytest.fixture(scope="module")
def oracle():
    return DifferentialOracle(
        SolveSpec(seed=0, num_reads=48, sampler_params={"num_sweeps": 300})
    )


class TestClassify:
    """Pure classification over synthetic (quantum, reference) pairs."""

    def test_agree_sat_with_audited_model(self, oracle):
        q = SmtResult(status="sat", model={"x": "ab"})
        r = SmtResult(status="sat", model={"x": "ab"})
        report = oracle.classify(_assertions(), q, r)
        assert report.verdict is Verdict.AGREE_SAT
        assert report.checked_assertions == 2
        assert report.verdict.is_agreement and not report.verdict.is_bug

    def test_sat_with_bad_model_is_soundness_bug(self, oracle):
        q = SmtResult(status="sat", model={"x": "bb"})  # violates prefixof
        r = SmtResult(status="sat", model={"x": "ab"})
        report = oracle.classify(_assertions(), q, r)
        assert report.verdict is Verdict.SOUNDNESS_BUG
        assert "violates" in report.reason
        assert report.verdict.is_bug

    def test_sat_vs_reference_unsat_is_soundness_bug(self, oracle):
        # Model passes the audit, but the reference claims unsat: one of
        # the two engines must be wrong — flagged either way.
        q = SmtResult(status="sat", model={"x": "ab"})
        r = SmtResult(status="unsat")
        report = oracle.classify(_assertions(), q, r)
        assert report.verdict is Verdict.SOUNDNESS_BUG

    def test_agree_unsat(self, oracle):
        q = SmtResult(status="unsat")
        r = SmtResult(status="unsat")
        report = oracle.classify([_len_eq(1), _len_eq(2)], q, r)
        assert report.verdict is Verdict.AGREE_UNSAT

    def test_quantum_unsat_on_witnessed_instance_is_soundness_bug(self, oracle):
        q = SmtResult(status="unsat")
        r = SmtResult(status="unknown")
        report = oracle.classify(_assertions(), q, r, witness={"x": "ab"})
        assert report.verdict is Verdict.SOUNDNESS_BUG

    def test_unknown_on_planted_sat_is_completeness_miss(self, oracle):
        q = SmtResult(status="unknown", reason="no verified witness")
        r = SmtResult(status="unknown")
        report = oracle.classify(_assertions(), q, r, witness={"x": "ab"})
        assert report.verdict is Verdict.COMPLETENESS_MISS

    def test_unknown_on_expected_sat_is_completeness_miss(self, oracle):
        q = SmtResult(status="unknown")
        r = SmtResult(status="unknown")
        report = oracle.classify(
            _assertions(), q, r, expected=SolveStatus.SAT
        )
        assert report.verdict is Verdict.COMPLETENESS_MISS

    def test_unknown_everywhere_is_unresolved(self, oracle):
        q = SmtResult(status="unknown")
        r = SmtResult(status="unknown")
        report = oracle.classify(_assertions(), q, r)
        assert report.verdict is Verdict.UNRESOLVED

    def test_bogus_witness_does_not_plant_sat(self, oracle):
        q = SmtResult(status="unknown")
        r = SmtResult(status="unknown")
        report = oracle.classify(_assertions(), q, r, witness={"x": "zz"})
        assert report.verdict is Verdict.UNRESOLVED

    def test_to_dict_is_json_friendly(self, oracle):
        import json

        q = SmtResult(status="sat", model={"x": "ab"})
        r = SmtResult(status="sat", model={"x": "ab"})
        payload = oracle.classify(_assertions(), q, r).to_dict()
        assert json.loads(json.dumps(payload))["verdict"] == "agree_sat"


class TestEndToEnd:
    def test_simple_sat_instance_agrees(self, oracle):
        report = oracle.check(_assertions(), witness={"x": "ab"})
        assert report.verdict in (
            Verdict.AGREE_SAT,
            Verdict.COMPLETENESS_MISS,
        )
        if report.verdict is Verdict.AGREE_SAT:
            assert report.quantum_model["x"].startswith("a")

    def test_ground_false_assertion(self, oracle):
        report = oracle.check(
            [ast.Eq(ast.StrLit("a"), ast.StrLit("b"))],
            expected=SolveStatus.UNSAT,
        )
        assert report.verdict in (Verdict.AGREE_UNSAT, Verdict.UNRESOLVED)
        assert report.verdict is not Verdict.SOUNDNESS_BUG

    def test_dpllt_reference(self):
        oracle = DifferentialOracle(
            SolveSpec(seed=0, num_reads=48, sampler_params={"num_sweeps": 300}),
            reference="dpllt",
        )
        report = oracle.check(_assertions(), witness={"x": "ab"})
        assert report.verdict is not Verdict.SOUNDNESS_BUG

    def test_bad_reference_name_rejected(self):
        with pytest.raises(ValueError):
            DifferentialOracle(SolveSpec(seed=0), reference="z3")

    def test_non_int_seed_rejected(self):
        import random

        with pytest.raises(TypeError):
            DifferentialOracle(SolveSpec(seed=random.Random(0)))

    def test_metrics_counters_recorded(self):
        from repro.service.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        oracle = DifferentialOracle(
            SolveSpec(seed=0, num_reads=48, sampler_params={"num_sweeps": 300}),
            metrics=metrics,
        )
        oracle.check(_assertions(), witness={"x": "ab"})
        assert metrics.counter("oracle.checks").value == 1
