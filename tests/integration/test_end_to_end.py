"""Cross-stack integration: SMT-LIB in, verified models out, on multiple
sampler backends, with agreement between the quantum and classical paths."""

import pytest

from repro.anneal import PathIntegralAnnealer, TabuSampler
from repro.smt import ClassicalStringSolver, QuantumSMTSolver, parse_script
from repro.smt.theory import eval_formula

SCRIPT = """
(set-logic QF_S)
(declare-const greeting String)
(declare-const needle_host String)
(declare-const pattern String)
(assert (= greeting (str.replace_all (str.++ "hello " "world") "l" "x")))
(assert (= (str.len needle_host) 6))
(assert (= (str.indexof needle_host "hi") 2))
(assert (= (str.len pattern) 5))
(assert (str.in_re pattern (re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
(check-sat)
"""


def _verify_model(model):
    assertions = parse_script(SCRIPT).assertions
    for assertion in assertions:
        assert eval_formula(assertion, model), assertion


class TestQuantumPath:
    def test_simulated_annealing_backend(self):
        solver = QuantumSMTSolver.from_script_text(
            SCRIPT, seed=0, num_reads=48, sampler_params={"num_sweeps": 400}
        )
        result = solver.check_sat()
        assert result.status == "sat"
        _verify_model(result.model)
        assert result.model["greeting"] == "hexxo worxd"

    def test_sqa_backend(self):
        solver = QuantumSMTSolver.from_script_text(
            SCRIPT,
            sampler=PathIntegralAnnealer(),
            seed=1,
            num_reads=8,
            max_attempts=5,
            sampler_params={"num_sweeps": 128},
        )
        result = solver.check_sat()
        assert result.status == "sat"
        _verify_model(result.model)

    def test_tabu_backend(self):
        solver = QuantumSMTSolver.from_script_text(
            SCRIPT, sampler=TabuSampler(), seed=2, num_reads=16, max_attempts=5
        )
        result = solver.check_sat()
        assert result.status == "sat"
        _verify_model(result.model)


class TestAgreementWithClassical:
    def test_both_find_verified_models(self):
        assertions = parse_script(SCRIPT).assertions
        classical = ClassicalStringSolver(max_length=8).solve(assertions)
        assert classical.status == "sat"
        for assertion in assertions:
            assert eval_formula(assertion, classical.model)

        quantum = QuantumSMTSolver.from_script_text(
            SCRIPT, seed=4, num_reads=48, sampler_params={"num_sweeps": 400}
        ).check_sat()
        assert quantum.status == "sat"
        # Ground constraints fully determine `greeting`; both must agree.
        assert quantum.model["greeting"] == classical.model["greeting"]

    def test_unsat_agreement(self):
        script = '(declare-const x String)(assert (= x "a"))(assert (= x "b"))'
        assertions = parse_script(script).assertions
        classical = ClassicalStringSolver().solve(assertions)
        assert classical.status == "unsat"
        # The QUBO path is incomplete: it may only say unknown, never sat.
        quantum = QuantumSMTSolver.from_script_text(
            script, seed=5, num_reads=16, sampler_params={"num_sweeps": 200}
        ).check_sat()
        assert quantum.status in ("unsat", "unknown")


class TestSequentialVsConjunctive:
    def test_pipeline_and_composite_agree(self):
        """§4.12 sequential composition vs QUBO-sum conjunction."""
        from repro.core import (
            ConstraintPipeline,
            PipelineStage,
            StringQuboSolver,
            StringReplaceAll,
            StringReversal,
        )

        solver = StringQuboSolver(
            num_reads=32, seed=6, sampler_params={"num_sweeps": 300}
        )
        pipeline = ConstraintPipeline(
            [
                PipelineStage("rev", lambda prev: StringReversal(prev)),
                PipelineStage("rep", lambda prev: StringReplaceAll(prev, "e", "a")),
            ]
        )
        sequential = pipeline.run(solver, initial="hello")
        # Conjunctive: single equality with the composed concrete result.
        script = (
            "(declare-const x String)"
            '(assert (= x (str.replace_all (str.rev "hello") "e" "a")))'
            "(check-sat)"
        )
        conjunctive = QuantumSMTSolver.from_script_text(
            script, seed=7, num_reads=32, sampler_params={"num_sweeps": 300}
        )
        result = conjunctive.check_sat()
        assert result.status == "sat"
        assert result.model["x"] == sequential.output == "ollah"
