"""The reported read is the lowest-energy one that verifies, not ``first``."""

import numpy as np
import pytest

from repro.anneal.sampleset import SampleSet
from repro.core.encoding import encode_string
from repro.core.equality import StringEquality
from repro.core.solver import result_from_sampleset
from repro.service.batch import BatchSolver
from repro.smt import ast
from repro.smt.generator import InstanceGenerator
from repro.smt.parser import parse_script
from repro.smt.solver import QuantumSMTSolver
from repro.smt.theory import eval_formula


def _sampleset(words, energies):
    states = np.array([encode_string(w) for w in words])
    return SampleSet(states, np.asarray(energies, dtype=float))


class TestResultFromSampleset:
    def test_lowest_energy_verifying_read_is_reported(self):
        formulation = StringEquality("ab")
        ss = _sampleset(["aa", "ba", "ab", "ab"], [-3.0, -2.0, -1.0, -1.0])
        result = result_from_sampleset(formulation, ss)
        assert result.ok
        assert result.output == "ab"
        assert result.energy == -1.0
        assert result.info["read_rank"] == 2
        assert result.success_rate == pytest.approx(0.5)

    def test_first_read_when_nothing_verifies(self):
        formulation = StringEquality("ab")
        ss = _sampleset(["ba", "aa"], [-2.0, -1.0])
        result = result_from_sampleset(formulation, ss)
        assert not result.ok
        assert result.output == "ba"
        assert result.energy == -2.0
        assert result.info["read_rank"] == 0
        assert result.success_rate == 0.0

    def test_each_distinct_read_is_verified_once(self):
        class Counting(StringEquality):
            calls = 0

            def verify(self, decoded):
                Counting.calls += 1
                return super().verify(decoded)

        formulation = Counting("ab")
        ss = _sampleset(["aa", "aa", "ab", "ab"], [-3.0, -3.0, -2.0, -2.0])
        result = result_from_sampleset(formulation, ss)
        assert Counting.calls == 2
        assert result.output == "ab" and result.info["read_rank"] == 2
        assert result.success_rate == pytest.approx(0.5)

    def test_empty_sampleset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            result_from_sampleset(StringEquality("a"), SampleSet.empty(range(7)))


def _instances():
    generator = InstanceGenerator(ops="all", min_length=3, max_length=5, seed=1)
    return [generator.generate() for _ in range(23)]


#: Regex-class instances whose lowest-energy read is a non-member: the
#: §4.11 class objective is linear, so bits on which two members differ
#: carry no bias and the ground manifold holds non-members too.
GROUND_MANIFOLD_INSTANCES = (0, 22)


def _satisfies(script, model):
    return all(
        eval_formula(assertion, model)
        for assertion in parse_script(script).assertions
        if ast.free_string_variables(assertion)
    )


class TestDirectSolves:
    @pytest.mark.parametrize("index", GROUND_MANIFOLD_INSTANCES)
    def test_instance_is_sat(self, index):
        script = _instances()[index].script
        result = QuantumSMTSolver.from_script_text(script, seed=index).check_sat()
        assert str(result.status) == "sat"
        assert _satisfies(script, result.model)

    def test_fused_executor_agrees_with_serial(self):
        # Fused tiles and solo solves draw from different streams, so the
        # two executors may pick different members; both must answer sat
        # with a model that satisfies the script.
        instances = _instances()
        scripts = [instances[i].script for i in GROUND_MANIFOLD_INSTANCES]
        fused = BatchSolver(seed=0, executor="fused").solve_batch(scripts)
        serial = BatchSolver(seed=0, executor="serial").solve_batch(scripts)
        assert [str(s) for s in fused.statuses] == ["sat", "sat"]
        assert fused.statuses == serial.statuses
        for report in (fused, serial):
            for script, model in zip(scripts, report.models):
                assert _satisfies(script, model)
