"""Unit tests for the CEGAR refinement loop (repro.smt.refine).

Covers the abstraction primitives (implied domains, implied-bit clamps,
state expansion), the engine's pruning/determinism behaviour, aux-bit
safety, session integration and the stats/metrics surface. The
fault-injection surface lives in ``test_refine_faults.py``; the
cross-backend bit-identity contract in
``tests/properties/test_property_refine.py``.
"""

import numpy as np
import pytest

from repro.core.encoding import char_to_bits, encode_string, variable_index
from repro.qubo.algebra import expand_states
from repro.service.metrics import MetricsRegistry
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.parser import parse_script
from repro.smt.refine import (
    RefinementEngine,
    RefineStats,
    implied_bit_clamps,
    implied_domains,
)
from repro.smt.session import SolverSession
from repro.smt.solver import QuantumSMTSolver
from repro.smt.status import SolveStatus
from repro.utils.asciitab import CHAR_BITS

FAST = dict(num_reads=24, sampler_params={"num_sweeps": 200}, seed=7)


def _assertions(script: str):
    return list(parse_script(script).assertions)


def _solver(script: str, strategy: str = "refine", **overrides):
    kwargs = dict(FAST, strategy=strategy)
    kwargs.update(overrides)
    return QuantumSMTSolver.from_script_text(script, **kwargs)


# --------------------------------------------------------------------- #
# implied_domains
# --------------------------------------------------------------------- #


class TestImpliedDomains:
    def test_equality_pins_every_position(self):
        group = _assertions('(declare-const x String)(assert (= x "ab"))')
        domains = implied_domains("x", group, 2)
        assert domains == [frozenset("a"), frozenset("b")]

    def test_prefix_pins_leading_positions_only(self):
        group = _assertions(
            '(declare-const x String)(assert (str.prefixof "ab" x))'
        )
        domains = implied_domains("x", group, 4)
        assert domains[:2] == [frozenset("a"), frozenset("b")]
        assert domains[2:] == [None, None]

    def test_suffix_pins_trailing_positions_only(self):
        group = _assertions(
            '(declare-const x String)(assert (str.suffixof "yz" x))'
        )
        domains = implied_domains("x", group, 4)
        assert domains[:2] == [None, None]
        assert domains[2:] == [frozenset("y"), frozenset("z")]

    def test_contains_unions_across_placements(self):
        # "ab" can sit at offset 0 or 1 in a length-3 string, so neither
        # placement's pin survives alone; the union must keep both chars
        # possible at the overlapping position.
        group = _assertions(
            "(declare-const x String)"
            '(assert (str.contains x "ab"))'
        )
        domains = implied_domains("x", group, 3)
        assert domains[1] is not None
        assert domains[1] >= frozenset("ab")

    def test_conflicting_assertions_return_none_not_unsat(self):
        # Propagation conflicts must *skip pruning*, never decide unsat:
        # the compiled length may rest on lower bounds.
        group = _assertions(
            "(declare-const x String)"
            '(assert (= x "aa"))(assert (= x "bb"))'
        )
        assert implied_domains("x", group, 2) is None

    def test_infeasible_assertion_returns_none(self):
        # A prefix longer than the candidate length has no placement.
        group = _assertions(
            '(declare-const x String)(assert (str.prefixof "abc" x))'
        )
        assert implied_domains("x", group, 2) is None

    def test_unconstrained_positions_stay_none(self):
        group = _assertions(
            "(declare-const x String)(assert (= (str.len x) 3))"
        )
        domains = implied_domains("x", group, 3)
        assert domains == [None, None, None]


# --------------------------------------------------------------------- #
# implied_bit_clamps
# --------------------------------------------------------------------- #


class TestImpliedBitClamps:
    def test_singleton_domain_clamps_all_seven_bits(self):
        clamps = implied_bit_clamps([frozenset("a")])
        bits = char_to_bits("a")
        assert clamps == {
            variable_index(0, b): int(bits[b]) for b in range(CHAR_BITS)
        }

    def test_multi_char_domain_clamps_agreeing_bits_only(self):
        clamps = implied_bit_clamps([frozenset("ab")])
        rows = [char_to_bits("a"), char_to_bits("b")]
        for bit in range(CHAR_BITS):
            values = {int(rows[0][bit]), int(rows[1][bit])}
            if len(values) == 1:
                assert clamps[variable_index(0, bit)] == values.pop()
            else:
                assert variable_index(0, bit) not in clamps
        assert 0 < len(clamps) < CHAR_BITS

    def test_none_and_empty_domains_contribute_nothing(self):
        assert implied_bit_clamps([None, frozenset()]) == {}

    def test_positions_map_to_global_indices(self):
        clamps = implied_bit_clamps([None, frozenset("z")])
        assert set(clamps) == {
            variable_index(1, b) for b in range(CHAR_BITS)
        }


# --------------------------------------------------------------------- #
# expand_states
# --------------------------------------------------------------------- #


class TestExpandStates:
    def test_reinserts_clamped_columns(self):
        reduced = np.array([[1, 0], [0, 1]], dtype=np.int8)
        expanded = expand_states(reduced, {1: 1, 3: 0}, 4)
        np.testing.assert_array_equal(
            expanded, [[1, 1, 0, 0], [0, 1, 1, 0]]
        )

    def test_roundtrips_encode_string(self):
        bits = encode_string("hi")
        clamps = {i: int(bits[i]) for i in range(7)}  # clamp first char
        reduced = bits[7:][np.newaxis, :]
        expanded = expand_states(reduced, clamps, len(bits))
        np.testing.assert_array_equal(expanded[0], bits)

    def test_rejects_wrong_reduced_width(self):
        with pytest.raises(ValueError):
            expand_states(np.zeros((1, 3), dtype=np.int8), {0: 1}, 3)

    def test_rejects_out_of_range_clamp_index(self):
        with pytest.raises(ValueError):
            expand_states(np.zeros((1, 2), dtype=np.int8), {5: 1}, 3)


# --------------------------------------------------------------------- #
# the engine, end to end
# --------------------------------------------------------------------- #


class TestRefineSolve:
    def test_equality_is_fully_determined(self):
        solver = _solver(
            '(declare-const x String)(assert (= x "hello"))(check-sat)'
        )
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model == {"x": "hello"}
        stats = solver.last_refine_stats
        assert stats.determined == 1
        assert stats.pruned_bits == 35
        assert stats.qubo_variables == [0]
        assert stats.fallbacks == 0

    def test_prefix_suffix_reduces_qubo(self):
        solver = _solver(
            "(declare-const x String)"
            "(assert (= (str.len x) 4))"
            '(assert (str.prefixof "ab" x))'
            '(assert (str.suffixof "d" x))'
            "(check-sat)"
        )
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model["x"].startswith("ab")
        assert result.model["x"].endswith("d")
        stats = solver.last_refine_stats
        # 3 of 4 positions pinned: 21 of 28 bits clamped per anneal.
        assert stats.qubo_variables[0] == 7
        assert stats.full_variables[0] == 28
        assert stats.pruned_bits >= 21

    def test_aux_bits_never_clamped(self):
        # The disequality formulation carries ancilla bits beyond the
        # string prefix; only string bits may be clamped.
        solver = _solver(
            "(declare-const y String)"
            '(assert (= y "spin"))'
            '(assert (not (= y "spun")))'
            "(check-sat)"
        )
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model == {"y": "spin"}
        stats = solver.last_refine_stats
        for reduced, full in zip(stats.qubo_variables, stats.full_variables):
            assert reduced >= full - 28  # at most the 28 string bits go

    def test_ground_false_stays_unsat(self):
        solver = _solver('(assert (= "a" "b"))(check-sat)')
        assert solver.check_sat().status is SolveStatus.UNSAT

    def test_zero_rounds_falls_back_immediately(self):
        solver = _solver(
            '(declare-const x String)(assert (= x "ok"))(check-sat)',
            refine_max_rounds=0,
        )
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        stats = solver.last_refine_stats
        assert stats.rounds == 0
        assert stats.fallbacks == 1

    def test_attempts_run_through_the_driver(self, monkeypatch):
        # Every refine attempt is one StringQuboSolver.solve call with the
        # round's clamps and an engine-drawn seed, so the driver's own
        # stream stays untouched for the fallback.
        solver = _solver(
            "(declare-const x String)"
            "(assert (= (str.len x) 3))"
            '(assert (str.prefixof "ab" x))'
            "(check-sat)"
        )
        driver = solver._driver
        calls = []
        original = driver.solve

        def spy(formulation, **kwargs):
            calls.append(kwargs)
            return original(formulation, **kwargs)

        monkeypatch.setattr(driver, "solve", spy)
        state = driver._rng.bit_generator.state
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        stats = solver.last_refine_stats
        assert stats.fallbacks == 0
        assert len(calls) == stats.anneals >= 1
        assert all(len(call["clamps"]) == 14 and "seed" in call for call in calls)
        assert driver._rng.bit_generator.state == state

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            QuantumSMTSolver(strategy="cegar")

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            QuantumSMTSolver(strategy="refine", refine_max_rounds=-1)
        with pytest.raises(ValueError):
            RefinementEngine(QuantumSMTSolver(**FAST), max_rounds=-1)

    def test_stats_to_dict_roundtrip(self):
        stats = RefineStats(rounds=2, pruned_bits=5, qubo_variables=[3, 3])
        d = stats.to_dict()
        assert d["rounds"] == 2
        assert d["pruned_bits"] == 5
        assert d["qubo_variables"] == [3, 3]

    def test_metrics_counters_emitted(self):
        metrics = MetricsRegistry()
        solver = _solver(
            '(declare-const x String)(assert (= x "go"))(check-sat)',
            metrics=metrics,
        )
        solver.check_sat()
        counters = metrics.snapshot().counters
        assert counters["refine.solves"] == 1
        assert counters["refine.rounds"] == 1
        assert counters["refine.pruned_bits"] == 14
        assert counters["refine.determined"] == 1


class TestRefineThroughSession:
    def test_session_refine_strategy_sat(self):
        session = SolverSession(SolveSpec(strategy="refine", **FAST))
        session.declare_const("x")
        session.assert_term(ast.Eq(ast.StrVar("x"), ast.StrLit("qbit")))
        result = session.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model == {"x": "qbit"}

    def test_session_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            SolverSession(SolveSpec(strategy="quantum-leap"))

    def test_push_pop_with_refine(self):
        session = SolverSession(SolveSpec(strategy="refine", **FAST))
        session.declare_const("x")
        session.assert_term(ast.Eq(ast.Length(ast.StrVar("x")), ast.IntLit(2)))
        session.push()
        session.assert_term(ast.Eq(ast.StrVar("x"), ast.StrLit("no")))
        assert session.check_sat().model == {"x": "no"}
        session.pop()
        assert session.check_sat().status is SolveStatus.SAT


class TestWarmStarts:
    """Clamp-aware warm starts: caller seeds and cross-round reuse."""

    SCRIPT = (
        "(declare-const x String)"
        "(assert (= (str.len x) 3))"
        '(assert (str.prefixof "ab" x))'
        "(check-sat)"
    )

    def test_caller_supplied_warm_states_accepted(self):
        solver = _solver(self.SCRIPT)
        warm = {"x": encode_string("abc")}
        result = solver.check_sat(warm_states=warm)
        assert result.status is SolveStatus.SAT
        assert result.model["x"].startswith("ab")

    def test_warm_state_projected_onto_surviving_bits(self, monkeypatch):
        # The initial_states handed to the sampler must have exactly the
        # reduced width (full bits minus clamped bits).
        import repro.smt.refine as refine_mod

        seen = []
        solver = _solver(self.SCRIPT)
        engine = RefinementEngine(solver, max_rounds=1)
        sampler = solver._driver.sampler
        original = sampler.sample_model

        def spy(model, **params):
            if "initial_states" in params:
                seen.append(
                    (model.num_variables, len(params["initial_states"]))
                )
            return original(model, **params)

        monkeypatch.setattr(sampler, "sample_model", spy)
        problem = solver.compile()
        result = engine.solve(problem, warm_states={"x": encode_string("abc")})
        assert result.status is SolveStatus.SAT
        assert seen, "warm state was never handed to the sampler"
        for reduced_width, warm_width in seen:
            assert warm_width == reduced_width

    def test_short_warm_state_zero_padded(self):
        solver = _solver(self.SCRIPT)
        # One character's worth of bits for a 21-bit model: the engine
        # pads with zeros instead of failing.
        result = solver.check_sat(warm_states={"x": encode_string("a")})
        assert result.status is SolveStatus.SAT

    @pytest.mark.parametrize("strategy", ["direct", "refine"])
    def test_short_warm_state_padded_on_both_strategies(self, strategy):
        # A 14-bit warm state for the 21-bit (= x "abc") model: both
        # strategies fit it to the model instead of failing every attempt.
        solver = _solver(
            '(declare-const x String)(assert (= x "abc"))(check-sat)',
            strategy=strategy,
        )
        result = solver.check_sat(warm_states={"x": np.zeros(14, dtype=np.int8)})
        assert result.status is SolveStatus.SAT
        assert result.model == {"x": "abc"}

    def test_fallback_reattaches_caller_warm_states(self, monkeypatch):
        import repro.smt.refine as refine_mod

        solver = _solver(self.SCRIPT, refine_max_rounds=0)
        engine = RefinementEngine(solver, max_rounds=0)
        captured = {}
        original = solver._solve_direct

        def spy(problem, **solve_params):
            captured.update(solve_params)
            return original(problem, **solve_params)

        monkeypatch.setattr(solver, "_solve_direct", spy)
        warm = {"x": encode_string("abc")}
        result = engine.solve(solver.compile(), warm_states=warm)
        assert result.status is SolveStatus.SAT
        assert "warm_states" in captured


class TestUnsoundClampCrossCheck:
    def test_mispinned_domain_raises_typed_error(self, monkeypatch):
        # Force the propagator to derive a wrong fact: position 0 pinned
        # to "z" although the hard constraints demand "ab...". The round
        # model fails verification, the fallback finds the real model,
        # and the cross-check must refuse to return it silently.
        import repro.smt.refine as refine_mod
        from repro.smt.refine import UnsoundPropagationError

        def lying_domains(variable, assertions, length):
            return [frozenset("z")] + [None] * (length - 1)

        monkeypatch.setattr(refine_mod, "implied_domains", lying_domains)
        solver = _solver(
            "(declare-const x String)"
            "(assert (= (str.len x) 2))"
            '(assert (= x "ab"))'
            "(check-sat)"
        )
        with pytest.raises(UnsoundPropagationError, match="unsound"):
            solver.check_sat()

    def test_unsound_counter_emitted(self, monkeypatch):
        import repro.smt.refine as refine_mod
        from repro.smt.refine import UnsoundPropagationError

        def lying_domains(variable, assertions, length):
            return [frozenset("z")] + [None] * (length - 1)

        monkeypatch.setattr(refine_mod, "implied_domains", lying_domains)
        metrics = MetricsRegistry()
        solver = _solver(
            '(declare-const x String)(assert (= x "ab"))(check-sat)',
            metrics=metrics,
        )
        with pytest.raises(UnsoundPropagationError):
            solver.check_sat()
        assert metrics.snapshot().counters["refine.unsound"] == 1

    def test_sound_clamps_never_trip_the_guard(self):
        solver = _solver(
            "(declare-const x String)"
            "(assert (= (str.len x) 3))"
            '(assert (str.prefixof "ab" x))'
            "(check-sat)"
        )
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model["x"].startswith("ab")
