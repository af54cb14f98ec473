"""Unit tests for :mod:`repro.smt.session` — the incremental frame stack.

The bit-identity *property* (session ≡ fresh solver at every depth) lives
in ``tests/properties/test_property_session.py``; this file pins the
mechanics: frame bookkeeping, the per-state result memo, the shared
compile cache, warm starts, fragment parsing, and the script walkers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.cache import CompileCache
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.parser import parse_script
from repro.smt.session import (
    SessionError,
    SolverSession,
    iter_check_states,
)
from repro.smt.solver import QuantumSMTSolver
from repro.smt.status import SolveStatus

#: Deterministic, fast solver settings for every session in this file.
FAST = dict(num_reads=24, sampler_params={"num_sweeps": 200}, seed=7)

PUSH_POP_SCRIPT = """
(declare-const x String)
(assert (= (str.len x) 2))
(check-sat)
(push 1)
(assert (= x "aa"))
(assert (= x "bb"))
(check-sat)
(pop 1)
(check-sat)
"""


def make_session(**options) -> SolverSession:
    return SolverSession(SolveSpec(**FAST), **options)


def eq(var: str, word: str) -> ast.Term:
    return ast.Eq(ast.StrVar(var), ast.StrLit(word))


class TestFrameStack:
    def test_push_pop_depth(self):
        session = make_session()
        assert session.depth == 0
        assert session.push() == 1
        assert session.push(2) == 3
        assert session.pop(2) == 1
        assert session.pop() == 0

    def test_pop_below_zero_raises(self):
        session = make_session()
        session.push()
        with pytest.raises(SessionError, match="exceeds the assertion-stack"):
            session.pop(2)
        # The failed pop must not have consumed any frames.
        assert session.depth == 1

    def test_negative_levels_raise(self):
        session = make_session()
        with pytest.raises(SessionError):
            session.push(-1)
        with pytest.raises(SessionError):
            session.pop(-1)

    def test_flattened_is_oldest_first_across_frames(self):
        session = make_session()
        session.declare_const("x")
        session.assert_term(eq("x", "a"))
        session.push()
        session.assert_term(eq("x", "b"))
        assert session.flattened() == [eq("x", "a"), eq("x", "b")]
        session.pop()
        assert session.flattened() == [eq("x", "a")]

    def test_declarations_persist_across_pops(self):
        session = make_session()
        session.push()
        session.declare_const("x")
        session.pop()
        assert "x" in session.declarations

    def test_conflicting_redeclaration_raises(self):
        session = make_session()
        session.declare_const("x")
        session.declare_const("x")  # same sort: idempotent
        with pytest.raises(SessionError, match="re-declaration"):
            session.declare_const("x", sort=object())


class TestAssertText:
    def test_fragment_inherits_session_declarations(self):
        session = make_session()
        session.declare_const("x")
        added = session.assert_text('(assert (= x "hi"))')
        assert added == 1
        assert session.flattened() == [eq("x", "hi")]

    def test_fragment_may_declare_new_constants(self):
        session = make_session()
        added = session.assert_text(
            '(declare-const y String)(assert (= y "a"))'
        )
        assert added == 1
        assert "y" in session.declarations

    def test_fragment_rejects_control_commands(self):
        session = make_session()
        with pytest.raises(SessionError, match="only declare-const/assert"):
            session.assert_text("(check-sat)")
        with pytest.raises(SessionError, match="only declare-const/assert"):
            session.assert_text("(push 1)")


class TestCheckSat:
    def test_simple_sat_with_model(self):
        session = make_session()
        session.assert_text('(declare-const x String)(assert (= x "hi"))')
        result = session.check_sat()
        assert result.status is SolveStatus.SAT
        assert session.get_model() == {"x": "hi"}

    def test_repush_identical_frame_is_a_memo_hit(self):
        session = make_session()
        session.assert_text(
            '(declare-const x String)(assert (= (str.len x) 2))'
        )
        base = session.check_sat()
        session.push()
        session.assert_text('(assert (= x "ab"))')
        pushed = session.check_sat()
        session.pop()
        # Popping invalidates nothing; both earlier states answer from
        # the memo without recompiling or re-annealing.
        assert session.check_sat() == base
        session.push()
        session.assert_text('(assert (= x "ab"))')
        assert session.check_sat() == pushed
        assert session.stats.checks == 4
        assert session.stats.memo_hits == 2
        assert session.stats.compile_misses == 2
        assert session.stats.compile_hits == 0

    def test_shared_cache_hits_across_sessions(self):
        cache = CompileCache(maxsize=16)
        first = make_session(cache=cache)
        first.assert_text('(declare-const x String)(assert (= x "ab"))')
        first.check_sat()
        second = make_session(cache=cache)
        second.assert_text('(declare-const x String)(assert (= x "ab"))')
        result = second.check_sat()
        assert result.status is SolveStatus.SAT
        assert second.stats.compile_hits == 1
        assert second.stats.compile_misses == 0

    def test_compilation_error_memoized_as_unknown(self):
        session = make_session()
        # Conflicting length facts make per-conjunction length inference
        # impossible — the compiler refuses, the session answers unknown.
        session.assert_text(
            "(declare-const x String)"
            "(assert (= (str.len x) 1))(assert (= (str.len x) 2))"
        )
        result = session.check_sat()
        assert result.status is SolveStatus.UNKNOWN
        assert "compilation" in result.reason
        again = session.check_sat()
        assert again == result
        assert session.stats.memo_hits == 1

    def test_get_model_requires_a_check_first(self):
        session = make_session()
        with pytest.raises(RuntimeError, match="check_sat"):
            session.get_model()

    def test_mutations_invalidate_last_result(self):
        session = make_session()
        session.assert_text('(declare-const x String)(assert (= x "a"))')
        session.check_sat()
        session.assert_term(eq("x", "b"))
        with pytest.raises(RuntimeError, match="check_sat"):
            session.get_model()


class TestSeedContract:
    def test_live_rng_seed_rejected(self):
        # The delta contract needs a reproducible seed: a live generator
        # changes every compile key and answer between re-pushes.
        with pytest.raises(TypeError, match="reproducible seed"):
            SolverSession(SolveSpec(**dict(FAST, seed=np.random.default_rng(0))))


class TestWarmStart:
    def test_warm_model_reverified_on_compatible_extension(self):
        session = make_session(warm_start=True)
        session.assert_text(
            '(declare-const x String)(assert (= x "ab"))'
        )
        first = session.check_sat()
        assert first.status is SolveStatus.SAT
        session.push()
        # The previous model x="ab" already satisfies the new conjunct.
        session.assert_text("(assert (= (str.len x) 2))")
        second = session.check_sat()
        assert second.status is SolveStatus.SAT
        assert second.model == {"x": "ab"}
        assert session.stats.warm_hits == 1
        assert "warm-start" in second.reason

    def test_warm_model_rejected_when_violated(self):
        session = make_session(warm_start=True)
        session.assert_text(
            '(declare-const x String)(assert (= (str.len x) 2))'
        )
        first = session.check_sat()
        assert first.status is SolveStatus.SAT
        witness = first.model["x"]
        session.push()
        # Contradicts whatever the previous model was: no warm hit.
        session.assert_text(f'(assert (not (= x "{witness}")))')
        session.check_sat()
        assert session.stats.warm_hits == 0

    def test_cold_sessions_never_warm_hit(self):
        session = make_session()  # warm_start defaults to False
        session.assert_text('(declare-const x String)(assert (= x "ab"))')
        session.check_sat()
        session.push()
        session.assert_text("(assert (= (str.len x) 2))")
        session.check_sat()
        assert session.stats.warm_hits == 0


class TestScriptExecution:
    def test_run_script_text_answers_each_check(self):
        session = make_session()
        results = session.run_script_text(PUSH_POP_SCRIPT)
        statuses = [result.status for result in results]
        assert statuses[0] is SolveStatus.SAT
        assert statuses[1] is not SolveStatus.SAT  # contradictory frame
        assert statuses[2] is SolveStatus.SAT
        # Query 3 re-checks the query-1 state: answered from the memo.
        assert session.stats.memo_hits == 1
        assert results[2] == results[0]

    def test_exit_stops_execution(self):
        session = make_session()
        results = session.run_script_text(
            '(declare-const x String)(assert (= x "a"))(check-sat)'
            "(exit)(check-sat)"
        )
        assert len(results) == 1


class TestIterCheckStates:
    def test_states_match_manual_stack_walk(self):
        script = parse_script(PUSH_POP_SCRIPT)
        states = list(iter_check_states(script))
        assert [index for index, _ in states] == [0, 1, 2]
        length_fact = script.assertions[0]
        assert states[0][1] == [length_fact]
        assert len(states[1][1]) == 3
        assert states[2][1] == [length_fact]

    def test_over_pop_raises_session_error(self):
        script = parse_script(
            "(declare-const x String)(push 1)(pop 2)(check-sat)"
        )
        with pytest.raises(SessionError, match="exceeds the assertion-stack"):
            list(iter_check_states(script))

    def test_flattened_state_reproduces_fresh_solver_input(self):
        # The yielded state is exactly what a fresh solver needs: feed it
        # back and get the same answer the session gives.
        script = parse_script(PUSH_POP_SCRIPT)
        session = make_session()
        session_results = session.run_script(script)
        for index, flattened in iter_check_states(script):
            solver = QuantumSMTSolver(**FAST)
            solver.declarations = dict(script.declarations)
            solver.assertions = list(flattened)
            assert solver.check_sat().status is session_results[index].status
