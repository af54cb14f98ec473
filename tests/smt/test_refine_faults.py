"""Fault injection for the refinement loop's soundness guards.

Three failure families, each pinned to its contracted surface:

* an **unsound propagator** (wrong "implied" bits injected at the
  monkeypatchable :func:`repro.smt.refine.implied_bit_clamps` seam) must
  be caught by the model cross-check and surfaced as the typed
  :class:`~repro.smt.refine.UnsoundPropagationError` — never a silent
  ``unsat``/wrong ``sat``;
* **lemma-push failures** (the extended conjunction failing to
  recompile) must degrade to the unrefined fallback, accounted under
  ``refine.lemma_push_failures`` + ``refine.fallbacks``;
* **round-budget exhaustion** with live lemmas must likewise fall back
  and still answer correctly.
"""

from types import SimpleNamespace

import pytest

import repro.smt.refine as refine_mod
from repro.service.metrics import MetricsRegistry
from repro.smt.refine import UnsoundPropagationError
from repro.smt.compiler import CompilationError
from repro.smt.solver import QuantumSMTSolver, SmtResult
from repro.smt.status import SolveStatus

FAST = dict(num_reads=24, sampler_params={"num_sweeps": 200}, seed=7)

SCRIPT = '(declare-const x String)(assert (= x "ab"))(check-sat)'


def _solver(metrics=None, **overrides):
    kwargs = dict(FAST, strategy="refine", metrics=metrics)
    kwargs.update(overrides)
    return QuantumSMTSolver.from_script_text(SCRIPT, **kwargs)


class TestUnsoundPropagation:
    def test_wrong_clamp_raises_typed_error(self, monkeypatch):
        # 'a' has MSB 1 (0x61 = 1100001); claim bit 0 of position 0 is 0.
        # Every refined round then anneals in a subspace excluding the
        # real model; the fallback finds "ab", and the cross-check must
        # catch the contradiction instead of answering quietly.
        real = refine_mod.implied_bit_clamps

        def unsound(domains):
            clamps = dict(real(domains))
            if clamps:
                clamps[0] = 1 - clamps.get(0, 1)
            return clamps

        monkeypatch.setattr(refine_mod, "implied_bit_clamps", unsound)
        metrics = MetricsRegistry()
        solver = _solver(metrics=metrics, refine_max_rounds=1)
        with pytest.raises(UnsoundPropagationError) as excinfo:
            solver.check_sat()
        assert "unsound" in str(excinfo.value)
        assert metrics.snapshot().counters["refine.unsound"] == 1

    def test_never_silent_unsat(self, monkeypatch):
        # Same injection; the loop must never convert a propagation
        # artifact into an unsat (or a wrong sat) answer.
        real = refine_mod.implied_bit_clamps
        monkeypatch.setattr(
            refine_mod,
            "implied_bit_clamps",
            lambda domains: {
                **real(domains),
                0: 1 - real(domains).get(0, 1),
            },
        )
        solver = _solver(refine_max_rounds=2)
        try:
            result = solver.check_sat()
        except UnsoundPropagationError:
            return  # the contracted loud failure
        assert result.status is not SolveStatus.UNSAT
        if result.status is SolveStatus.SAT:
            assert result.model == {"x": "ab"}

    def test_sound_run_does_not_trip_the_guard(self):
        metrics = MetricsRegistry()
        result = _solver(metrics=metrics).check_sat()
        assert result.status is SolveStatus.SAT
        assert "refine.unsound" not in metrics.snapshot().counters


class TestLemmaPushFailure:
    def test_push_failure_falls_back_with_accounting(self, monkeypatch):
        # A round that yields a provably-bad witness triggers a lemma
        # push; the recompile refusing it must break to the fallback.
        def failed_round(problem, assertions, solve_variable, *, attempts):
            return SmtResult(
                status=SolveStatus.UNKNOWN,
                solve_results={"x": SimpleNamespace(output="zz")},
                reason="injected failed round",
            )

        def refuse_push(assertions, **kwargs):
            raise CompilationError("injected push failure")

        monkeypatch.setattr(refine_mod, "decide", failed_round)
        monkeypatch.setattr(refine_mod, "compile_assertions", refuse_push)
        metrics = MetricsRegistry()
        result = _solver(metrics=metrics).check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model == {"x": "ab"}
        counters = metrics.snapshot().counters
        assert counters["refine.lemma_push_failures"] == 1
        assert counters["refine.fallbacks"] == 1
        assert counters.get("refine.lemmas", 0) == 0


class TestRoundBudgetExhaustion:
    def test_live_lemmas_every_round_still_falls_back(self, monkeypatch):
        # Each round produces a fresh bogus witness, so lemmas keep
        # flowing until the budget runs out; the answer must come from
        # the guaranteed fallback.
        calls = {"n": 0}

        def bogus_round(problem, assertions, solve_variable, *, attempts):
            calls["n"] += 1
            return SmtResult(
                status=SolveStatus.UNKNOWN,
                solve_results={
                    "x": SimpleNamespace(output=f"z{calls['n']}")
                },
                reason="injected failed round",
            )

        monkeypatch.setattr(refine_mod, "decide", bogus_round)
        metrics = MetricsRegistry()
        solver = _solver(metrics=metrics, refine_max_rounds=3)
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        assert result.model == {"x": "ab"}
        stats = solver.last_refine_stats
        assert stats.rounds == 3
        assert stats.lemmas == 3
        assert stats.fallbacks == 1
        assert metrics.snapshot().counters["refine.fallbacks"] == 1

    def test_unproductive_round_breaks_early(self, monkeypatch):
        # No decoded witness at all -> no lemma -> a single round, then
        # fallback (the budget is an upper bound, not a treadmill).
        def empty_round(problem, assertions, solve_variable, *, attempts):
            return SmtResult(
                status=SolveStatus.UNKNOWN,
                reason="injected: nothing decoded",
            )

        monkeypatch.setattr(refine_mod, "decide", empty_round)
        solver = _solver(refine_max_rounds=5)
        result = solver.check_sat()
        assert result.status is SolveStatus.SAT
        stats = solver.last_refine_stats
        assert stats.rounds == 1
        assert stats.fallbacks == 1

    def test_fallback_result_matches_direct(self):
        # Budget 0: the refined solver must answer bit-identically to a
        # direct solver at the same seed (the fallback identity).
        refined = _solver(refine_max_rounds=0).check_sat()
        direct = QuantumSMTSolver.from_script_text(
            SCRIPT, strategy="direct", **FAST
        ).check_sat()
        assert str(refined.status) == str(direct.status)
        assert refined.model == direct.model
        assert {
            n: r.energy for n, r in refined.solve_results.items()
        } == {n: r.energy for n, r in direct.solve_results.items()}
