"""The refinement loop's equivalence properties (DESIGN.md Appendix I).

Two contracts, hypothesis-driven over random small conjunctions:

* **Soundness/compatibility** — a ``strategy="refine"`` solve never
  answers *worse* than the direct pipeline: statuses agree except that
  refinement may upgrade ``unknown`` to a verified ``sat`` (the reduced
  subspace is easier to anneal); every ``sat`` model is re-audited here
  under the concrete semantics (:func:`repro.smt.theory.eval_formula`).
* **Bit-identity at ``refine_max_rounds=0``** — with a zero round budget
  the engine must answer exactly what the direct pipeline answers at the
  same seed: same status, same model, same per-variable energies, with
  no rounding. Pinned across the serial, thread-pool and process-pool
  backends (the engine's private RNG stream never advances the solver's
  driver, so the guaranteed fallback *is* the direct solve).
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.solver import QuantumSMTSolver
from repro.smt.theory import eval_formula

from tests.server.conftest import FAST_SOLVER

pytestmark = [pytest.mark.slow]

#: Fast settings: the suite runs many tiny solves.
PROP_SOLVER = dict(num_reads=16, sampler_params={"num_sweeps": 150}, seed=7)

_WORDS = ("a", "b", "ab", "ba", "abc")

#: Assertion pool biased toward domain-prunable shapes (equalities,
#: prefixes, suffixes) so the refined path actually clamps bits, plus
#: length/contains/disequality for the unprunable and aux-bit regimes.
_assert_terms = st.one_of(
    st.sampled_from(_WORDS).map(
        lambda w: ast.Eq(ast.StrVar("x"), ast.StrLit(w))
    ),
    st.integers(min_value=1, max_value=3).map(
        lambda n: ast.Eq(ast.Length(ast.StrVar("x")), ast.IntLit(n))
    ),
    st.sampled_from(["a", "b", "ab"]).map(
        lambda w: ast.PrefixOf(ast.StrLit(w), ast.StrVar("x"))
    ),
    st.sampled_from(["a", "b", "ba"]).map(
        lambda w: ast.SuffixOf(ast.StrLit(w), ast.StrVar("x"))
    ),
    st.sampled_from(["a", "b"]).map(
        lambda c: ast.Contains(ast.StrVar("x"), ast.StrLit(c))
    ),
    st.sampled_from(_WORDS).map(
        lambda w: ast.Not(ast.Eq(ast.StrVar("x"), ast.StrLit(w)))
    ),
)

_conjunctions = st.lists(_assert_terms, min_size=1, max_size=3)


def _solve(assertions, **kwargs):
    config = dict(PROP_SOLVER)
    config.update(kwargs)
    solver = QuantumSMTSolver(**config)
    solver.declare_const("x")
    for term in assertions:
        solver.add_assertion(term)
    return solver.check_sat()


def fingerprint(result):
    """Status, model and exact per-variable energies — no rounding."""
    return (
        str(result.status),
        dict(result.model),
        {name: r.energy for name, r in result.solve_results.items()},
    )


class TestStatusAndModelSoundness:
    @given(assertions=_conjunctions, seed=st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_refine_never_worse_and_models_audit(self, assertions, seed):
        direct = _solve(assertions, seed=seed, strategy="direct")
        refined = _solve(assertions, seed=seed, strategy="refine")
        # Refinement may only *upgrade* unknown -> verified sat; it can
        # never flip sat/unsat or degrade a direct answer.
        assert str(refined.status) == str(direct.status) or (
            str(refined.status) == "sat" and str(direct.status) == "unknown"
        )
        if str(refined.status) == "sat":
            for term in assertions:
                assert eval_formula(term, refined.model)


class TestSerialBitIdentity:
    @given(assertions=_conjunctions, seed=st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_zero_rounds_equals_direct(self, assertions, seed):
        direct = _solve(assertions, seed=seed, strategy="direct")
        refined = _solve(
            assertions, seed=seed, strategy="refine", refine_max_rounds=0
        )
        assert fingerprint(refined) == fingerprint(direct)


def _pooled_bit_identity(make_pool, max_examples):
    """Refined pool at rounds=0 vs a direct pool, same assertions."""
    direct_pool = make_pool("direct", 4)
    refined_pool = make_pool("refine", 0)
    try:
        loop = asyncio.new_event_loop()
        try:

            @given(assertions=_conjunctions)
            @settings(max_examples=max_examples, deadline=None)
            def inner(assertions):
                direct = loop.run_until_complete(
                    direct_pool.solve(assertions)
                )
                refined = loop.run_until_complete(
                    refined_pool.solve(assertions)
                )
                assert fingerprint(refined.result) == fingerprint(
                    direct.result
                )

            inner()
        finally:
            loop.close()
    finally:
        direct_pool.shutdown()
        refined_pool.shutdown()


class TestThreadBackendBitIdentity:
    def test_refined_pool_rounds0_equals_direct_pool(self):
        from repro.server.workers import SolverWorkerPool

        _pooled_bit_identity(
            lambda strategy, rounds: SolverWorkerPool(
                SolveSpec(
                    strategy=strategy, refine_max_rounds=rounds, **FAST_SOLVER
                ),
                workers=2,
            ),
            max_examples=12,
        )


class TestProcessBackendBitIdentity:
    def test_refined_pool_rounds0_equals_direct_pool(self):
        from repro.server.procpool import ProcessSolverBackend

        _pooled_bit_identity(
            lambda strategy, rounds: ProcessSolverBackend(
                SolveSpec(
                    strategy=strategy, refine_max_rounds=rounds, **FAST_SOLVER
                ),
                workers=2,
            ),
            max_examples=8,
        )
