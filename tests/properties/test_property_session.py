"""The incremental-≡-from-scratch property (DESIGN.md Appendix H).

For random push/assert/pop/check interleavings, a
:class:`~repro.smt.session.SolverSession` answer at every frame depth
must be **bit-identical** to a fresh solve of the flattened frame stack
at the same seed — same status, same model, same per-variable energies.
Three backends pin the same contract:

* **serial** — fresh :class:`~repro.smt.solver.QuantumSMTSolver` per
  check (120 interleavings, drawn seeds);
* **thread** — a shared :class:`~repro.server.workers.SolverWorkerPool`
  answers the flattened stack (40 interleavings);
* **process** — a shared
  :class:`~repro.server.procpool.ProcessSolverBackend` ditto
  (40 interleavings).

200 interleavings total. The session's memo/compile-cache fast paths are
exercised *by construction*: pops followed by checks revisit earlier
states, so a fraction of the compared answers come from the memo — and
must still equal the from-scratch solve exactly.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.session import SessionError, SolverSession
from repro.smt.solver import QuantumSMTSolver

from tests.server.conftest import FAST_SOLVER

pytestmark = [pytest.mark.slow]

#: Faster than FAST_SOLVER: the suite runs hundreds of tiny solves.
PROP_SOLVER = dict(num_reads=16, sampler_params={"num_sweeps": 150}, seed=7)

_WORDS = ("a", "b", "ab", "ba", "abc")

_assert_terms = st.one_of(
    st.sampled_from(_WORDS).map(
        lambda w: ast.Eq(ast.StrVar("x"), ast.StrLit(w))
    ),
    st.integers(min_value=1, max_value=3).map(
        lambda n: ast.Eq(ast.Length(ast.StrVar("x")), ast.IntLit(n))
    ),
    st.sampled_from(["a", "b"]).map(
        lambda c: ast.Contains(ast.StrVar("x"), ast.StrLit(c))
    ),
    st.sampled_from(_WORDS).map(
        lambda w: ast.Not(ast.Eq(ast.StrVar("x"), ast.StrLit(w)))
    ),
)

#: One random session interleaving; a trailing check is always appended
#: by the driver so every example compares at least one answer.
_interleavings = st.lists(
    st.one_of(
        st.just(("push", None)),
        st.just(("pop", None)),
        st.just(("check", None)),
        _assert_terms.map(lambda term: ("assert", term)),
    ),
    min_size=3,
    max_size=9,
)


def fingerprint(result):
    """Everything the bit-identity contract pins — no rounding.

    ``reason`` is deliberately excluded: it is human-facing prose and the
    worker pools phrase compile failures differently from the session.
    """
    return (
        str(result.status),
        dict(result.model),
        {name: r.energy for name, r in result.solve_results.items()},
    )


def drive(session: SolverSession, interleaving, on_check) -> int:
    """Apply one interleaving; calls *on_check* with each session answer.

    Pops at depth 0 are asserted to raise (the contract's error path) and
    then skipped, so every generated sequence is exercised in full.
    """
    session.declare_const("x")
    # A base-frame fact keeps the flattened conjunction non-empty at
    # every depth (pops cannot empty frame 0).
    session.assert_term(
        ast.Eq(ast.Length(ast.StrVar("x")), ast.IntLit(2))
    )
    checks = 0
    for op, payload in list(interleaving) + [("check", None)]:
        if op == "push":
            session.push()
        elif op == "pop":
            if session.depth == 0:
                with pytest.raises(SessionError):
                    session.pop()
            else:
                session.pop()
        elif op == "assert":
            session.assert_term(payload)
        else:
            on_check(session.check_sat(), list(session.flattened()))
            checks += 1
    return checks


class TestSerialEquivalence:
    @given(interleaving=_interleavings, seed=st.integers(0, 2**20))
    @settings(max_examples=120, deadline=None)
    def test_session_equals_fresh_solver_at_every_depth(
        self, interleaving, seed
    ):
        config = dict(PROP_SOLVER, seed=seed)
        session = SolverSession(SolveSpec(**config))

        def compare(result, flattened):
            solver = QuantumSMTSolver(**config)
            solver.declarations = dict(session.declarations)
            solver.assertions = flattened
            assert fingerprint(result) == fingerprint(solver.check_sat())

        assert drive(session, interleaving, compare) >= 1


def _pooled_equivalence(make_pool, max_examples):
    """Shared driver: session answers vs one long-lived worker pool."""
    pool = make_pool()
    try:
        loop = asyncio.new_event_loop()
        try:

            @given(interleaving=_interleavings)
            @settings(max_examples=max_examples, deadline=None)
            def inner(interleaving):
                session = SolverSession(SolveSpec(**FAST_SOLVER))

                def compare(result, flattened):
                    outcome = loop.run_until_complete(pool.solve(flattened))
                    assert fingerprint(result) == fingerprint(outcome.result)

                assert drive(session, interleaving, compare) >= 1

            inner()
        finally:
            loop.close()
    finally:
        pool.shutdown()


class TestThreadBackendEquivalence:
    def test_session_equals_thread_pool_answers(self):
        from repro.server.workers import SolverWorkerPool

        _pooled_equivalence(
            lambda: SolverWorkerPool(SolveSpec(**FAST_SOLVER), workers=2),
            max_examples=40,
        )


class TestProcessBackendEquivalence:
    def test_session_equals_process_pool_answers(self):
        from repro.server.procpool import ProcessSolverBackend

        _pooled_equivalence(
            lambda: ProcessSolverBackend(SolveSpec(**FAST_SOLVER), workers=2),
            max_examples=40,
        )
