"""The differential oracle: quantum vs. classical on the same assertions.

The paper's correctness claim (§4.1–§4.12, Table 1) is that the QUBO
formulations *agree with classical string semantics*. This module makes
that claim testable at scale, following the methodology of the SAT/MaxSAT
annealing literature (Bian et al.) and Lin et al.'s quantum bit-vector
solver: run the quantum pipeline and an exact classical reference on the
same conjunction, then classify the pair of outcomes.

Verdict taxonomy
----------------
``AGREE_SAT``
    Both decided sat, and the quantum model was independently re-checked
    against the concrete theory semantics (:func:`repro.smt.theory
    .eval_formula`) — not just trusted from the solver's own verify layer.
``AGREE_UNSAT``
    Both decided unsat.
``SOUNDNESS_BUG``
    The quantum solver is *wrong*: it reported sat with a model that
    violates an assertion, reported sat on an instance the reference
    refutes, or reported unsat on an instance with a verified witness.
    A campaign must end with **zero** of these.
``COMPLETENESS_MISS``
    The quantum solver answered unknown on an instance known to be
    satisfiable (planted witness or reference-found model). Annealing is
    stochastic and incomplete, so misses are *expected at some rate*;
    they are shrunk and tracked, not treated as failures.
``UNRESOLVED``
    Neither side produced a comparable definite answer (e.g. quantum
    unknown on an unsat instance — incompleteness, but no satisfiable
    witness was missed; or the reference itself gave up).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.classical import ClassicalStringSolver
from repro.smt.compiler import CompilationError
from repro.smt.solver import SmtResult
from repro.smt.status import SolveStatus
from repro.smt.theory import TheoryError, eval_formula

__all__ = ["Verdict", "OracleReport", "DifferentialOracle"]


class Verdict(str, enum.Enum):
    """Classification of one quantum-vs-reference comparison."""

    AGREE_SAT = "agree_sat"
    AGREE_UNSAT = "agree_unsat"
    SOUNDNESS_BUG = "soundness_bug"
    COMPLETENESS_MISS = "completeness_miss"
    UNRESOLVED = "unresolved"

    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def is_bug(self) -> bool:
        return self is Verdict.SOUNDNESS_BUG

    @property
    def is_agreement(self) -> bool:
        return self in (Verdict.AGREE_SAT, Verdict.AGREE_UNSAT)


@dataclass
class OracleReport:
    """Outcome of one differential check."""

    verdict: Verdict
    quantum_status: SolveStatus
    reference_status: SolveStatus
    quantum_model: Dict[str, str] = field(default_factory=dict)
    reference_model: Dict[str, str] = field(default_factory=dict)
    reason: str = ""
    cache_hit: bool = False
    #: Assertions re-checked against the quantum model (soundness audit).
    checked_assertions: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (deterministic field order)."""
        return {
            "verdict": self.verdict.value,
            "quantum_status": self.quantum_status.value,
            "reference_status": self.reference_status.value,
            "quantum_model": dict(sorted(self.quantum_model.items())),
            "reference_model": dict(sorted(self.reference_model.items())),
            "reason": self.reason,
            "checked_assertions": self.checked_assertions,
        }

    def __repr__(self) -> str:
        return (
            f"OracleReport({self.verdict.value}, quantum={self.quantum_status.value}, "
            f"reference={self.reference_status.value})"
        )


class DifferentialOracle:
    """Run quantum and reference solvers on one conjunction and classify.

    Parameters
    ----------
    seed:
        Base seed for the quantum side; every :meth:`check` builds a fresh
        :class:`~repro.smt.solver.QuantumSMTSolver` from the oracle's
        :class:`~repro.service.spec.SolveSpec`, so reports are
        deterministic at a fixed seed and independent of call order.
    num_reads, sampler_params, max_attempts, penalty_strength:
        Quantum-solver configuration.
    reference:
        ``"classical"`` (default, the propagation + backtracking baseline)
        or ``"dpllt"`` (the classical solver driven through the DPLL(T)
        loop — exercises the lazy-SMT integration as reference).
    max_length, node_budget:
        Reference-solver bounds; ``max_length`` must cover the lengths the
        instances use or the reference degrades to unknown.
    cache:
        Optional shared :class:`~repro.service.cache.CompileCache`. A hit
        returns the identical compiled problem, so cache state can never
        change a verdict (covered by the regression suite).
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; verdict
        counters are recorded under ``oracle.*``.
    """

    def __init__(
        self,
        *,
        seed: Optional[int] = 0,
        num_reads: int = 64,
        sampler_params: Optional[Dict[str, Any]] = None,
        max_attempts: int = 3,
        penalty_strength: float = 1.0,
        reference: str = "classical",
        max_length: int = 12,
        node_budget: int = 2_000_000,
        cache: Optional[CompileCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
    ) -> None:
        if reference not in ("classical", "dpllt"):
            raise ValueError(
                f"reference must be 'classical' or 'dpllt', got {reference!r}"
            )
        self.spec = SolveSpec(
            num_reads=num_reads,
            seed=seed,
            sampler_params=sampler_params,
            penalty_strength=penalty_strength,
            policy=RetryPolicy(max_attempts=max_attempts),
            strategy=strategy,
            refine_max_rounds=refine_max_rounds,
        )
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                f"oracle seeds must be int or None for reproducibility, "
                f"got {type(seed)!r}"
            )
        self.reference = reference
        self.max_length = max_length
        self.node_budget = node_budget
        self.cache = cache
        self.metrics = metrics

    # ------------------------------------------------------------------ #
    # solver runs
    # ------------------------------------------------------------------ #

    def quantum_solve(self, assertions: Sequence[ast.Term]) -> SmtResult:
        """Fresh-solver quantum run (optionally through the compile cache)."""
        result, _ = self._quantum_solve_with_hit(assertions)
        return result

    def _quantum_solve_with_hit(self, assertions: Sequence[ast.Term]):
        solver = self.spec.solver(metrics=self.metrics, cache=self.cache)
        solver.assertions = list(assertions)
        if self.cache is None:
            return solver.check_sat(), False
        try:
            problem, hit = self.cache.get_or_compile(
                list(assertions),
                penalty_strength=self.spec.penalty_strength,
                seed=self.spec.seed,
                compile_fn=solver.compile,
            )
        except CompilationError as exc:
            return (
                SmtResult(status=SolveStatus.UNKNOWN, reason=f"compilation: {exc}"),
                False,
            )
        return solver.solve_compiled(problem), hit

    def reference_solve(self, assertions: Sequence[ast.Term]):
        """Run the configured exact reference on the conjunction."""
        if self.reference == "dpllt":
            from repro.smt.dpllt import DpllTSolver

            solver = DpllTSolver(
                atoms=list(assertions),
                theory_solver=ClassicalStringSolver(
                    max_length=self.max_length, node_budget=self.node_budget
                ),
            )
            return solver.solve()
        return ClassicalStringSolver(
            max_length=self.max_length, node_budget=self.node_budget
        ).solve(list(assertions))

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #

    def check(
        self,
        assertions: Sequence[ast.Term],
        witness: Optional[Dict[str, str]] = None,
        expected: Optional[SolveStatus] = None,
        quantum_result: Optional[SmtResult] = None,
    ) -> OracleReport:
        """Differentially decide one conjunction.

        ``witness`` is the planted model of a generated instance (used to
        recognize completeness misses even when the reference times out);
        ``expected`` the generator's ground-truth status. ``quantum_result``
        lets a batch driver supply a precomputed quantum outcome (the
        classification is then identical to an inline run).
        """
        assertions = list(assertions)
        if quantum_result is not None:
            q_result, hit = quantum_result, False
        else:
            q_result, hit = self._quantum_solve_with_hit(assertions)
        r_result = self.reference_solve(assertions)
        report = self.classify(
            assertions,
            q_result,
            r_result,
            witness=witness,
            expected=expected,
        )
        report.cache_hit = hit
        if self.metrics is not None:
            self.metrics.counter("oracle.checks").inc()
            self.metrics.counter(f"oracle.{report.verdict.value}").inc()
        return report

    def classify(
        self,
        assertions: Sequence[ast.Term],
        quantum_result: SmtResult,
        reference_result: Any,
        witness: Optional[Dict[str, str]] = None,
        expected: Optional[SolveStatus] = None,
    ) -> OracleReport:
        """Pure classification of a (quantum, reference) outcome pair."""
        assertions = list(assertions)
        q_status = SolveStatus.from_value(quantum_result.status)
        r_status = SolveStatus.from_value(
            getattr(reference_result, "status", SolveStatus.UNKNOWN)
        )
        r_model = dict(getattr(reference_result, "model", {}) or {})
        known_sat = q_status is not SolveStatus.SAT and (
            r_status is SolveStatus.SAT
            or (witness is not None and _model_satisfies(assertions, witness))
            or (expected is not None
                and SolveStatus.from_value(expected) is SolveStatus.SAT)
        )

        if q_status is SolveStatus.SAT:
            checked, violated = _audit_model(assertions, quantum_result.model)
            if violated is not None:
                return OracleReport(
                    verdict=Verdict.SOUNDNESS_BUG,
                    quantum_status=q_status,
                    reference_status=r_status,
                    quantum_model=dict(quantum_result.model),
                    reference_model=r_model,
                    reason=f"quantum model violates semantics: {violated}",
                    checked_assertions=checked,
                )
            if r_status is SolveStatus.UNSAT:
                return OracleReport(
                    verdict=Verdict.SOUNDNESS_BUG,
                    quantum_status=q_status,
                    reference_status=r_status,
                    quantum_model=dict(quantum_result.model),
                    reference_model=r_model,
                    reason=(
                        "reference proved unsat but the quantum model passed "
                        "the semantic audit — reference/evaluator split "
                        "(both sides cannot be right)"
                    ),
                    checked_assertions=checked,
                )
            return OracleReport(
                verdict=Verdict.AGREE_SAT,
                quantum_status=q_status,
                reference_status=r_status,
                quantum_model=dict(quantum_result.model),
                reference_model=r_model,
                reason="model re-checked against concrete semantics",
                checked_assertions=checked,
            )

        if q_status is SolveStatus.UNSAT:
            if known_sat:
                return OracleReport(
                    verdict=Verdict.SOUNDNESS_BUG,
                    quantum_status=q_status,
                    reference_status=r_status,
                    reference_model=r_model,
                    reason="quantum reported unsat on a satisfiable instance",
                )
            if r_status is SolveStatus.UNSAT:
                return OracleReport(
                    verdict=Verdict.AGREE_UNSAT,
                    quantum_status=q_status,
                    reference_status=r_status,
                    reason="both refuted",
                )
            return OracleReport(
                verdict=Verdict.UNRESOLVED,
                quantum_status=q_status,
                reference_status=r_status,
                reference_model=r_model,
                reason=(
                    f"quantum refutation unconfirmed (reference: "
                    f"{r_status.value}: {getattr(reference_result, 'reason', '')})"
                ),
            )

        # Quantum unknown.
        if known_sat:
            return OracleReport(
                verdict=Verdict.COMPLETENESS_MISS,
                quantum_status=q_status,
                reference_status=r_status,
                reference_model=r_model,
                reason=(
                    f"quantum unknown on a satisfiable instance "
                    f"({quantum_result.reason})"
                ),
            )
        return OracleReport(
            verdict=Verdict.UNRESOLVED,
            quantum_status=q_status,
            reference_status=r_status,
            reference_model=r_model,
            reason=(
                f"quantum unknown, reference {r_status.value} "
                f"(no satisfiable witness missed)"
            ),
        )


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #


def _audit_model(
    assertions: Sequence[ast.Term], model: Dict[str, str]
):
    """Re-check every assertion under *model*; ``(count, first_violation)``."""
    checked = 0
    for assertion in assertions:
        try:
            ok = eval_formula(assertion, model)
        except TheoryError as exc:
            return checked, f"{assertion!r} ({exc})"
        checked += 1
        if not ok:
            return checked, repr(assertion)
    return checked, None


def _model_satisfies(
    assertions: Sequence[ast.Term], model: Dict[str, str]
) -> bool:
    """True when *model* verifies the whole conjunction."""
    if not model and any(ast.free_string_variables(a) for a in assertions):
        return False
    try:
        return all(eval_formula(a, model) for a in assertions)
    except TheoryError:
        return False
