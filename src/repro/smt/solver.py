"""The user-facing quantum SMT solver.

:class:`QuantumSMTSolver` glues the stack together: parse SMT-LIB (or take
programmatic assertions), compile to QUBO formulations, sample with the
configured annealer, decode and verify, and answer ``check-sat`` /
``get-model`` / ``get-value``.

Soundness contract: ``sat`` is only reported for a **verified** model —
every assertion is re-evaluated under the concrete string semantics. The
annealer failing to produce a verifying model yields ``unknown`` (the
method is incomplete, like any stochastic optimizer); a concretely-false
ground assertion yields ``unsat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.anneal.base import Sampler
from repro.core.solver import SolveResult, StringQuboSolver
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryExhaustedError, RetryPolicy
from repro.smt import ast
from repro.smt.compiler import CompilationError, CompiledProblem, compile_assertions
from repro.smt.parser import ParseError, SmtScript, parse_script
from repro.smt.status import SolveStatus
from repro.smt.theory import eval_formula
from repro.utils.rng import SeedLike

__all__ = ["QuantumSMTSolver", "SmtResult"]

# Canonical statuses; module-level names kept for backwards compatibility
# (old code compared against the bare strings, which still works because
# SolveStatus is a str-mixin enum).
SAT = SolveStatus.SAT
UNSAT = SolveStatus.UNSAT
UNKNOWN = SolveStatus.UNKNOWN


@dataclass
class SmtResult:
    """Outcome of one ``check_sat`` call."""

    status: SolveStatus
    model: Dict[str, str] = field(default_factory=dict)
    solve_results: Dict[str, SolveResult] = field(default_factory=dict)
    reason: str = ""

    def __post_init__(self) -> None:
        # Accept historical bare strings ("sat"/"unsat"/"unknown") and
        # normalize them onto the shared enum.
        self.status = SolveStatus.from_value(self.status)

    def __repr__(self) -> str:
        return f"SmtResult(status={self.status.value!r}, model={self.model!r})"


class QuantumSMTSolver:
    """Check satisfiability of string constraints by quantum annealing.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.anneal.base.Sampler`; default simulated
        annealing (the paper's configuration).
    num_reads, sampler_params, seed:
        Forwarded to the underlying
        :class:`~repro.core.solver.StringQuboSolver`.
    max_attempts:
        Restarts per variable when verification fails (annealing is
        stochastic; retrying with fresh seeds recovers most misses).
        Shorthand for ``retry_policy=RetryPolicy(max_attempts=...)``.
    retry_policy:
        Full :class:`~repro.service.policy.RetryPolicy` (per-attempt
        timeout, backoff). Takes precedence over ``max_attempts``.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, compile/anneal stage timings and check-sat outcome counters
        are recorded into it.
    strategy:
        ``"direct"`` (the default pipeline) or ``"refine"`` — the CEGAR
        loop of :mod:`repro.smt.refine`: classical propagation clamps
        implied bits, the annealer samples the reduced QUBO, failed
        verifications become blocking lemmas, and the loop falls back to
        the unrefined solve under a round budget.
    refine_max_rounds:
        Round budget for ``strategy="refine"``; ``0`` makes every check
        take the guaranteed fallback, bit-identical to ``"direct"`` at
        the same seed.
    compile_cache:
        Optional shared :class:`~repro.service.cache.CompileCache` the
        refinement engine compiles lemma-frame states through (sessions
        and the server pass theirs in, so lemma states delta-compile once
        per content hash). Unused by the direct strategy.
    """

    def __init__(
        self,
        sampler: Optional[Sampler] = None,
        num_reads: int = 64,
        seed: SeedLike = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        max_attempts: int = 3,
        penalty_strength: float = 1.0,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        compile_cache: Optional[Any] = None,
    ) -> None:
        from repro.service.spec import check_strategy  # spec imports this module

        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        check_strategy(strategy, refine_max_rounds)
        self.metrics = metrics
        self.strategy = strategy
        self.refine_max_rounds = refine_max_rounds
        self.compile_cache = compile_cache
        self.last_refine_stats = None
        self._driver = StringQuboSolver(
            sampler=sampler,
            num_reads=num_reads,
            seed=seed,
            sampler_params=sampler_params,
            metrics=metrics,
        )
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=max_attempts)
        )
        self.max_attempts = self.retry_policy.max_attempts
        self.penalty_strength = penalty_strength
        self._seed = seed
        self.assertions: List[ast.Term] = []
        self.declarations: Dict[str, Any] = {}
        self._last: Optional[SmtResult] = None

    # ------------------------------------------------------------------ #
    # problem construction
    # ------------------------------------------------------------------ #

    def declare_const(self, name: str, sort=ast.StringSort) -> ast.StrVar:
        """Declare a constant (programmatic equivalent of declare-const)."""
        if name in self.declarations:
            raise ValueError(f"duplicate declaration of {name!r}")
        self.declarations[name] = sort
        return ast.StrVar(name)

    def add_assertion(self, formula: ast.Term) -> None:
        """Assert a Bool-sorted term."""
        self.assertions.append(formula)
        self._last = None

    def load_script(self, script: SmtScript) -> None:
        """Adopt declarations and assertions from a parsed script."""
        for name, sort in script.declarations.items():
            if name not in self.declarations:
                self.declarations[name] = sort
        self.assertions.extend(script.assertions)
        self._last = None

    @classmethod
    def from_script_text(cls, text: str, **kwargs: Any) -> "QuantumSMTSolver":
        """Build a solver directly from SMT-LIB source."""
        solver = cls(**kwargs)
        solver.load_script(parse_script(text))
        return solver

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    def compile(self) -> CompiledProblem:
        """Lower the asserted conjunction to QUBO formulations."""
        if self.metrics is not None:
            with self.metrics.time("compile"):
                return compile_assertions(
                    self.assertions,
                    penalty_strength=self.penalty_strength,
                    seed=self._seed,
                )
        return compile_assertions(
            self.assertions,
            penalty_strength=self.penalty_strength,
            seed=self._seed,
        )

    def check_sat(self, **solve_params: Any) -> SmtResult:
        """Decide the asserted conjunction; see the soundness contract above."""
        try:
            problem = self.compile()
        except CompilationError as exc:
            self._last = SmtResult(status=UNKNOWN, reason=f"compilation: {exc}")
            self._count(UNKNOWN)
            return self._last
        return self.solve_compiled(problem, **solve_params)

    def solve_compiled(
        self, problem: CompiledProblem, **solve_params: Any
    ) -> SmtResult:
        """Decide a pre-compiled problem (the cache-hit fast path).

        ``check_sat`` is ``solve_compiled(self.compile())``; the batch
        service calls this directly with problems from the
        :class:`~repro.service.cache.CompileCache` so repeated
        formulations skip compilation entirely. With ``strategy="refine"``
        the CEGAR engine drives the solve (reduced QUBOs, blocking
        lemmas, guaranteed fallback); the direct pipeline runs otherwise.
        """
        if self.strategy == "refine":
            from repro.smt.refine import RefinementEngine

            engine = RefinementEngine(
                self,
                max_rounds=self.refine_max_rounds,
                cache=self.compile_cache,
            )
            result = engine.solve(problem, **solve_params)
            self.last_refine_stats = engine.stats
            self._last = result
            return result
        return self._solve_direct(problem, **solve_params)

    def _solve_direct(
        self, problem: CompiledProblem, **solve_params: Any
    ) -> SmtResult:
        """The unrefined pipeline (also the refinement engine's fallback)."""
        # Optional per-variable annealer starting states (incremental
        # sessions seed these from the previous frame's model). Popped
        # here so the per-variable vectors never leak to sampler kwargs.
        warm_states = solve_params.pop("warm_states", None)

        if problem.trivially_unsat:
            failed = [a for a, truth in problem.ground_results if not truth]
            self._last = SmtResult(
                status=UNSAT, reason=f"ground assertion false: {failed[0]!r}"
            )
            self._count(UNSAT)
            return self._last

        model: Dict[str, str] = {}
        solve_results: Dict[str, SolveResult] = {}
        for variable, formulation in problem.formulations.items():
            params = dict(solve_params)
            if warm_states and variable in warm_states:
                params["initial_states"] = warm_states[variable]
            result = self._solve_with_retries(formulation, **params)
            solve_results[variable] = result
            if not result.ok:
                self._last = SmtResult(
                    status=UNKNOWN,
                    solve_results=solve_results,
                    reason=(
                        f"annealer did not produce a verified witness for "
                        f"{variable!r} in {self.max_attempts} attempts"
                    ),
                )
                self._count(UNKNOWN)
                return self._last
            model[variable] = result.output

        # Final end-to-end model check under the concrete semantics.
        for assertion in self.assertions:
            if ast.free_string_variables(assertion) and not eval_formula(
                assertion, model
            ):
                self._last = SmtResult(
                    status=UNKNOWN,
                    model=model,
                    solve_results=solve_results,
                    reason=f"model fails assertion {assertion!r}",
                )
                self._count(UNKNOWN)
                return self._last
        self._last = SmtResult(status=SAT, model=model, solve_results=solve_results)
        self._count(SAT)
        return self._last

    def _count(self, status: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("smt.check_sat").inc()
            self.metrics.counter(f"smt.{status}").inc()

    def _solve_with_retries(self, formulation, **solve_params: Any) -> SolveResult:
        """One robustness layer for the stochastic backend (shared policy).

        Exhausted retries with a decoded-but-unverified last result are
        mapped onto that result (the soundness contract turns it into
        ``unknown``); exhausted retries where every attempt *raised* —
        including per-attempt timeouts — re-raise the typed
        :class:`~repro.service.policy.RetryExhaustedError`.
        """

        def attempt(_index: int) -> SolveResult:
            return self._driver.solve(formulation, **solve_params)

        try:
            outcome = self.retry_policy.run(
                attempt,
                succeeded=lambda r: r.ok,
                description=f"solve {formulation.describe()}",
            )
        except RetryExhaustedError as exc:
            if self.metrics is not None:
                self.metrics.counter("smt.retries_exhausted").inc()
            if exc.last_result is not None:
                return exc.last_result
            raise
        if self.metrics is not None and outcome.attempts > 1:
            self.metrics.counter("smt.retried_solves").inc()
        return outcome.result

    # ------------------------------------------------------------------ #
    # model access
    # ------------------------------------------------------------------ #

    def get_model(self) -> Dict[str, str]:
        """The model of the last ``sat`` answer."""
        if self._last is None:
            raise RuntimeError("call check_sat() first")
        if self._last.status != SAT:
            raise RuntimeError(f"no model: last status was {self._last.status!r}")
        return dict(self._last.model)

    def get_value(self, name: str) -> str:
        """Value of one variable in the last model."""
        model = self.get_model()
        if name not in model:
            raise KeyError(f"no value for {name!r} in the model")
        return model[name]

    # ------------------------------------------------------------------ #
    # script execution (REPL-style)
    # ------------------------------------------------------------------ #

    def run_script_text(self, text: str, **solve_params: Any) -> List[str]:
        """Execute a script; returns the solver's printed outputs in order.

        Commands are processed sequentially with SMT-LIB assertion-stack
        semantics: ``(push n)`` snapshots the assertion set, ``(pop n)``
        restores it (declarations, per common solver practice, persist).
        """
        script = parse_script(text)
        for name, sort in script.declarations.items():
            if name not in self.declarations:
                self.declarations[name] = sort
        stack: List[int] = []
        outputs: List[str] = []
        for command, payload in script.commands:
            if command == "assert":
                self.assertions.append(payload)
                self._last = None
            elif command == "push":
                for _ in range(payload):
                    stack.append(len(self.assertions))
            elif command == "pop":
                if payload > len(stack):
                    raise ParseError(
                        f"pop {payload} exceeds the assertion-stack depth {len(stack)}"
                    )
                mark = len(self.assertions)
                for _ in range(payload):
                    mark = stack.pop()
                del self.assertions[mark:]
                self._last = None
            elif command == "check-sat":
                outputs.append(self.check_sat(**solve_params).status)
            elif command == "get-model":
                model = self.get_model()
                lines = ["("]
                for name, value in sorted(model.items()):
                    escaped = value.replace('"', '""')
                    lines.append(
                        f'  (define-fun {name} () String "{escaped}")'
                    )
                lines.append(")")
                outputs.append("\n".join(lines))
            elif command == "get-value":
                parts = []
                for term in payload:
                    if isinstance(term, ast.StrVar):
                        value = self.get_value(term.name)
                        escaped = value.replace('"', '""')
                        parts.append(f'({term.name} "{escaped}")')
                    else:
                        value = eval_formula_or_term(term, self.get_model())
                        parts.append(f"({term!r} {value!r})")
                outputs.append("(" + " ".join(parts) + ")")
            elif command == "echo":
                outputs.append(" ".join(str(p) for p in payload))
            elif command == "exit":
                break
        return outputs


def eval_formula_or_term(term: ast.Term, model: Dict[str, str]):
    """Evaluate any term under a model (helper for get-value)."""
    from repro.smt.theory import eval_term

    return eval_term(term, model)
