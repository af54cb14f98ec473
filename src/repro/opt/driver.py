"""The anytime weighted-MaxSMT driver.

:class:`AnytimeOptimizer` turns the solver stack into an optimizer: it
compiles hard + soft assertions through :mod:`repro.opt.weighted`, then
tightens an upper bound on the objective (total violated soft weight)
across annealer restarts under a deadline budget. Small variables finish
with an exhaustive pass over their whole decoded string space, which
proves optimality outright.

Soundness contract: the reported objective is always **re-audited** under
the concrete string semantics — the QUBO energy only *guides* the search
(a violated soft block can cost more energy than its weight when it is
"more wrong", so energies are never trusted as costs). ``infeasible`` is
only ever reported for ground-false hard assertions; a fixed-length
encoding that admits no witness yields ``unknown``, mirroring the
incompleteness contract of ``check_sat``.

Anytime-bound contract (DESIGN.md Appendix J): after every restart,
``lower_bound <= true optimum <= upper_bound`` holds, the upper bound is
non-increasing, and ``status="optimal"`` is reported exactly when the two
bounds meet or every variable was finished exhaustively.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.anneal.base import Sampler
from repro.opt.result import OptimizeResult, OptStatus, SoftReport
from repro.opt.weighted import WeightedProblem, compile_weighted
from repro.service.metrics import MetricsRegistry
from repro.smt import ast
from repro.smt.compiler import CompilationError, _length_facts
from repro.smt.parser import parse_script
from repro.smt.printer import render_term
from repro.smt.theory import eval_formula
from repro.utils.asciitab import ALPHABET_SIZE
from repro.utils.rng import SeedLike

__all__ = ["AnytimeOptimizer", "audit_cost"]

#: Salt for the per-restart annealer seed stream (disjoint from the
#: compiler's and the refinement engine's streams).
_RESTART_SEED_SALT = 0x0A17


def audit_cost(
    hard_asserts: List[ast.Term],
    softs: List[Tuple[float, ast.Term]],
    assignment: Dict[str, str],
) -> Tuple[bool, float]:
    """``(feasible, violated_weight)`` of one assignment, concretely.

    This is the single source of truth for objective values — the driver,
    the optimality oracle, and the campaign auditor all call it.
    """
    for assertion in hard_asserts:
        if not eval_formula(assertion, assignment):
            return False, 0.0
    cost = 0.0
    for weight, term in softs:
        if not eval_formula(term, assignment):
            cost += float(weight)
    return True, cost


class AnytimeOptimizer:
    """Anytime weighted-MaxSMT optimization over the string QUBO stack.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.anneal.base.Sampler`; default simulated
        annealing. Each restart consumes ``num_reads`` reads.
    max_restarts:
        Annealer restarts per variable; odd restarts are warm-started from
        the best state found so far (the anytime tightening move).
    deadline_ms:
        Total wall-clock budget; once exceeded no further restart begins
        (the result keeps whatever bounds were reached — anytime).
    exhaustive_bits:
        Variables whose string encoding has at most this many bits are
        finished by exhaustive enumeration of the decoded space, proving
        per-variable optimality. ``0`` disables the exhaustive pass.
    """

    def __init__(
        self,
        sampler: Optional[Sampler] = None,
        *,
        num_reads: int = 64,
        seed: SeedLike = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        penalty_strength: float = 1.0,
        max_restarts: int = 4,
        deadline_ms: Optional[float] = None,
        exhaustive_bits: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
        if exhaustive_bits < 0:
            raise ValueError(f"exhaustive_bits must be >= 0, got {exhaustive_bits}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        if seed is not None and not isinstance(seed, (int, np.integer)):
            raise TypeError(
                f"AnytimeOptimizer needs a reproducible seed (int or None), "
                f"got {type(seed)!r}"
            )
        self.sampler = sampler
        self.num_reads = num_reads
        self.seed = None if seed is None else int(seed)
        self.sampler_params = dict(sampler_params or {})
        self.penalty_strength = penalty_strength
        self.max_restarts = max_restarts
        self.deadline_ms = deadline_ms
        self.exhaustive_bits = exhaustive_bits
        self.metrics = metrics

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #

    def optimize_script(self, text: str, **solve_params: Any) -> OptimizeResult:
        """Optimize an SMT-LIB script with ``assert-soft`` commands."""
        script = parse_script(text)
        return self.optimize(
            list(script.assertions), list(script.soft_assertions), **solve_params
        )

    def optimize(
        self,
        assertions: List[ast.Term],
        soft_assertions: List[ast.SoftAssertion],
        **solve_params: Any,
    ) -> OptimizeResult:
        """Compile and optimize; see the module-level contracts."""
        started = time.monotonic()
        try:
            problem = compile_weighted(
                assertions,
                soft_assertions,
                penalty_strength=self.penalty_strength,
                seed=self.seed,
            )
        except CompilationError as exc:
            result = OptimizeResult(
                status=OptStatus.UNKNOWN,
                breakdown=self._breakdown_skeleton(soft_assertions),
                reason=f"compilation: {exc}",
            )
            self._count(result)
            return result
        result = self.optimize_compiled(problem, **solve_params)
        result.wall_time = time.monotonic() - started
        if self.metrics is not None:
            self.metrics.observe("opt.wall", result.wall_time)
        return result

    def optimize_compiled(
        self, problem: WeightedProblem, **solve_params: Any
    ) -> OptimizeResult:
        """Optimize a pre-compiled :class:`WeightedProblem`."""
        deadline = (
            None
            if self.deadline_ms is None
            else time.monotonic() + self.deadline_ms / 1000.0
        )
        if problem.trivially_infeasible:
            failed = [a for a, truth in problem.hard.ground_results if not truth]
            result = OptimizeResult(
                status=OptStatus.INFEASIBLE,
                breakdown=self._breakdown_skeleton(problem.soft),
                certificate=dict(problem.certificate),
                reason=f"ground assertion false: {failed[0]!r}",
            )
            self._count(result)
            return result

        model: Dict[str, str] = {}
        lower = problem.ground_cost
        upper = problem.ground_cost
        all_optimal = True
        restarts = 0
        reads_used = 0
        unknown_reason = ""
        audit_only = set(id(s) for s in problem.audit_only)

        for variable, formulation in problem.formulations.items():
            hard_asserts = problem.hard.per_variable.get(variable, [])
            softs = [
                (float(s.weight), s.term)
                for s in problem.per_variable_soft.get(variable, [])
            ]
            outcome = self._solve_variable(
                variable, formulation, hard_asserts, softs, deadline, solve_params
            )
            restarts += outcome["restarts"]
            reads_used += outcome["reads"]
            if outcome["value"] is None:
                unknown_reason = outcome["reason"]
                all_optimal = False
                result = OptimizeResult(
                    status=(
                        OptStatus.INFEASIBLE
                        if outcome.get("refuted")
                        else OptStatus.UNKNOWN
                    ),
                    model=model,
                    breakdown=self._breakdown_skeleton(problem.soft),
                    certificate=dict(problem.certificate),
                    reason=unknown_reason,
                    restarts=restarts,
                    reads_used=reads_used,
                )
                self._count(result)
                return result
            model[variable] = outcome["value"]
            upper += outcome["cost"]
            lower += outcome["lower"]
            all_optimal = all_optimal and outcome["optimal"]

        status = (
            OptStatus.OPTIMAL
            if all_optimal or upper <= lower
            else OptStatus.FEASIBLE
        )
        result = OptimizeResult(
            status=status,
            model=model,
            objective=upper,
            lower_bound=min(lower, upper),
            upper_bound=upper,
            breakdown=self._breakdown(problem.soft, model, audit_only),
            certificate=dict(problem.certificate),
            restarts=restarts,
            reads_used=reads_used,
        )
        self._count(result)
        if self.metrics is not None and result.objective is not None:
            self.metrics.observe("opt.objective", float(result.objective))
        return result

    # ------------------------------------------------------------------ #
    # per-variable search
    # ------------------------------------------------------------------ #

    def _solve_variable(
        self,
        variable: str,
        formulation,
        hard_asserts: List[ast.Term],
        softs: List[Tuple[float, ast.Term]],
        deadline: Optional[float],
        solve_params: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Best audited value for one variable (exhaustive or anytime SA)."""
        if (
            self.exhaustive_bits
            and formulation.num_string_bits <= self.exhaustive_bits
        ):
            if self.metrics is not None:
                self.metrics.counter("opt.exhaustive_vars").inc()
            return self._solve_exhaustive(formulation, hard_asserts, softs)
        return self._solve_anytime(
            variable, formulation, hard_asserts, softs, deadline, solve_params
        )

    def _solve_exhaustive(
        self,
        formulation,
        hard_asserts: List[ast.Term],
        softs: List[Tuple[float, ast.Term]],
    ) -> Dict[str, Any]:
        """Enumerate every decodable string; exact, so per-variable optimal."""
        variable = formulation.variable
        length = formulation.length
        best_value: Optional[str] = None
        best_cost = 0.0
        alphabet = [chr(c) for c in range(ALPHABET_SIZE)]
        for chars in itertools.product(alphabet, repeat=length):
            candidate = "".join(chars)
            feasible, cost = audit_cost(
                hard_asserts, softs, {variable: candidate}
            )
            if feasible and (best_value is None or cost < best_cost):
                best_value, best_cost = candidate, cost
                if cost == 0.0:
                    break
        if best_value is None:
            # An exhausted enumeration only *refutes* when the hard group
            # pins the length exactly: every model then has this length,
            # so "no witness at this length" means "no witness at all".
            # A merely lower-bounded length stays unknown (the true model
            # could be longer than the compiled encoding).
            exact = any(
                _length_facts(variable, a)[0] is not None
                for a in hard_asserts
            )
            return {
                "value": None,
                "cost": 0.0,
                "lower": 0.0,
                "optimal": False,
                "restarts": 0,
                "reads": 0,
                "refuted": exact,
                "reason": (
                    f"no witness of length {length} exists for {variable!r} "
                    f"(exhaustive pass"
                    + (", length pinned exactly: infeasible)" if exact else ")")
                ),
            }
        return {
            "value": best_value,
            "cost": best_cost,
            "lower": best_cost,
            "optimal": True,
            "restarts": 0,
            "reads": 0,
            "reason": "",
        }

    def _solve_anytime(
        self,
        variable: str,
        formulation,
        hard_asserts: List[ast.Term],
        softs: List[Tuple[float, ast.Term]],
        deadline: Optional[float],
        solve_params: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Annealer restarts with warm-started tightening under the deadline."""
        from repro.anneal.simulated import SimulatedAnnealingSampler

        sampler = self.sampler if self.sampler is not None else SimulatedAnnealingSampler()
        model = formulation.build_model()
        seed_rng = np.random.default_rng(
            None if self.seed is None else (self.seed ^ _RESTART_SEED_SALT)
        )
        takes_seed = "seed" in type(sampler).parameters

        best_value: Optional[str] = None
        best_cost = 0.0
        best_state: Optional[np.ndarray] = None
        restarts = 0
        reads = 0
        for restart in range(self.max_restarts):
            if deadline is not None and restart > 0 and time.monotonic() >= deadline:
                break
            params = dict(self.sampler_params)
            params.update(solve_params)
            params["num_reads"] = self.num_reads
            if takes_seed:
                params["seed"] = int(seed_rng.integers(0, 2**63 - 1))
            if restart % 2 == 1 and best_state is not None:
                # Warm restart: tighten around the incumbent.
                params["initial_states"] = best_state
            sampleset = sampler.sample_model(model, **params)
            restarts += 1
            reads += len(sampleset)
            if self.metrics is not None:
                self.metrics.counter("opt.restarts").inc()
            # Reads that settle in the same state decode to the same value:
            # decode each distinct state once, in first-occurrence order.
            states = sampleset.states
            first_row: Dict[bytes, int] = {}
            for row, state in enumerate(states):
                first_row.setdefault(state.tobytes(), row)
            rows = list(first_row.values())
            seen = set()
            for row, value in zip(rows, formulation.decode_states(states[rows])):
                if value in seen:
                    continue
                seen.add(value)
                feasible, cost = audit_cost(hard_asserts, softs, {variable: value})
                if feasible and (best_value is None or cost < best_cost):
                    best_value, best_cost = value, cost
                    best_state = np.asarray(states[row], dtype=np.int8)
            if best_value is not None and best_cost == 0.0:
                break  # lower bound reached: provably optimal for this variable
        if best_value is None:
            return {
                "value": None,
                "cost": 0.0,
                "lower": 0.0,
                "optimal": False,
                "restarts": restarts,
                "reads": reads,
                "reason": (
                    f"annealer produced no hard-feasible witness for "
                    f"{variable!r} in {restarts} restart(s)"
                ),
            }
        return {
            "value": best_value,
            "cost": best_cost,
            "lower": 0.0,
            "optimal": best_cost == 0.0,
            "restarts": restarts,
            "reads": reads,
            "reason": "",
        }

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def _breakdown_skeleton(
        self, softs: List[ast.SoftAssertion]
    ) -> List[SoftReport]:
        return [
            SoftReport(
                term_text=render_term(s.term),
                weight=float(s.weight),
                group=s.group,
                satisfied=None,
            )
            for s in softs
        ]

    def _breakdown(
        self,
        softs: List[ast.SoftAssertion],
        model: Dict[str, str],
        audit_only_ids: set,
    ) -> List[SoftReport]:
        out: List[SoftReport] = []
        for soft in softs:
            try:
                satisfied: Optional[bool] = bool(eval_formula(soft.term, model))
            except Exception:
                satisfied = None
            out.append(
                SoftReport(
                    term_text=render_term(soft.term),
                    weight=float(soft.weight),
                    group=soft.group,
                    satisfied=satisfied,
                    encoded=id(soft) not in audit_only_ids,
                )
            )
        return out

    def _count(self, result: OptimizeResult) -> None:
        if self.metrics is not None:
            self.metrics.counter("opt.optimize").inc()
            self.metrics.counter(f"opt.{result.status.value}").inc()
