"""One solve specification and one execute path for every single-item solve.

The paper's method is one pipeline — compile the string constraints to
QUBOs, anneal, decode, verify the model (§3, §4.12). Every per-item entry
point runs it the same way: the three
:class:`~repro.service.batch.BatchSolver` executors, the server's thread
and process backends, incremental sessions and the differential oracle.

* :class:`SolveSpec` is the frozen, picklable solver configuration they
  share. It holds the only copy of that configuration's validation and
  builds every single-item :class:`~repro.smt.solver.QuantumSMTSolver`
  (:meth:`SolveSpec.solver`) and :class:`~repro.opt.AnytimeOptimizer`
  (:meth:`SolveSpec.optimizer`).
* :func:`execute` solves one assertion conjunction — or, with soft
  assertions, optimizes it — and returns one :class:`SolveOutcome`; any
  failure becomes an ``unknown`` outcome carrying its error type.

Determinism: every call builds a **fresh** solver seeded at ``spec.seed``,
so an item's answer is bit-identical to a direct
``QuantumSMTSolver(seed=...).check_sat()`` on that item alone, whatever
the entry point, worker count, queue order or cache state.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.service.policy import RetryExhaustedError, RetryPolicy
from repro.smt import ast
from repro.smt.compiler import CompilationError, CompiledProblem, compile_assertions
from repro.smt.solver import QuantumSMTSolver, SmtResult
from repro.utils.timing import Timer

__all__ = [
    "SolveOutcome",
    "SolveSpec",
    "check_strategy",
    "compile_cached",
    "execute",
    "outcome_from_optimize",
]


def check_strategy(strategy: str, refine_max_rounds: int) -> None:
    """Validate a solve strategy and its refinement round budget."""
    if strategy not in ("direct", "refine"):
        raise ValueError(f"strategy must be 'direct' or 'refine', got {strategy!r}")
    if refine_max_rounds < 0:
        raise ValueError(f"refine_max_rounds must be >= 0, got {refine_max_rounds}")


@dataclass(frozen=True)
class SolveSpec:
    """How to solve one item: the solver and optimizer configuration.

    ``sampler_factory`` builds a fresh sampler per solve (``None``: the
    default simulated annealer) and must be picklable for the process
    backend. ``policy`` defaults to three attempts. ``sampler_params`` is
    copied on construction and must not be mutated afterwards: one spec
    is shared by every worker thread. ``seed`` is an ``int`` or ``None``
    (checked here, the one seed check of every owner).
    """

    num_reads: int = 64
    seed: Optional[int] = None
    sampler_params: Dict[str, Any] = field(default_factory=dict)
    sampler_factory: Optional[Callable[[], Any]] = None
    penalty_strength: float = 1.0
    policy: Optional[RetryPolicy] = None
    strategy: str = "direct"
    refine_max_rounds: int = 4
    opt_max_restarts: int = 4
    opt_deadline_ms: Optional[float] = None
    opt_exhaustive_bits: int = 16

    def __post_init__(self) -> None:
        if self.seed is not None and not isinstance(self.seed, int):
            raise TypeError(
                "a solve needs a reproducible seed (int or None); live RNG "
                "objects cannot be shared across solves, workers or "
                f"processes: {type(self.seed)!r}"
            )
        check_strategy(self.strategy, self.refine_max_rounds)
        if self.opt_max_restarts < 1:
            raise ValueError(
                f"opt_max_restarts must be >= 1, got {self.opt_max_restarts}"
            )
        if self.opt_exhaustive_bits < 0:
            raise ValueError(
                f"opt_exhaustive_bits must be >= 0, got {self.opt_exhaustive_bits}"
            )
        object.__setattr__(self, "sampler_params", dict(self.sampler_params or {}))
        if self.policy is None:
            object.__setattr__(self, "policy", RetryPolicy(max_attempts=3))

    def policy_within(self, remaining: Optional[float]) -> RetryPolicy:
        """The retry policy with its attempt timeout clamped to *remaining*
        seconds of deadline budget: a deadline composes with the policy
        rather than replacing it."""
        if remaining is None:
            return self.policy
        remaining = max(remaining, 1e-3)
        timeout = self.policy.attempt_timeout
        clamped = remaining if timeout is None else min(timeout, remaining)
        return replace(self.policy, attempt_timeout=clamped)

    def sampler(self) -> Any:
        """A fresh sampler from the factory, or ``None`` for the default."""
        return self.sampler_factory() if self.sampler_factory else None

    def solver(
        self, *, metrics: Any = None, policy: Any = None, cache: Any = None
    ) -> QuantumSMTSolver:
        """A fresh solver at the base seed.

        *policy* overrides the spec's (the server passes its
        deadline-clamped one); the refine strategy compiles its lemma
        states through *cache*.
        """
        return QuantumSMTSolver(
            sampler=self.sampler(),
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            penalty_strength=self.penalty_strength,
            retry_policy=self.policy if policy is None else policy,
            metrics=metrics,
            strategy=self.strategy,
            refine_max_rounds=self.refine_max_rounds,
            compile_cache=cache if self.strategy == "refine" else None,
        )

    def optimizer(self, *, metrics: Any = None, deadline_ms: Optional[float] = None):
        """A fresh anytime MaxSMT optimizer; *deadline_ms* overrides
        ``opt_deadline_ms``. ``repro.opt`` is imported only here."""
        from repro.opt import AnytimeOptimizer

        return AnytimeOptimizer(
            sampler=self.sampler(),
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            penalty_strength=self.penalty_strength,
            max_restarts=self.opt_max_restarts,
            deadline_ms=self.opt_deadline_ms if deadline_ms is None else deadline_ms,
            exhaustive_bits=self.opt_exhaustive_bits,
            metrics=metrics,
        )


@dataclass
class SolveOutcome:
    """One completed single-item solve (or weighted optimization)."""

    result: SmtResult
    cache_hit: bool = False
    wall_time: float = 0.0
    error: str = ""
    error_type: str = ""
    #: Optimization-mode refinement (items with soft assertions): the
    #: MaxSMT status plus the objective/bound bracket. Plain solves keep
    #: the null defaults.
    opt_status: str = ""
    objective: Optional[float] = None
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None
    #: How the fused executor decided the item: ``"fused"`` (tile pass),
    #: ``"fallback"`` (per-item re-solve), ``"trivial"`` (no sampling) or
    #: ``"error"``; empty on every other path.
    path: str = ""

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def model(self) -> Dict[str, str]:
        return self.result.model

    @classmethod
    def failed(
        cls, exc: BaseException, *, wall_time: float = 0.0, optimizing: bool = False
    ) -> "SolveOutcome":
        """An ``unknown`` outcome carrying *exc*: never a crash, never silent."""
        if isinstance(exc, CompilationError):
            reason = f"compilation: {exc}"  # out-of-fragment, like check_sat
        elif isinstance(exc, RetryExhaustedError):
            reason = str(exc)
        else:
            reason = f"{type(exc).__name__}: {exc}"
        return cls(
            result=SmtResult(status="unknown", reason=reason),
            wall_time=wall_time,
            error=str(exc),
            error_type=type(exc).__name__,
            opt_status="unknown" if optimizing else "",
        )


def outcome_from_optimize(result: Any, wall_time: float = 0.0) -> SolveOutcome:
    """Fold an :class:`~repro.opt.result.OptimizeResult` into an outcome.

    The MaxSMT status is projected onto the sat/unsat/unknown axis
    (feasible → sat); the refinement rides in the ``opt_*`` and bound
    fields, an infinite upper bound reported as ``None``.
    """
    from repro.opt.result import solve_status_for

    upper = float(result.upper_bound)
    return SolveOutcome(
        result=SmtResult(
            status=solve_status_for(result.status),
            model=dict(result.model),
            reason=result.reason,
        ),
        wall_time=wall_time,
        opt_status=str(result.status),
        objective=result.objective,
        lower_bound=float(result.lower_bound),
        upper_bound=None if math.isinf(upper) else upper,
    )


def compile_cached(
    spec: SolveSpec, assertions: Sequence[ast.Term], cache: Any, metrics: Any
) -> Tuple[CompiledProblem, bool]:
    """Compile *assertions* through *cache*; returns ``(problem, hit)``.

    Misses are timed under ``compile`` in *metrics*. Hits and misses are
    not counted here: :func:`execute` and the fused executor count them
    as ``cache.hits`` / ``cache.misses``, while sessions and the
    differential oracle keep their own books.
    """

    def compile_fn() -> CompiledProblem:
        with metrics.time("compile") if metrics is not None else nullcontext():
            return compile_assertions(
                list(assertions),
                penalty_strength=spec.penalty_strength,
                seed=spec.seed,
            )

    return cache.get_or_compile(
        assertions,
        penalty_strength=spec.penalty_strength,
        seed=spec.seed,
        compile_fn=compile_fn,
    )


def execute(
    spec: SolveSpec,
    assertions: Sequence[ast.Term],
    soft: Sequence[ast.SoftAssertion] = (),
    *,
    cache: Any,
    metrics: Any,
    policy: Any = None,
    remaining: Optional[float] = None,
    solve_params: Optional[Dict[str, Any]] = None,
    compiled: Optional[CompiledProblem] = None,
) -> SolveOutcome:
    """Solve (or, with *soft* assertions, optimize) one item.

    *remaining* is the request's deadline budget in seconds, if any.
    Plain items compile through *cache* — unless already *compiled*, as
    in the fused executor's first pass — and are decided under *policy*
    (default: the spec's, clamped to *remaining*). Weighted items run the
    anytime optimizer with *remaining* as its deadline.
    """
    timer = Timer().start()
    params = solve_params or {}
    try:
        if soft:
            deadline_ms = None if remaining is None else max(remaining, 1e-3) * 1000.0
            optimizer = spec.optimizer(metrics=metrics, deadline_ms=deadline_ms)
            result = optimizer.optimize(assertions, list(soft), **params)
            return outcome_from_optimize(result, wall_time=timer.stop())
        if policy is None:
            policy = spec.policy_within(remaining)
        solver = spec.solver(metrics=metrics, policy=policy, cache=cache)
        solver.assertions = list(assertions)
        hit = False
        if compiled is None:
            compiled, hit = compile_cached(spec, assertions, cache, metrics)
            if metrics is not None:
                metrics.counter("cache.hits" if hit else "cache.misses").inc()
        result = solver.solve_compiled(compiled, **params)
        return SolveOutcome(result=result, cache_hit=hit, wall_time=timer.stop())
    except Exception as exc:  # noqa: BLE001 — boundary: degrade, don't crash
        return SolveOutcome.failed(exc, wall_time=timer.stop(), optimizing=bool(soft))
