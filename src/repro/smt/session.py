"""Incremental push/pop solving sessions (SMT-LIB assertion stacks).

A :class:`SolverSession` holds a **frame stack** of assertion groups —
``(push n)`` opens frames, ``(pop n)`` discards them, declarations persist
across pops (common solver practice, matching
:meth:`~repro.smt.solver.QuantumSMTSolver.run_script_text`) — and answers
``check-sat`` for the *flattened* stack at its current depth.

Compilation discipline (see DESIGN.md Appendix H)
-------------------------------------------------

Every distinct frame-stack state compiles **once** per content hash:
``check_sat`` keys the flattened conjunction with
:func:`~repro.service.cache.compile_cache_key` and compiles through a
shared :class:`~repro.service.cache.CompileCache`, memoizing the full
:class:`~repro.smt.solver.SmtResult` per state key. Popping frames
invalidates nothing — the popped state's compiled problem and result stay
cached — so re-pushing the identical frame is a pure cache hit: no
recompile, no re-anneal. This is the delta contract the incremental
architecture needs; it deliberately operates at frame-*state* granularity
rather than per-frame QUBO deltas, because the compiler draws sequential
per-constraint RNG seeds and infers variable lengths per conjunction
(compiling a frame alone is neither bit-identical to, nor always possible
without, the frames below it).

Correctness contract
--------------------

In the default (exact) mode, a session ``check_sat`` at any depth is
**bit-identical** to a fresh :class:`QuantumSMTSolver` given the flattened
frame stack at the same seed: same status, same model, same per-variable
energies. The session builds a fresh solver per (uncached) check — solver
instances advance a live per-solve RNG, so reuse would drift — and the
property suite (``tests/properties/test_property_session.py``) pins the
equivalence over random push/assert/pop/check interleavings across the
serial, thread and process backends.

``warm_start=True`` trades that bit-identity for repeat-solve speed (the
documented break, Appendix H): a check first tries to *verify the previous
frame's satisfying assignment* against the new conjunction (sound — the
model is re-evaluated under the concrete semantics before ``sat`` is
reported, no annealing involved), and otherwise seeds the annealer's
``initial_states`` with that assignment, which changes downstream RNG
consumption relative to a cold solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import encode_string
from repro.utils.asciitab import CHAR_BITS
from repro.service.cache import CompileCache, LruCache, compile_cache_key
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.compiler import CompilationError
from repro.smt.parser import SmtScript, parse_script
from repro.smt.solver import SmtResult
from repro.smt.status import SolveStatus
from repro.smt.theory import TheoryError, eval_formula

__all__ = [
    "SessionError",
    "SessionStats",
    "SolverSession",
    "iter_check_states",
    "run_session_script",
]


class SessionError(ValueError):
    """An operation outside the assertion-stack contract (pop below 0, ...)."""


@dataclass
class SessionStats:
    """Point-in-time counters of one session's incremental behaviour."""

    checks: int = 0
    #: Weighted-MaxSMT optimize() calls at any depth.
    optimizes: int = 0
    #: Checks answered from the per-state result memo (re-push fast path).
    memo_hits: int = 0
    #: optimize() calls answered from the weighted-state memo.
    opt_memo_hits: int = 0
    #: Compiles answered by the shared CompileCache without recompiling.
    compile_hits: int = 0
    compile_misses: int = 0
    #: Warm-mode checks answered by re-verifying the previous model.
    warm_hits: int = 0
    pushes: int = 0
    pops: int = 0
    asserts: int = 0


class SolverSession:
    """An incremental solving session over a frame stack of assertions.

    Parameters
    ----------
    num_reads, seed, sampler_params, max_attempts, penalty_strength,
    retry_policy, metrics:
        Solver configuration: the session's
        :class:`~repro.service.spec.SolveSpec` builds the fresh
        :class:`~repro.smt.solver.QuantumSMTSolver` each uncached check
        uses. ``seed`` should be an int (or None) — live RNG objects
        defeat both caches.
    sampler_factory:
        Optional zero-arg callable building the sampler per check (the
        server's fault-injection hook).
    cache:
        Shared :class:`~repro.service.cache.CompileCache`; one is created
        per session when omitted. Sharing one across sessions lets
        structurally identical frame states hit across session boundaries.
    memo_size:
        Entries in the per-session state-key → :class:`SmtResult` memo.
    warm_start:
        Opt into the previous-model fast path and ``initial_states``
        seeding (see the module docstring for the bit-identity caveat).
    strategy, refine_max_rounds:
        Solve strategy per check: ``"direct"`` or ``"refine"`` (the CEGAR
        loop of :mod:`repro.smt.refine`). Refined checks compile their
        lemma-frame states through this session's shared
        :class:`~repro.service.cache.CompileCache`, so lemma states
        learned in one check delta-compile for free in later ones.
    """

    def __init__(
        self,
        *,
        num_reads: int = 64,
        seed: Optional[int] = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        max_attempts: int = 3,
        penalty_strength: float = 1.0,
        retry_policy: Optional[RetryPolicy] = None,
        sampler_factory: Optional[Callable[[], Any]] = None,
        cache: Optional[CompileCache] = None,
        memo_size: int = 256,
        warm_start: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_deadline_ms: Optional[float] = None,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        try:
            self.spec = SolveSpec(
                num_reads=num_reads,
                seed=seed,
                sampler_params=sampler_params,
                sampler_factory=sampler_factory,
                penalty_strength=penalty_strength,
                policy=(
                    retry_policy
                    if retry_policy is not None
                    else RetryPolicy(max_attempts=max_attempts)
                ),
                strategy=strategy,
                refine_max_rounds=refine_max_rounds,
                opt_max_restarts=opt_max_restarts,
                opt_deadline_ms=opt_deadline_ms,
                opt_exhaustive_bits=opt_exhaustive_bits,
            )
        except ValueError as exc:
            raise SessionError(str(exc)) from None
        self.cache = cache if cache is not None else CompileCache(maxsize=256)
        self.warm_start = warm_start
        self.metrics = metrics
        self.declarations: Dict[str, Any] = {}
        self._frames: List[List[ast.Term]] = [[]]
        self._soft_frames: List[List[ast.SoftAssertion]] = [[]]
        self._memo = LruCache(maxsize=memo_size)
        self._opt_memo = LruCache(maxsize=memo_size)
        self._warm_model: Optional[Dict[str, str]] = None
        self.stats = SessionStats()
        self._last: Optional[SmtResult] = None

    # ------------------------------------------------------------------ #
    # the frame stack
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Current push depth (0 = only the base frame)."""
        return len(self._frames) - 1

    def flattened(self) -> List[ast.Term]:
        """The asserted conjunction at the current depth, oldest first."""
        return [term for frame in self._frames for term in frame]

    def flattened_soft(self) -> List[ast.SoftAssertion]:
        """The soft assertions at the current depth, oldest first."""
        return [soft for frame in self._soft_frames for soft in frame]

    def push(self, levels: int = 1) -> int:
        """Open *levels* new frames; returns the new depth."""
        if levels < 0:
            raise SessionError(f"push levels must be >= 0, got {levels}")
        for _ in range(levels):
            self._frames.append([])
            self._soft_frames.append([])
        self.stats.pushes += levels
        return self.depth

    def pop(self, levels: int = 1) -> int:
        """Discard *levels* frames; returns the new depth.

        Popping **never** invalidates caches: the discarded state's
        compiled problem and memoized result remain, so re-pushing the
        identical frame is answered without recompilation.
        """
        if levels < 0:
            raise SessionError(f"pop levels must be >= 0, got {levels}")
        if levels > self.depth:
            raise SessionError(
                f"pop {levels} exceeds the assertion-stack depth {self.depth}"
            )
        for _ in range(levels):
            self._frames.pop()
            self._soft_frames.pop()
        self.stats.pops += levels
        self._last = None
        return self.depth

    def declare_const(self, name: str, sort: Any = ast.StringSort) -> ast.StrVar:
        """Declare a constant (persists across pops, like real solvers)."""
        if name in self.declarations:
            if self.declarations[name] is sort:
                return ast.StrVar(name)
            raise SessionError(f"conflicting re-declaration of {name!r}")
        self.declarations[name] = sort
        return ast.StrVar(name)

    def assert_term(self, term: ast.Term) -> None:
        """Add one assertion to the top frame."""
        self._frames[-1].append(term)
        self.stats.asserts += 1
        self._last = None

    def assert_soft(
        self, term: ast.Term, weight: float = 1.0, group: str = ""
    ) -> None:
        """Add one weighted soft assertion to the top frame.

        Soft assertions pop with their frame like hard ones, but never
        influence :meth:`check_sat` — satisfiability is decided on the
        hard conjunction alone; softs only shape :meth:`optimize`.
        """
        soft = (
            term
            if isinstance(term, ast.SoftAssertion)
            else ast.SoftAssertion(term=term, weight=weight, group=group)
        )
        self._soft_frames[-1].append(soft)
        self.stats.asserts += 1

    def assert_text(self, fragment: str) -> int:
        """Parse an SMT-LIB fragment of ``declare-const``/``assert``/
        ``assert-soft`` commands against the session's declarations and
        apply it to the top frame; returns the number of assertions added."""
        script = parse_script(fragment, initial_declarations=self.declarations)
        added = 0
        for command, payload in script.commands:
            if command == "declare-const":
                name, _sort_name = payload
                self.declarations[name] = script.declarations[name]
            elif command == "assert":
                self.assert_term(payload)
                added += 1
            elif command == "assert-soft":
                self.assert_soft(payload)
                added += 1
            else:
                raise SessionError(
                    f"only declare-const/assert/assert-soft are allowed in "
                    f"an assert fragment, got {command!r}"
                )
        return added

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    def state_key(self) -> str:
        """Content hash of the current flattened frame-stack state.

        Hard assertions only — soft assertions never influence
        ``check_sat``, so the sat-side key (and with it the re-push memo
        and the shared compile cache) stays byte-identical to a session
        that never asserted a soft constraint.
        """
        return compile_cache_key(
            self.flattened(), self.spec.penalty_strength, self.spec.seed
        )

    def opt_state_key(self) -> str:
        """Content hash of the weighted frame-stack state (hard + soft)."""
        return compile_cache_key(
            self.flattened(),
            self.spec.penalty_strength,
            self.spec.seed,
            soft=self.flattened_soft(),
        )

    def check_sat(self) -> SmtResult:
        """Decide the flattened stack at the current depth.

        Resolution order: per-state result memo (re-push hit) → warm-model
        re-verification (``warm_start`` only) → compile through the shared
        cache and anneal with a fresh solver.
        """
        self.stats.checks += 1
        flattened = self.flattened()
        key = self.state_key()
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return self._finish(cached)

        if self.warm_start:
            warm = self._try_warm_model(flattened)
            if warm is not None:
                self.stats.warm_hits += 1
                self._memo.put(key, warm)
                return self._finish(warm)

        solver = self.spec.solver(metrics=self.metrics, cache=self.cache)
        solver.assertions = list(flattened)
        try:
            problem, hit = self.cache.get_or_compile(
                flattened,
                penalty_strength=self.spec.penalty_strength,
                seed=self.spec.seed,
                compile_fn=solver.compile,
            )
        except CompilationError as exc:
            result = SmtResult(
                status=SolveStatus.UNKNOWN, reason=f"compilation: {exc}"
            )
            self._memo.put(key, result)
            return self._finish(result)
        if hit:
            self.stats.compile_hits += 1
        else:
            self.stats.compile_misses += 1

        solve_params: Dict[str, Any] = {}
        if self.warm_start and self._warm_model:
            warm_states = self._warm_states_for(problem)
            if warm_states:
                solve_params["warm_states"] = warm_states
        result = solver.solve_compiled(problem, **solve_params)
        self._memo.put(key, result)
        return self._finish(result)

    def optimize(self, **solve_params: Any) -> Any:
        """Weighted-MaxSMT optimization of the current frame-stack state.

        Minimizes the total violated soft weight subject to the hard
        conjunction via the :class:`repro.opt.AnytimeOptimizer` this
        session's spec builds (solver settings and ``opt_*`` budgets).
        Results are memoized per weighted state key (hard + soft), so a
        popped-and-re-pushed weighted state is answered without
        re-annealing — the same delta contract as :meth:`check_sat`.
        Returns an :class:`~repro.opt.result.OptimizeResult`.
        """
        self.stats.optimizes += 1
        key = self.opt_state_key()
        cached = self._opt_memo.get(key)
        if cached is not None:
            self.stats.opt_memo_hits += 1
            return cached
        result = self.spec.optimizer(metrics=self.metrics).optimize(
            self.flattened(), self.flattened_soft(), **solve_params
        )
        self._opt_memo.put(key, result)
        return result

    def _finish(self, result: SmtResult) -> SmtResult:
        if result.status is SolveStatus.SAT:
            self._warm_model = dict(result.model)
        self._last = result
        return result

    def get_model(self) -> Dict[str, str]:
        """The model of the last ``sat`` answer at the current depth."""
        if self._last is None:
            raise RuntimeError("call check_sat() first")
        if self._last.status is not SolveStatus.SAT:
            raise RuntimeError(
                f"no model: last status was {self._last.status.value!r}"
            )
        return dict(self._last.model)

    # ------------------------------------------------------------------ #
    # warm start
    # ------------------------------------------------------------------ #

    def _try_warm_model(
        self, flattened: Sequence[ast.Term]
    ) -> Optional[SmtResult]:
        """A verified ``sat`` from the previous model, or None.

        Sound by construction: the previous frame's satisfying assignment
        is re-evaluated against every assertion of the *new* conjunction
        under the concrete semantics; only a full pass reports ``sat``.
        """
        model = self._warm_model
        if not model:
            return None
        free: set = set()
        for assertion in flattened:
            free |= ast.free_string_variables(assertion)
        if not free or not free.issubset(model.keys()):
            return None
        projected = {name: model[name] for name in sorted(free)}
        try:
            if not all(eval_formula(a, projected) for a in flattened):
                return None
        except TheoryError:
            return None
        return SmtResult(
            status=SolveStatus.SAT,
            model=projected,
            reason="warm-start: previous model re-verified",
        )

    def _warm_states_for(self, problem: Any) -> Dict[str, np.ndarray]:
        """Per-variable annealer starting states from the previous model.

        The encoded previous value fills the string-bit prefix of each
        formulation's variable vector; auxiliary bits start at zero. The
        sampler broadcasts the 1-d vector to every read.
        """
        states: Dict[str, np.ndarray] = {}
        model = self._warm_model or {}
        for variable, formulation in getattr(
            problem, "formulations", {}
        ).items():
            value = model.get(variable)
            if value is None:
                continue
            num_variables = formulation.build_model().num_variables
            state = np.zeros(num_variables, dtype=np.int8)
            bits = encode_string(value)
            prefix = min(len(bits), num_variables)
            if prefix and len(value) * CHAR_BITS == len(bits):
                state[:prefix] = bits[:prefix]
                states[variable] = state
        return states

    # ------------------------------------------------------------------ #
    # script execution
    # ------------------------------------------------------------------ #

    def run_script(self, script: SmtScript) -> List[SmtResult]:
        """Execute a parsed script's commands; one result per check-sat.

        ``get-model``/``get-value``/``echo``/``set-*`` commands are
        tolerated and skipped — the session's callers consume
        :class:`SmtResult` objects, not printed output.
        """
        for name, sort in script.declarations.items():
            if name not in self.declarations:
                self.declarations[name] = sort
        results: List[SmtResult] = []
        for command, payload in script.commands:
            if command == "assert":
                self.assert_term(payload)
            elif command == "assert-soft":
                self.assert_soft(payload)
            elif command == "push":
                self.push(payload)
            elif command == "pop":
                self.pop(payload)
            elif command == "check-sat":
                results.append(self.check_sat())
            elif command == "exit":
                break
        return results

    def run_script_text(self, text: str) -> List[SmtResult]:
        """Parse and :meth:`run_script` an SMT-LIB source string."""
        return self.run_script(
            parse_script(text, initial_declarations=self.declarations)
        )


# --------------------------------------------------------------------- #
# stack-walking helpers (shared with repro.verify and the perf suite)
# --------------------------------------------------------------------- #


def iter_check_states(
    script: SmtScript,
) -> Iterator[Tuple[int, List[ast.Term]]]:
    """Yield ``(query_index, flattened_assertions)`` per ``check-sat``.

    Walks the command sequence with assertion-stack semantics — the
    flattened list at each yield is exactly what a fresh solver must be
    given to reproduce that query. Raises :class:`SessionError` on a pop
    below depth 0 (mirroring :class:`SolverSession`).
    """
    frames: List[List[ast.Term]] = [[]]
    index = 0
    for command, payload in script.commands:
        if command == "assert":
            frames[-1].append(payload)
        elif command == "push":
            for _ in range(payload):
                frames.append([])
        elif command == "pop":
            if payload > len(frames) - 1:
                raise SessionError(
                    f"pop {payload} exceeds the assertion-stack depth "
                    f"{len(frames) - 1}"
                )
            for _ in range(payload):
                frames.pop()
        elif command == "check-sat":
            yield index, [term for frame in frames for term in frame]
            index += 1
        elif command == "exit":
            return


def run_session_script(
    text: str, session: Optional[SolverSession] = None, **session_kwargs: Any
) -> List[SmtResult]:
    """Run a multi-query SMT-LIB script through a (possibly fresh) session."""
    if session is None:
        session = SolverSession(**session_kwargs)
    return session.run_script_text(text)
