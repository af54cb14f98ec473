"""CEGAR: the classical↔quantum refinement loop.

The architecture both quantum SMT papers converge on — abstract, sample,
refine from counterexamples — realized over this repo's string fragment:

1. **Prune.** The classical propagation machinery
   (:func:`repro.smt.classical._propagate`) derives per-position character
   domains implied by the asserted conjunction. Bits on which *every*
   character of a position's domain agrees are **implied bits**: they hold
   in every model of the compiled length, so they can be clamped before
   the annealer ever runs.
2. **Reduce.** :func:`repro.qubo.algebra.fix_variables` folds the clamped
   bits into the surviving linear terms and the constant offset. The fold
   is exact — ``E_full(x) = E_reduced(x|free)`` for every completion of
   the clamped assignment — so the annealer samples a strictly smaller
   QUBO whose energies are the original energies (DESIGN.md Appendix I).
3. **Sample + verify.** The reduced sample states are expanded back onto
   the full variable index space and decoded/verified through the
   ordinary :func:`repro.core.solver.result_from_sampleset` path. Steps
   2–3 are one :meth:`repro.core.solver.StringQuboSolver.solve` call with
   ``clamps``, and a round is the direct pipeline's own per-variable
   loop (:func:`repro.smt.solver.decide`) and retry wrapper
   (:func:`repro.smt.solver.solve_with_retries`), with its final model
   check.
4. **Refine.** A decoded value that concretely violates its own base
   constraints becomes a **blocking lemma** ``(not (= x "bad"))``
   appended to the asserted conjunction; the extended conjunction
   recompiles through the solver's shared
   :class:`~repro.service.cache.CompileCache` (the PR 8 delta machinery),
   adding a not-equals penalty that steers the next round's anneal away
   from the counterexample.
5. **Fall back.** After ``max_rounds`` unproductive rounds — or on any
   lemma-push / recompile failure — the engine runs the **unrefined**
   solve of the original problem on the solver's untouched annealing
   driver. The engine samples reduced problems on its *own* RNG stream,
   so the fallback is bit-identical to what a ``strategy="direct"``
   solver would have answered at the same seed (the ``refine-max-rounds=0``
   identity the property suite pins).

Soundness contract
------------------

The loop never manufactures an answer: ``sat`` is only reported for a
model re-verified under the concrete theory semantics (exactly like the
direct path), propagation conflicts *skip pruning* rather than concluding
``unsat``, and lemmas are only learned from decoded values that provably
violate a base assertion. As a guard against an unsound propagator, every
verified model is cross-checked against the clamps that were derived from
it; a contradiction — a correct model violating a supposedly *implied*
bit — raises the typed :class:`UnsoundPropagationError` instead of
letting a wrong abstraction pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

import numpy as np

from repro.core.encoding import char_to_bits, encode_string, variable_index
from repro.core.solver import SolveResult
from repro.service.cache import CompileCache
from repro.service.spec import SolveSpec, compile_cached
from repro.smt import ast
from repro.smt.classical import _propagate
from repro.smt.compiler import (
    CompilationError,
    CompiledProblem,
    compile_assertions,
)
from repro.smt.solver import decide, solve_with_retries
from repro.smt.status import SolveStatus
from repro.smt.theory import TheoryError, eval_formula
from repro.utils.asciitab import CHAR_BITS

__all__ = [
    "RefineStats",
    "RefinementEngine",
    "UnsoundPropagationError",
    "implied_domains",
    "implied_bit_clamps",
]


class UnsoundPropagationError(RuntimeError):
    """A verified model contradicted a derived "implied" bit.

    An implied bit must hold in *every* model of the compiled length; a
    concretely-verified model violating one proves the propagator derived
    a wrong domain fact. Raised instead of silently mis-answering — the
    fault-injection suite pins this surface.
    """


@dataclass
class RefineStats:
    """Per-solve accounting of one refinement run."""

    #: Refinement rounds executed (0 when ``max_rounds=0``).
    rounds: int = 0
    #: Implied bits clamped, summed over every anneal.
    pruned_bits: int = 0
    #: Blocking lemmas appended to the asserted conjunction.
    lemmas: int = 0
    #: Unrefined-solve fallbacks taken (0 or 1 per solve).
    fallbacks: int = 0
    #: Anneals fully determined by propagation (0-variable QUBO).
    determined: int = 0
    #: Total reduced anneals run.
    anneals: int = 0
    #: Reduced QUBO width per anneal, in order.
    qubo_variables: List[int] = field(default_factory=list)
    #: Unreduced QUBO width per anneal, in order.
    full_variables: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rounds": self.rounds,
            "pruned_bits": self.pruned_bits,
            "lemmas": self.lemmas,
            "fallbacks": self.fallbacks,
            "determined": self.determined,
            "anneals": self.anneals,
            "qubo_variables": list(self.qubo_variables),
            "full_variables": list(self.full_variables),
        }


# --------------------------------------------------------------------- #
# implied domains and bit clamps (module-level: monkeypatchable by the
# fault-injection tests, shared with the property suite)
# --------------------------------------------------------------------- #


def implied_domains(
    variable: str, group: Sequence[ast.Term], length: int
) -> Optional[List[Optional[FrozenSet[str]]]]:
    """Per-position character domains *implied* by a conjunction.

    Sound by construction: each assertion contributes the **union** of its
    alternative placements/expansions (a character possible under *any*
    branch stays possible), and assertions are then **intersected** — so a
    character survives iff no assertion rules it out in every branch.
    ``None`` entries mean "unconstrained". Returns ``None`` (no pruning)
    when any assertion is infeasible at this length or an intersection
    empties out — a propagation conflict is *not* a refutation here,
    because the compiled length may rest on lower bounds; the caller skips
    pruning and lets the ordinary solve decide.
    """
    merged: List[Optional[FrozenSet[str]]] = [None] * length
    for assertion in group:
        options = _propagate(variable, assertion, length)
        if options is None:
            continue  # no positional structure; leaf-checked by verify
        if not options:
            return None  # infeasible at this length: no sound pruning
        union = _union_domains(options, length)
        for position, domain in enumerate(union):
            if domain is None:
                continue
            if merged[position] is None:
                merged[position] = domain
            else:
                merged[position] = merged[position] & domain
                if not merged[position]:
                    return None  # conflict: skip pruning, stay sound
    return merged


def _union_domains(
    options: Sequence[List[Optional[FrozenSet[str]]]], length: int
) -> List[Optional[FrozenSet[str]]]:
    """Positionwise union over one assertion's alternative branches."""
    union: List[Optional[FrozenSet[str]]] = [frozenset()] * length
    for domains in options:
        for position in range(length):
            if union[position] is None:
                continue
            domain = domains[position] if position < len(domains) else None
            if domain is None:
                union[position] = None  # free in some branch: free overall
            else:
                union[position] = union[position] | domain
    return union


def implied_bit_clamps(
    domains: Sequence[Optional[FrozenSet[str]]]
) -> Dict[int, int]:
    """Bits every character of a position's domain agrees on.

    Maps global string-bit indices (``position * 7 + bit``, MSB-first) to
    their forced value. Positions with an unconstrained (``None``) or
    empty domain contribute nothing.
    """
    clamps: Dict[int, int] = {}
    for position, domain in enumerate(domains):
        if not domain:
            continue
        rows = [char_to_bits(c) for c in sorted(domain)]
        for bit in range(CHAR_BITS):
            values = {int(row[bit]) for row in rows}
            if len(values) == 1:
                clamps[variable_index(position, bit)] = values.pop()
    return clamps


def _string_bits(formulation: Any) -> Optional[int]:
    """Width of a formulation's string-bit prefix, or None if unknown.

    Composites advertise ``string_bits``, ancilla-carrying children
    ``num_string_bits``; for plain §4 formulations the model width *is*
    the prefix. A width that is not a whole number of characters is
    treated as unknown (no pruning rather than wrong pruning).
    """
    width = getattr(formulation, "string_bits", None)
    if width is None:
        width = getattr(formulation, "num_string_bits", None)
    if width is None:
        width = formulation.build_model().num_variables
    width = int(width)
    if width <= 0 or width % CHAR_BITS:
        return None
    return width


# --------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------- #


class RefinementEngine:
    """One CEGAR run over a compiled problem.

    Built per solve by :meth:`QuantumSMTSolver.solve_compiled` when the
    solver is configured with ``strategy="refine"``. The engine owns an
    independent RNG stream for the reduced anneals so the solver's own
    driver is never advanced — the guaranteed fallback therefore answers
    exactly what a ``strategy="direct"`` solver would at the same seed.
    """

    def __init__(
        self,
        solver: Any,
        *,
        max_rounds: int = 4,
        cache: Optional[CompileCache] = None,
    ) -> None:
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
        self.solver = solver
        self.max_rounds = max_rounds
        self.cache = cache
        self.metrics = solver.metrics
        self.stats = RefineStats()
        seed = getattr(solver, "_seed", None)
        reproducible = seed is None or isinstance(seed, (int, np.integer))
        if seed is None:
            self._rng = np.random.default_rng()
        elif reproducible:
            # Deterministic but decoupled from the driver's stream.
            self._rng = np.random.default_rng(
                np.random.SeedSequence([0x5EF19E, int(seed) & (2**63 - 1)])
            )
        else:
            from repro.utils.rng import spawn_rngs

            (self._rng,) = spawn_rngs(seed, 1)
        # Lemma frames compile through the shared cache, keyed by this
        # spec; a live RNG seed has no cache key and compiles directly.
        self._lemma_spec = (
            SolveSpec(
                penalty_strength=solver.penalty_strength,
                seed=None if seed is None else int(seed),
            )
            if cache is not None and reproducible
            else None
        )

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def solve(self, problem: CompiledProblem, **solve_params: Any):
        """Run the refinement loop; always returns a sound SmtResult."""
        solver = self.solver
        self._count("refine.solves")
        if problem.trivially_unsat or not problem.formulations:
            # Nothing to refine: ground-decided or variable-free problems
            # take the direct path unchanged.
            return solver._solve_direct(problem, **solve_params)

        warm_states = solve_params.pop("warm_states", None)
        # The base conjunction followed by every lemma learned so far.
        assertions = list(solver.assertions)
        blocked: Dict[str, Set[str]] = {v: set() for v in problem.formulations}
        clamp_log: Dict[str, Dict[int, int]] = {}
        current = problem
        # Clamp-aware warm starts: caller-supplied states seed round 0,
        # and every later round reuses the previous round's best
        # *full-width* state per variable — the driver projects it onto
        # whatever index space survives that round's clamps.
        round_warm: Dict[str, np.ndarray] = dict(warm_states or {})

        def solve_variable(variable: str, formulation: Any) -> SolveResult:
            """Prune, reduce, sample and verify one variable of a round."""
            clamps = self._clamps_for(variable, current, formulation)
            if clamps:
                clamp_log.setdefault(variable, {}).update(clamps)
            params = dict(solve_params)
            warm = round_warm.get(variable)
            if warm is not None:
                params["initial_states"] = warm
            return solve_with_retries(
                solver.retry_policy,
                lambda _index: self._anneal(formulation, clamps, params),
                description=f"refine-solve {formulation.describe()}",
                metrics=self.metrics,
                exhausted="refine.retries_exhausted",
            )

        for _round in range(self.max_rounds):
            self.stats.rounds += 1
            self._count("refine.rounds")
            result = decide(
                current,
                solver.assertions,
                solve_variable,
                attempts=solver.max_attempts,
            )
            self._harvest_warm(result, round_warm)
            if result.status is SolveStatus.SAT:
                self._cross_check(result.model, clamp_log)
                solver._count(SolveStatus.SAT)
                return result
            lemmas = self._lemmas_from(result, problem, blocked)
            if not lemmas:
                break  # no provable counterexample left to block
            assertions.extend(lemmas)
            try:
                if self._lemma_spec is None:
                    current = compile_assertions(
                        list(assertions),
                        penalty_strength=solver.penalty_strength,
                        seed=solver._seed,
                    )
                else:
                    current, hit = compile_cached(
                        self._lemma_spec, assertions, self.cache, None
                    )
                    self._count(
                        "refine.compile_hits" if hit else "refine.compile_misses"
                    )
            except CompilationError:
                self._count("refine.lemma_push_failures")
                break
            self.stats.lemmas += len(lemmas)
            self._count("refine.lemmas", len(lemmas))

        # Guaranteed fallback: the unrefined solve of the original
        # problem, on the solver's untouched driver RNG.
        self.stats.fallbacks += 1
        self._count("refine.fallbacks")
        if warm_states is not None:
            solve_params["warm_states"] = warm_states
        fallback = solver._solve_direct(problem, **solve_params)
        if fallback.status is SolveStatus.SAT:
            self._cross_check(fallback.model, clamp_log)
        return fallback

    # ------------------------------------------------------------------ #
    # one round: clamps, warm states and the reduced attempt
    # ------------------------------------------------------------------ #

    def _harvest_warm(self, result: Any, round_warm: Dict[str, np.ndarray]) -> None:
        """Keep each variable's best full-width state for the next round."""
        for variable, solve_result in result.solve_results.items():
            sampleset = getattr(solve_result, "sampleset", None)
            if sampleset is None or len(sampleset) == 0:
                continue
            round_warm[variable] = np.array(sampleset.states[0], dtype=np.int8)

    def _clamps_for(
        self, variable: str, problem: CompiledProblem, formulation: Any
    ) -> Dict[int, int]:
        """Implied-bit clamps for one variable (empty when unprunable)."""
        width = _string_bits(formulation)
        if width is None:
            return {}
        group = problem.per_variable.get(variable, [])
        domains = implied_domains(variable, group, width // CHAR_BITS)
        if domains is None:
            return {}
        clamps = implied_bit_clamps(domains)
        # Never clamp beyond the string prefix: auxiliary/ancilla bits
        # carry no character semantics.
        return {i: b for i, b in clamps.items() if i < width}

    def _anneal(
        self, formulation: Any, clamps: Dict[int, int], params: Dict[str, Any]
    ) -> SolveResult:
        """One reduced attempt through the driver, on the engine's stream.

        The explicit seed keeps the driver's own stream untouched for the
        fallback; a caller-supplied ``seed`` still wins.
        """
        seed = int(self._rng.integers(0, 2**63 - 1))
        result = self.solver._driver.solve(
            formulation, clamps=clamps, **{"seed": seed, **params}
        )
        info = result.info["refine"]
        reduced = info["reduced_variables"]
        self.stats.anneals += 1
        self.stats.pruned_bits += info["clamped_bits"]
        self.stats.qubo_variables.append(reduced)
        self.stats.full_variables.append(info["full_variables"])
        if reduced == 0:
            self.stats.determined += 1
            self._count("refine.determined")
        self._count("refine.pruned_bits", info["clamped_bits"])
        if self.metrics is not None:
            self.metrics.observe("refine.qubo_variables", reduced)
        return result

    # ------------------------------------------------------------------ #
    # lemma learning
    # ------------------------------------------------------------------ #

    def _lemmas_from(
        self,
        result: Any,
        base: CompiledProblem,
        blocked: Dict[str, Set[str]],
    ) -> List[ast.Term]:
        """Blocking lemmas from a failed round's decoded counterexamples.

        A decoded value is only blocked when it *provably* violates one of
        its own base assertions under the concrete semantics — the lemma
        is then implied by the original conjunction, so pushing it can
        never cut off a real model.
        """
        lemmas: List[ast.Term] = []
        for variable, solve_result in result.solve_results.items():
            value = solve_result.output
            if not isinstance(value, str):
                continue
            if value in blocked.get(variable, ()):
                continue
            group = base.per_variable.get(variable, [])
            try:
                fails = not all(
                    eval_formula(a, {variable: value}) for a in group
                )
            except TheoryError:
                continue  # cannot prove the value bad: do not block it
            if fails:
                blocked.setdefault(variable, set()).add(value)
                lemmas.append(
                    ast.Not(ast.Eq(ast.StrVar(variable), ast.StrLit(value)))
                )
        return lemmas

    # ------------------------------------------------------------------ #
    # soundness guard
    # ------------------------------------------------------------------ #

    def _cross_check(
        self, model: Dict[str, str], clamp_log: Dict[str, Dict[int, int]]
    ) -> None:
        """A verified model must satisfy every derived implied bit."""
        for variable, clamps in clamp_log.items():
            value = model.get(variable)
            if value is None or not clamps:
                continue
            try:
                bits = encode_string(value)
            except (ValueError, UnicodeEncodeError):
                continue
            for index, expected in clamps.items():
                if index < len(bits) and int(bits[index]) != expected:
                    self._count("refine.unsound")
                    raise UnsoundPropagationError(
                        f"propagation claimed bit {index} of {variable!r} is "
                        f"{expected}, but the verified model "
                        f"{value!r} has {int(bits[index])} — the derived "
                        f"domain fact was unsound"
                    )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)
