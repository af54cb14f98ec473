"""Cross-request fused solving: tile many compiled QUBOs into one kernel call.

The shared engine behind ``BatchSolver(executor="fused")`` and the server's
micro-batching collector (:mod:`repro.server.workers`). Where the thread /
serial executors pay one full solve pipeline per item, this engine:

1. compiles every item through the shared
   :class:`~repro.service.cache.CompileCache`,
2. collects all ``(variable, formulation)`` QUBOs across items,
3. fuses them into block-diagonal tiles of at most ``tile_max`` blocks
   (:func:`repro.qubo.tile.tile_models`) and solves each tile with one
   ``sample_tiled`` kernel call,
4. decodes/verifies each block back into per-variable
   :class:`~repro.core.solver.SolveResult`\\ s, and
5. falls back to the untiled per-item solve path —
   :func:`repro.service.spec.execute` with the full retry policy,
   bit-identical to the thread/serial executors — for any item whose fused
   first pass fails verification or the final model check, or whose tile
   kernel call raised.

Determinism & chunking
----------------------
The tiler's batch-invariance contract (each block's RNG stream is keyed by
``(base_seed, block content hash)``) makes the *chunking irrelevant to
results*: a block solves identically whether its tile holds 1 or
``tile_max`` neighbors, so outcomes at a fixed seed do not depend on batch
arrival order, queue depth, or ``tile_max``. The fused first pass draws
different streams than the solo path's spawned per-call seeds, so a fused
item may differ from its thread-executor result — but the soundness
contract is unchanged (``sat`` only ever reports a *verified* model) and
fallbacks reproduce the solo path exactly.

The single fused pass has no per-variable retry loop; the retry policy is
applied by the fallback. Counters: ``fused.tiles``, ``fused.blocks``,
``fused.fallbacks``, ``fused.trivial``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core.solver import result_from_sampleset
from repro.qubo.tile import tile_models
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveOutcome, SolveSpec, compile_cached, execute
from repro.smt import ast
from repro.smt.compiler import CompilationError
from repro.smt.solver import decide
from repro.smt.status import SolveStatus

__all__ = ["FusedItemOutcome", "solve_batch_fused"]

#: The fused executor's per-item outcome is the shared single-item type;
#: its ``path`` field records how the item was decided.
FusedItemOutcome = SolveOutcome


@dataclass
class _PendingItem:
    """Book-keeping for one item while the batch is in flight."""

    assertions: List[ast.Term]
    policy: Optional[RetryPolicy]
    problem: Any = None
    cache_hit: bool = False
    wall: float = 0.0
    outcome: Optional[SolveOutcome] = None
    #: Per-variable fused sample sets; ``None`` once a tile holding one of
    #: this item's blocks failed.
    samplesets: Optional[Dict[str, Any]] = field(default_factory=dict)


def solve_batch_fused(
    assertion_sets: Sequence[Sequence[ast.Term]],
    spec: SolveSpec,
    *,
    policies: Optional[Sequence[Optional[RetryPolicy]]] = None,
    cache: Optional[CompileCache] = None,
    metrics: Optional[MetricsRegistry] = None,
    tile_max: int = 16,
    solve_params: Optional[Dict[str, Any]] = None,
) -> List[SolveOutcome]:
    """Solve many assertion conjunctions through block-diagonal tiling.

    *spec* configures the tile pass and every per-item fallback;
    ``policies`` optionally supplies a per-item retry policy (the server
    clamps each request's policy into its deadline), overriding
    ``spec.policy`` for that item's fallback solve. Returns one
    :class:`~repro.service.spec.SolveOutcome` per item, in order.
    """
    if tile_max < 1:
        raise ValueError(f"tile_max must be >= 1, got {tile_max}")
    if policies is not None and len(policies) != len(assertion_sets):
        raise ValueError(
            f"policies must match assertion_sets length "
            f"({len(assertion_sets)}), got {len(policies)}"
        )
    cache = cache if cache is not None else CompileCache(maxsize=256)
    metrics = metrics if metrics is not None else MetricsRegistry()
    solve_params = dict(solve_params or {})
    items = [
        _PendingItem(list(assertions), policies[i] if policies is not None else None)
        for i, assertions in enumerate(assertion_sets)
    ]

    def fallback(item: _PendingItem, path: str) -> SolveOutcome:
        outcome = execute(
            spec,
            item.assertions,
            cache=cache,
            metrics=metrics,
            policy=item.policy,
            solve_params=solve_params,
            compiled=item.problem,
        )
        outcome.path = path
        return outcome

    # ---- phase 1: compile (shared cache), settle trivial/error items ---- #
    for item in items:
        start = time.perf_counter()
        try:
            item.problem, item.cache_hit = compile_cached(
                spec, item.assertions, cache, metrics
            )
            metrics.counter("cache.hits" if item.cache_hit else "cache.misses").inc()
        except CompilationError as exc:  # out-of-fragment → unknown
            item.outcome = SolveOutcome.failed(exc)
            item.outcome.path = "error"
        else:
            if item.problem.trivially_unsat or not item.problem.formulations:
                # No sampling needed: solve_compiled short-circuits to
                # unsat / evaluates the ground conjunction.
                metrics.counter("fused.trivial").inc()
                item.outcome = fallback(item, "trivial")
        item.wall += time.perf_counter() - start

    # ---- phase 2: tile the pending QUBOs and solve fused ---- #
    entries = []  # (item, variable, model)
    with metrics.time("build"):
        for item in items:
            if item.outcome is not None:
                continue
            for variable, formulation in item.problem.formulations.items():
                entries.append((item, variable, formulation.build_model()))

    sampler = spec.sampler() or SimulatedAnnealingSampler()
    tile_params = {**spec.sampler_params, **solve_params}
    tile_params.setdefault("num_reads", spec.num_reads)
    base_seed = tile_params.pop("seed", spec.seed)
    for lo in range(0, len(entries), tile_max):
        chunk = entries[lo : lo + tile_max]
        tiled = tile_models([entry[2] for entry in chunk])
        start = time.perf_counter()
        try:
            with metrics.time("anneal"):
                samplesets = sampler.sample_tiled(
                    tiled, seed=base_seed, **tile_params
                )
        except Exception:  # noqa: BLE001 — the tile's items fall back per item
            samplesets = [None] * len(chunk)
        share = (time.perf_counter() - start) / len(chunk)
        metrics.counter("fused.tiles").inc()
        metrics.counter("fused.blocks").inc(len(chunk))
        for (item, variable, _), sampleset in zip(chunk, samplesets):
            if sampleset is None or item.samplesets is None:
                item.samplesets = None
            else:
                item.samplesets[variable] = sampleset
            item.wall += share

    # ---- phase 3: decode/verify per item; fall back where needed ---- #
    for item in items:
        if item.outcome is None:
            start = time.perf_counter()
            item.outcome = _settle_item(item, metrics)
            if item.outcome is None:
                # The fused single pass missed (or its tile failed); re-solve
                # solo with the full retry policy — bit-identical to the
                # thread/serial executor path.
                metrics.counter("fused.fallbacks").inc()
                item.outcome = fallback(item, "fallback")
            item.wall += time.perf_counter() - start
        item.outcome.cache_hit = item.cache_hit
        item.outcome.wall_time = item.wall

    return [item.outcome for item in items]


def _settle_item(
    item: _PendingItem, metrics: MetricsRegistry
) -> Optional[SolveOutcome]:
    """Decode one item's fused blocks; ``None`` on any verification miss.

    The per-variable loop and final model check are the direct path's own
    (:func:`repro.smt.solver.decide`); each variable's answer is a decode
    of its fused sample set, with no retry.
    """
    if item.samplesets is None:
        return None
    with metrics.time("decode"):
        result = decide(
            item.problem,
            item.assertions,
            lambda variable, formulation: result_from_sampleset(
                formulation, item.samplesets[variable]
            ),
            attempts=1,
        )
    if result.status is not SolveStatus.SAT:
        return None
    metrics.counter("smt.check_sat").inc()
    metrics.counter("smt.sat").inc()
    return SolveOutcome(result=result, path="fused")
