"""Concurrent batch solving with a shared compile cache and metrics.

:class:`BatchSolver` is the service entry point for high-volume workloads
(input validation, symbolic execution): it accepts many SMT-LIB scripts /
constraint sets at once, deduplicates compilation through the content-hash
:class:`~repro.service.cache.CompileCache`, solves the items over a worker
pool, and reports per-stage timings plus cache statistics through a
:class:`~repro.service.metrics.MetricsRegistry`.

Determinism contract
--------------------
Every item goes through :func:`repro.service.spec.execute` — a **fresh**
:class:`~repro.smt.solver.QuantumSMTSolver` seeded with the batch's base
seed — so for a fixed seed each item's result is
bit-identical to running ``QuantumSMTSolver(seed=...).check_sat()`` on that
item alone — independent of worker count, executor choice and cache state.
(The compile cache is sound because compilation is a pure function of
``(assertions, penalty_strength, seed)``; see ``cache.py``.)

Thread-safety: samplers are constructed per item via ``sampler_factory``;
cache and metrics are internally locked; per-item solvers are private to
their worker. Compiled models travel between cache and workers as
coefficient-dict-backed :class:`~repro.qubo.model.QuboModel` objects —
dense/CSR matrix views are lazy, read-only, and excluded from pickling —
and every sampler kernel runs on the CSR form, which the bit-local
string QUBOs this service batches suit.
"""

from __future__ import annotations

import concurrent.futures as cf
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.anneal.base import Sampler
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveOutcome, SolveSpec, execute
from repro.smt import ast
from repro.smt.parser import SmtScript, parse_script
from repro.utils.timing import Timer

__all__ = ["BatchItemResult", "BatchReport", "BatchSolver"]

#: Accepted batch item shapes: SMT-LIB source text, a parsed script, or a
#: sequence of Bool-sorted AST terms (an assertion conjunction).
BatchItem = Union[str, SmtScript, Sequence[ast.Term]]


@dataclass(repr=False)
class BatchItemResult(SolveOutcome):
    """Outcome of one batch item: a :class:`SolveOutcome` plus its index."""

    index: int = 0

    def __repr__(self) -> str:
        if self.opt_status:
            return (
                f"BatchItemResult(index={self.index}, "
                f"opt_status={self.opt_status!r}, "
                f"objective={self.objective!r})"
            )
        return (
            f"BatchItemResult(index={self.index}, status={self.status!r}, "
            f"cache_hit={self.cache_hit})"
        )


@dataclass
class BatchReport:
    """All item results plus the batch-level statistics."""

    items: List[BatchItemResult] = field(default_factory=list)
    wall_time: float = 0.0
    cache_stats: Optional[Any] = None
    metrics: Optional[Dict[str, Dict]] = None

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> BatchItemResult:
        return self.items[index]

    @property
    def statuses(self) -> List[str]:
        return [item.status for item in self.items]

    @property
    def models(self) -> List[Dict[str, str]]:
        return [item.model for item in self.items]

    @property
    def ok(self) -> bool:
        """True when no item failed with an error."""
        return all(not item.error for item in self.items)

    def __repr__(self) -> str:
        from collections import Counter as _Counter

        counts = dict(_Counter(self.statuses))
        return f"BatchReport(n={len(self.items)}, statuses={counts})"


class BatchSolver:
    """Solve many constraint sets concurrently with compile caching.

    Parameters
    ----------
    sampler_factory:
        Zero-argument callable producing a fresh sampler per item (samplers
        are not assumed thread-safe). ``None`` uses each solver's default
        simulated annealer — the paper's configuration.
    num_reads, seed, sampler_params, penalty_strength:
        Fields of the batch's :class:`~repro.service.spec.SolveSpec`, from
        which every item's fresh solver is built. The *same* base seed is
        used for every item, which is exactly what makes batch results
        element-wise reproducible against the sequential path.
    policy:
        Shared :class:`RetryPolicy` (default: 3 attempts, no backoff).
    cache:
        Shared :class:`CompileCache` (default: a fresh 256-entry cache).
    metrics:
        Shared :class:`MetricsRegistry` (default: a fresh registry).
    num_workers:
        Worker-pool width for ``executor="thread"``.
    executor:
        ``"thread"`` (default), ``"serial"``, or ``"fused"``. The serial
        mode runs the identical code path without a pool and is the
        reproducibility reference. ``"fused"``
        routes the batch through :func:`repro.service.fused.solve_batch_fused`,
        which block-diagonally tiles the items' QUBOs into joint kernel
        calls (at most ``tile_max`` blocks per call) — one fused sweep
        loop instead of one per item. Items whose single fused pass fails
        verification fall back to the per-item path, so statuses keep the
        same soundness contract; see :mod:`repro.service.fused` for the
        determinism fine print.
    tile_max:
        Maximum QUBO blocks fused per kernel call (``executor="fused"``
        only; default 16).

    Examples
    --------
    >>> batch = BatchSolver(seed=7, num_reads=32,
    ...                     sampler_params={"num_sweeps": 300})
    >>> scripts = ['(declare-const x String)(assert (= x "hi"))(check-sat)'] * 3
    >>> report = batch.solve_batch(scripts)
    >>> report.statuses
    ['sat', 'sat', 'sat']
    >>> report.cache_stats.hits
    2
    """

    def __init__(
        self,
        sampler_factory: Optional[Callable[[], Sampler]] = None,
        *,
        num_reads: int = 64,
        seed: Optional[int] = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        penalty_strength: float = 1.0,
        max_attempts: int = 3,
        policy: Optional[RetryPolicy] = None,
        cache: Optional[CompileCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        num_workers: int = 4,
        executor: str = "thread",
        tile_max: int = 16,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_deadline_ms: Optional[float] = None,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.spec = SolveSpec(
            num_reads=num_reads,
            seed=seed,
            sampler_params=sampler_params,
            sampler_factory=sampler_factory,
            penalty_strength=penalty_strength,
            policy=(
                policy if policy is not None else RetryPolicy(max_attempts=max_attempts)
            ),
            strategy=strategy,
            refine_max_rounds=refine_max_rounds,
            opt_max_restarts=opt_max_restarts,
            opt_deadline_ms=opt_deadline_ms,
            opt_exhaustive_bits=opt_exhaustive_bits,
        )
        if executor == "fused" and strategy != "direct":
            raise ValueError(
                "executor='fused' requires strategy='direct'; fused tiles "
                "bypass the per-item refinement loop"
            )
        if executor not in ("thread", "serial", "fused"):
            raise ValueError(
                f"executor must be 'thread', 'serial' or 'fused', got {executor!r}"
            )
        if tile_max < 1:
            raise ValueError(f"tile_max must be >= 1, got {tile_max}")
        self.cache = cache if cache is not None else CompileCache(maxsize=256)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.num_workers = num_workers
        self.executor = executor
        self.tile_max = tile_max

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def solve_batch(
        self, items: Sequence[BatchItem], **solve_params: Any
    ) -> BatchReport:
        """Solve every item; results come back in submission order."""
        pairs = [self._coerce(item) for item in items]
        run = partial(
            execute,
            self.spec,
            cache=self.cache,
            metrics=self.metrics,
            solve_params=solve_params,
        )

        with Timer() as timer:
            if self.executor == "fused":
                outcomes = self._solve_fused(pairs, run, solve_params)
            elif self.executor == "serial" or len(pairs) <= 1:
                outcomes = [run(hard, soft) for hard, soft in pairs]
            else:
                width = min(self.num_workers, len(pairs))
                with cf.ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="batch-solver"
                ) as pool:
                    outcomes = list(pool.map(lambda pair: run(*pair), pairs))
            results = [
                self._record(index, outcome) for index, outcome in enumerate(outcomes)
            ]

        wall = timer.elapsed
        self.metrics.counter("batch.runs").inc()
        self.metrics.observe("batch.wall", wall)
        return BatchReport(
            items=results,
            wall_time=wall,
            cache_stats=self.cache.stats,
            metrics=self.export_metrics(),
        )

    def solve_scripts(self, scripts: Sequence[str], **solve_params: Any) -> BatchReport:
        """Convenience alias: every item is SMT-LIB source text."""
        return self.solve_batch(list(scripts), **solve_params)

    def _solve_fused(
        self,
        pairs: List[Tuple[List[ast.Term], List[ast.SoftAssertion]]],
        run: Callable[..., SolveOutcome],
        solve_params: Dict[str, Any],
    ) -> List[SolveOutcome]:
        """The ``executor="fused"`` path: tile QUBOs across items.

        Plain items go through :func:`repro.service.fused.solve_batch_fused`
        (sharing this solver's spec, cache and metrics). Weighted items
        cannot join a fused tile (the tiler solves sat-only QUBOs); they
        take the per-item optimize path and are stitched back in
        submission order.
        """
        from repro.service.fused import solve_batch_fused

        outcomes: List[Optional[SolveOutcome]] = [
            run(hard, soft) if soft else None for hard, soft in pairs
        ]
        plain = [index for index, (_, soft) in enumerate(pairs) if not soft]
        if plain:
            fused = solve_batch_fused(
                [pairs[index][0] for index in plain],
                self.spec,
                cache=self.cache,
                metrics=self.metrics,
                tile_max=self.tile_max,
                solve_params=solve_params,
            )
            for index, outcome in zip(plain, fused):
                outcomes[index] = outcome
        return outcomes

    def _record(self, index: int, outcome: SolveOutcome) -> BatchItemResult:
        """Count one finished item into the ``batch.*`` metrics."""
        self.metrics.counter("batch.items").inc()
        self.metrics.observe("batch.item_wall", outcome.wall_time)
        self.metrics.counter(f"batch.{outcome.status}").inc()
        if outcome.opt_status:
            self.metrics.counter("batch.optimizes").inc()
            self.metrics.counter(f"batch.opt.{outcome.opt_status}").inc()
        return BatchItemResult(index=index, **vars(outcome))

    # ------------------------------------------------------------------ #
    # per-item work
    # ------------------------------------------------------------------ #

    def _coerce(
        self, item: BatchItem
    ) -> Tuple[List[ast.Term], List[ast.SoftAssertion]]:
        """Normalize one batch item to ``(hard, soft)`` conjunctions.

        Scripts carry their ``assert-soft`` commands through; sequences
        may mix :class:`~repro.smt.ast.SoftAssertion` records into the
        hard terms and are partitioned here. Items with any soft
        assertion route to the weighted-MaxSMT optimize path.
        """
        if isinstance(item, str):
            script = parse_script(item)
            return list(script.assertions), list(script.soft_assertions)
        if isinstance(item, SmtScript):
            return list(item.assertions), list(item.soft_assertions)
        if isinstance(item, (list, tuple)):
            hard = [t for t in item if not isinstance(t, ast.SoftAssertion)]
            soft = [t for t in item if isinstance(t, ast.SoftAssertion)]
            return hard, soft
        raise TypeError(
            "batch items must be SMT-LIB text, an SmtScript, or a sequence "
            f"of assertions; got {type(item)!r}"
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def export_metrics(self) -> Dict[str, Dict]:
        """Metrics snapshot including cache statistics (JSON-serializable)."""
        export = self.metrics.export()
        stats = self.cache.stats
        export["cache"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
            "maxsize": stats.maxsize,
            "hit_rate": stats.hit_rate,
        }
        return export

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        """The metrics export rendered as JSON (the benchmarks' format)."""
        import json

        return json.dumps(self.export_metrics(), indent=indent, sort_keys=True)
