"""The solver worker pool: executor-thread solves behind the asyncio server.

Each admitted request is solved on a worker thread by
:func:`repro.service.spec.execute` — a **fresh**
:class:`~repro.smt.solver.QuantumSMTSolver` seeded with the server's base
seed, the same path as :class:`~repro.service.batch.BatchSolver` — so a
served answer is bit-identical to a direct
``QuantumSMTSolver(seed=...).check_sat()`` at the same seed, independent
of worker count, queue order and cache state. Compilation is deduplicated
through one shared :class:`~repro.service.cache.CompileCache`; stage
timings and outcome counters land in one shared
:class:`~repro.service.metrics.MetricsRegistry`.

Deadline composition
--------------------
The per-request deadline composes with the configured
:class:`~repro.service.policy.RetryPolicy` rather than replacing it: the
effective policy for a request clamps the per-attempt timeout to the
remaining deadline budget (``min(policy.attempt_timeout, remaining)``),
and the event-loop side enforces the deadline authoritatively with
``asyncio.wait_for``. A worker thread cannot be preempted mid-attempt
(the same abandonment contract as :class:`RetryPolicy`), so a timed-out
solve also flips a cancellation event that the retry loop checks between
attempts — bounding the orphaned work to at most one attempt.

Because the admission slot is released as soon as a deadline fires while
the abandoned thread may still be mid-attempt, the executor is sized at
``2 × workers``: the headroom keeps a thread available for each freshly
admitted request even under a timeout storm where every slot's previous
occupant is still finishing its last abandoned attempt, so admitted work
never queues invisibly inside the executor outside the queue_ms /
deadline accounting.

Micro-batching (opt-in)
-----------------------
With ``batch_window_ms > 0`` the pool fuses concurrent requests instead of
solving each on its own thread: an event-loop collector gathers admitted
requests for up to one window (or until ``batch_max`` are waiting), then
dispatches the group to a single executor call that block-diagonally tiles
their QUBOs through :func:`repro.service.fused.solve_batch_fused` — one
fused sweep loop for the whole group. The tiler's content-keyed RNG makes
each request's fused result independent of its batch-mates, so answers do
not depend on traffic timing; requests whose fused pass misses fall back
to the ordinary per-item solve inside the same executor call. Requests
carrying explicit per-request solve parameters bypass batching. Deadlines
on batched requests are enforced on the event-loop side only (the
abandoned request's share of the fused result is discarded; its clamped
retry policy still bounds fallback work). Batching pays off when
``workers`` is at least the intended batch size — each admission slot
maps to a request waiting in some batch.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.server.admission import DeadlineExceededError
from repro.service.cache import CacheStats, CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveOutcome, SolveSpec, execute
from repro.service.spec import outcome_from_optimize  # noqa: F401 — re-export
from repro.smt import ast

__all__ = ["SolveCancelled", "SolveOutcome", "SolverWorkerPool"]


class SolveCancelled(RuntimeError):
    """Raised inside a worker thread when its request was abandoned."""


@dataclass
class _BatchItem:
    """One request parked in the micro-batch collector."""

    assertions: List[ast.Term]
    policy: RetryPolicy
    future: "asyncio.Future[SolveOutcome]"


class SolverWorkerPool:
    """Run ``QuantumSMTSolver`` solves on executor threads.

    Mirrors :class:`~repro.service.batch.BatchSolver`'s determinism
    contract (fresh solver per item, shared cache/metrics/policy) with an
    async front door and per-request deadlines.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        num_reads: int = 64,
        seed: Optional[int] = None,
        sampler_params: Optional[Dict[str, Any]] = None,
        sampler_factory: Optional[Any] = None,
        penalty_strength: float = 1.0,
        policy: Optional[RetryPolicy] = None,
        cache: Optional[CompileCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        batch_window_ms: float = 0.0,
        batch_max: int = 8,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = SolveSpec(
            num_reads=num_reads,
            seed=seed,
            sampler_params=sampler_params,
            sampler_factory=sampler_factory,
            penalty_strength=penalty_strength,
            policy=policy,
            strategy=strategy,
            refine_max_rounds=refine_max_rounds,
            opt_max_restarts=opt_max_restarts,
            opt_exhaustive_bits=opt_exhaustive_bits,
        )
        if batch_window_ms > 0 and strategy != "direct":
            raise ValueError(
                "micro-batching requires strategy='direct'; fused tiles "
                "bypass the per-request refinement loop"
            )
        if batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                "the server needs a reproducible seed (int or None); live "
                f"RNG objects cannot be shared across workers: {type(seed)!r}"
            )
        self.workers = workers
        self.cache = cache if cache is not None else CompileCache(maxsize=256)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Sized at 2× the slot count, not 1×: when a deadline expires the
        # admission slot is released immediately but the abandoned thread
        # may still run one final attempt. With exactly `workers` threads a
        # freshly admitted request would then queue *invisibly* inside the
        # executor (its queue_ms/deadline accounting missing that hidden
        # wait). The headroom gives every admission slot a thread even if
        # its previous occupant is finishing an abandoned attempt; solver
        # concurrency stays bounded by the admission queue's `workers`
        # slots, so the extra threads are mostly parked.
        self._executor = ThreadPoolExecutor(
            max_workers=workers * 2, thread_name_prefix="server-solver"
        )
        self.batch_window_ms = batch_window_ms
        self.batch_max = batch_max
        self._batch_queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._dispatches: set = set()

    def cache_stats(self) -> CacheStats:
        """The shared compile cache's statistics (backend-uniform API)."""
        return self.cache.stats

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    async def solve(
        self,
        assertions: Sequence[ast.Term],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Solve one assertion conjunction on a worker thread.

        Raises :class:`~repro.server.admission.DeadlineExceededError` when
        *remaining* elapses before the solve completes (the thread is told
        to stop retrying and abandoned).
        """
        if self.batch_window_ms > 0 and not solve_params:
            # Requests with explicit per-request solve parameters cannot
            # share a fused kernel call (the tile solves with one parameter
            # set); they take the ordinary per-thread path below.
            return await self._solve_batched(list(assertions), remaining)
        return await self._run(list(assertions), [], remaining, solve_params)

    async def optimize(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[ast.SoftAssertion],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Run one weighted-MaxSMT optimization on a worker thread.

        Weighted requests never micro-batch — the fused tiler solves
        sat-only QUBOs, and the anytime driver manages its own restart
        schedule. The remaining deadline budget is handed to the driver as
        its anytime ``deadline_ms`` (it stops opening restarts past it);
        the event-loop ``wait_for`` stays authoritative.
        """
        return await self._run(
            list(assertions), list(soft_assertions), remaining, solve_params
        )

    async def _run(
        self,
        assertions: List[ast.Term],
        soft: List[ast.SoftAssertion],
        remaining: Optional[float],
        solve_params: Optional[Dict[str, Any]],
    ) -> SolveOutcome:
        """Execute one request on a worker thread under its deadline."""
        cancelled = threading.Event()
        self.metrics.counter("server.solves").inc()
        if soft:
            self.metrics.counter("server.optimizes").inc()
        run = partial(
            execute,
            self.spec,
            assertions,
            soft,
            cache=self.cache,
            metrics=self.metrics,
            policy=_CancellablePolicy(self.spec.policy_within(remaining), cancelled),
            remaining=remaining,
            solve_params=solve_params,
        )
        future = asyncio.get_running_loop().run_in_executor(self._executor, run)
        try:
            return await self._within(future, remaining)
        finally:
            # Stops an abandoned (timed-out or cancelled) thread's retry
            # loop before its next attempt; a no-op once the solve is done.
            cancelled.set()

    async def _within(self, awaitable: Any, remaining: Optional[float]) -> Any:
        """Await *awaitable* within the request's remaining deadline."""
        try:
            if remaining is None:
                return await awaitable
            return await asyncio.wait_for(awaitable, timeout=max(remaining, 1e-3))
        except asyncio.TimeoutError:
            self.metrics.counter("server.timeout").inc()
            self.metrics.counter("server.timeout.solving").inc()
            raise DeadlineExceededError("solving", remaining or 0.0) from None

    # ------------------------------------------------------------------ #
    # micro-batching
    # ------------------------------------------------------------------ #

    async def _solve_batched(
        self, assertions: List[ast.Term], remaining: Optional[float]
    ) -> SolveOutcome:
        """Park the request in the collector and await its fused outcome."""
        self._ensure_collector()
        loop = asyncio.get_running_loop()
        item = _BatchItem(
            assertions=assertions,
            policy=self.spec.policy_within(remaining),
            future=loop.create_future(),
        )
        self._batch_queue.put_nowait(item)
        # shield(): a deadline must not cancel the shared future — the
        # dispatcher still resolves it for the batch's other members.
        return await self._within(asyncio.shield(item.future), remaining)

    def _ensure_collector(self) -> None:
        if self._collector is None or self._collector.done():
            if self._batch_queue is None:
                self._batch_queue = asyncio.Queue()
            self._collector = asyncio.get_running_loop().create_task(
                self._collect(), name="server-batch-collector"
            )

    async def _collect(self) -> None:
        """Gather requests for one window (or ``batch_max``), then dispatch.

        Dispatch happens on a separate task so collection of the next
        batch starts immediately — the window bounds *latency added by
        batching*, not solve turnaround.
        """
        window = self.batch_window_ms / 1000.0
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._batch_queue.get()]
            deadline = loop.time() + window
            while len(batch) < self.batch_max:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(
                            self._batch_queue.get(), timeout=timeout
                        )
                    )
                except asyncio.TimeoutError:
                    break
            task = loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, batch: List[_BatchItem]) -> None:
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._solve_batch_blocking, batch
            )
        except Exception as exc:  # noqa: BLE001 — boundary: degrade, don't crash
            outcomes = [SolveOutcome.failed(exc) for _ in batch]
        for item, outcome in zip(batch, outcomes):
            # done() guards against requests that timed out while fused.
            if not item.future.done():
                item.future.set_result(outcome)

    def _solve_batch_blocking(self, batch: List[_BatchItem]) -> List[SolveOutcome]:
        from repro.service.fused import solve_batch_fused

        self.metrics.counter("server.batches").inc()
        self.metrics.counter("server.batched_solves").inc(len(batch))
        self.metrics.counter("server.solves").inc(len(batch))
        self.metrics.observe("server.batch_size", float(len(batch)))
        return solve_batch_fused(
            [item.assertions for item in batch],
            self.spec,
            policies=[item.policy for item in batch],
            cache=self.cache,
            metrics=self.metrics,
            tile_max=self.batch_max,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = False) -> None:
        """Stop the executor; abandoned attempts are never joined.

        The batch collector and in-flight dispatch tasks are cancelled;
        requests still parked in a batch are being cancelled by the server
        drain at this point, so their unresolved futures are moot.
        """
        if self._collector is not None:
            self._collector.cancel()
        for task in list(self._dispatches):
            task.cancel()
        self._executor.shutdown(wait=wait, cancel_futures=True)


class _CancellablePolicy:
    """A ``RetryPolicy`` facade that stops retrying once a request is
    abandoned (deadline hit or server shutdown).

    ``QuantumSMTSolver`` only calls ``run`` and reads ``max_attempts``; the
    facade forwards both, injecting a pre-attempt cancellation check so an
    abandoned thread does at most one more attempt.
    """

    def __init__(self, policy: RetryPolicy, cancelled: threading.Event) -> None:
        self._policy = policy
        self._cancelled = cancelled
        self.max_attempts = policy.max_attempts

    def run(self, attempt, **kwargs):
        def guarded(index: int):
            if self._cancelled.is_set():
                raise SolveCancelled("request abandoned; stopping retries")
            return attempt(index)

        return self._policy.run(guarded, **kwargs)
