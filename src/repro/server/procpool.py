"""Process-pool solve backend: the server's escape from the GIL.

:class:`ProcessSolverBackend` is a drop-in sibling of
:class:`~repro.server.workers.SolverWorkerPool` (selected via
``ServerConfig.backend="process"`` / ``--backend process``): the same
``async solve(assertions, remaining=...) -> SolveOutcome`` front door, but
each solve runs in one of ``workers`` **long-lived worker processes**
instead of an executor thread. Annealing is CPU-bound pure-Python/numpy
work, so on a multi-core host this turns the serving layer's ceiling from
"one core of Python" into "``workers`` cores".

Transport
---------
The solver configuration crosses once, as the pickled
:class:`~repro.service.spec.SolveSpec` each worker is spawned with. Jobs
cross the process boundary over :func:`multiprocessing.Pipe` as plain
pickles: the assertion AST (frozen dataclasses), the solve params and the
remaining deadline budget the worker clamps the retry policy to. Replies
carry the full :class:`~repro.smt.solver.SmtResult`
(CSR-backed sample sets pickle O(nnz), the PR 2 payload discipline), so a
process-backend answer is **byte-identical** to the thread backend and to
a direct ``check_sat`` at the same seed — the cross-backend bit-identity
property suite pins this.

Each worker owns a *local* :class:`~repro.service.cache.CompileCache`
(caches cannot be shared across processes without serializing every hit);
workers report per-solve hit/miss flags and cache snapshots back to the
parent, which aggregates them into the shared
:class:`~repro.service.metrics.MetricsRegistry` so ``/metrics`` keeps one
schema across backends. Content-hash shard routing (see
:mod:`repro.server.router`) exists precisely to keep repeated formulas
landing on the same server — and therefore the same worker caches.

Failure containment
-------------------
* **Deadline-aware cancellation.** A worker process cannot be preempted
  mid-anneal any more than a thread can — but it *can* be killed. When a
  request's deadline fires, the parent abandons the job, SIGKILLs the
  worker and respawns it; unlike the thread backend there is zero orphaned
  work.
* **Crash detection.** A worker dying mid-job (segfault, OOM-kill) is
  detected as EOF on its pipe; the request fails with a typed
  :class:`WorkerCrashError`, which the app layer maps onto an ``internal``
  envelope — never a hung client.
* **Respawn with backoff.** Consecutive crashes back the respawn off
  exponentially (``backoff_initial × 2^k``, capped), so a worker that dies
  at startup degrades pool capacity instead of pinning a respawn storm;
  one successful solve resets the clock.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.server.admission import DeadlineExceededError
from repro.service.cache import CacheStats, CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveOutcome, SolveSpec, execute
from repro.smt import ast

__all__ = ["ProcessSolverBackend", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A worker process died while holding a job (typed ``internal``)."""

    def __init__(self, worker_id: int, detail: str) -> None:
        super().__init__(
            f"solver worker process #{worker_id} died mid-solve ({detail}); "
            "the worker has been respawned"
        )
        self.worker_id = worker_id


# --------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------- #


def _worker_main(conn, spec: SolveSpec, cache_size: int) -> None:
    """Entry point of one long-lived solver process.

    Loops ``recv → execute → send`` until it receives ``None``: each job is
    one :func:`~repro.service.spec.execute` call (a fresh solver per job,
    the determinism recipe shared with the thread backend and BatchSolver)
    against one local CompileCache. Every failure is folded into the
    reply's outcome; an exception escaping this loop kills the process,
    which the parent detects as a crash.
    """
    import signal

    # Workers share the foreground process group, so a terminal Ctrl-C
    # delivers SIGINT here too. Lifecycle is managed by the parent (None
    # sentinel on the pipe, or kill on deadline/shutdown) — the default
    # KeyboardInterrupt would only splat tracebacks over a clean drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    cache = CompileCache(maxsize=cache_size)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        if job is None:
            return
        assertions, soft_assertions, solve_params, remaining = job
        outcome = execute(
            spec,
            assertions,
            soft_assertions,
            cache=cache,
            metrics=None,
            remaining=remaining,
            solve_params=solve_params,
        )
        stats = cache.stats
        try:
            conn.send((outcome, (stats.hits, stats.misses, stats.evictions, stats.size)))
        except (BrokenPipeError, OSError):
            return


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: Latest (hits, misses, evictions, size) snapshot of the worker's
        #: local compile cache, reported with every reply.
        self.cache_snapshot: Tuple[int, int, int, int] = (0, 0, 0, 0)

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):  # pragma: no cover - already dead
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ProcessSolverBackend:
    """Run solves on long-lived worker processes (one solver slot each).

    Mirrors :class:`~repro.server.workers.SolverWorkerPool`'s construction
    signature and determinism contract; differences are confined to the
    transport (pipes instead of shared memory) and the failure modes
    documented in the module docstring.

    ``sampler_factory`` must be picklable (a module-level callable or an
    instance of a module-level class) — it is shipped to the worker at
    spawn time; lambdas raise at construction, not at first request.
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
        cache_size: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        mp_context: str = "spawn",
        backoff_initial: float = 0.1,
        backoff_max: float = 5.0,
        strategy: str = "direct",
        refine_max_rounds: int = 4,
        opt_max_restarts: int = 4,
        opt_exhaustive_bits: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        #: Pickled to every worker process at spawn time.
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
        if seed is not None and not isinstance(seed, int):
            raise TypeError(
                "the process backend needs a reproducible seed (int or None); "
                f"live RNG objects cannot cross the process boundary: {type(seed)!r}"
            )
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache_size = cache_size
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self._ctx = multiprocessing.get_context(mp_context)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._consecutive_crashes = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Free workers; checked out for the duration of one solve.
        self._free: "asyncio.Queue[_WorkerHandle]" = asyncio.Queue()
        #: Every live handle (free or busy), for shutdown.
        self._handles: List[_WorkerHandle] = []
        # One blocking pipe-recv per in-flight solve (≤ workers) plus send
        # slack — mirrors the thread pool's 2× headroom note.
        self._io = ThreadPoolExecutor(
            max_workers=workers * 2, thread_name_prefix="procpool-io"
        )
        for _ in range(workers):
            handle = self._spawn()
            self._handles.append(handle)
            self._free.put_nowait(handle)

    # ------------------------------------------------------------------ #
    # spawning / respawning
    # ------------------------------------------------------------------ #

    def _spawn(self) -> _WorkerHandle:
        """Start one worker process (raises early on unpicklable config)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker_id = next(self._ids)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.spec, self.cache_size),
            name=f"repro-solver-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(worker_id, process, parent_conn)

    def _respawn_later(self, old: _WorkerHandle, *, crashed: bool) -> None:
        """Replace a dead worker; crashes back off, deadline kills do not."""
        with self._lock:
            if old in self._handles:
                self._handles.remove(old)
            if crashed:
                self._consecutive_crashes += 1
                delay = min(
                    self.backoff_max,
                    self.backoff_initial * (2 ** (self._consecutive_crashes - 1)),
                )
            else:
                delay = 0.0
            closed = self._closed
        if closed:
            return
        self.metrics.counter("server.worker.respawns").inc()

        def respawn() -> None:
            if delay > 0:
                time.sleep(delay)
            with self._lock:
                if self._closed:
                    return
                handle = self._spawn()
                self._handles.append(handle)
                loop = self._loop
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(self._free.put_nowait, handle)
            else:  # pragma: no cover - pool used without a live loop
                self._free.put_nowait(handle)

        threading.Thread(target=respawn, name="procpool-respawn", daemon=True).start()

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> CacheStats:
        """Aggregated worker-local compile-cache statistics."""
        with self._lock:
            snapshots = [h.cache_snapshot for h in self._handles]
        hits = sum(s[0] for s in snapshots)
        misses = sum(s[1] for s in snapshots)
        evictions = sum(s[2] for s in snapshots)
        size = sum(s[3] for s in snapshots)
        return CacheStats(
            hits=hits,
            misses=misses,
            evictions=evictions,
            size=size,
            maxsize=self.cache_size * self.workers,
        )

    async def solve(
        self,
        assertions: Sequence[ast.Term],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Solve one assertion conjunction on a worker process.

        Raises :class:`~repro.server.admission.DeadlineExceededError` when
        *remaining* elapses first (the worker is killed and respawned) and
        :class:`WorkerCrashError` when the worker dies mid-job.
        """
        return await self._submit(
            assertions, [], remaining=remaining, solve_params=solve_params
        )

    async def optimize(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[Any],
        *,
        remaining: Optional[float] = None,
        solve_params: Optional[Dict[str, Any]] = None,
    ) -> SolveOutcome:
        """Run one weighted-MaxSMT optimization on a worker process."""
        self.metrics.counter("server.optimizes").inc()
        return await self._submit(
            assertions,
            list(soft_assertions),
            remaining=remaining,
            solve_params=solve_params,
        )

    async def _submit(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: List[Any],
        *,
        remaining: Optional[float],
        solve_params: Optional[Dict[str, Any]],
    ) -> SolveOutcome:
        loop = asyncio.get_running_loop()
        self._loop = loop
        handle = await self._checkout(remaining)
        job = (list(assertions), soft_assertions, dict(solve_params or {}), remaining)
        self.metrics.counter("server.solves").inc()
        try:
            await loop.run_in_executor(self._io, handle.conn.send, job)
            reply_future = loop.run_in_executor(self._io, handle.conn.recv)
            try:
                if remaining is None:
                    reply = await asyncio.shield(reply_future)
                else:
                    reply = await asyncio.wait_for(
                        asyncio.shield(reply_future), timeout=max(remaining, 1e-3)
                    )
            except asyncio.TimeoutError:
                self._abandon(handle, reply_future)
                self.metrics.counter("server.timeout").inc()
                self.metrics.counter("server.timeout.solving").inc()
                raise DeadlineExceededError("solving", remaining or 0.0) from None
            except asyncio.CancelledError:
                self._abandon(handle, reply_future)
                raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._crash(handle)
            raise WorkerCrashError(handle.worker_id, type(exc).__name__) from exc
        outcome, cache_snapshot = reply
        handle.cache_snapshot = cache_snapshot
        with self._lock:
            self._consecutive_crashes = 0
        if not soft_assertions:
            # The worker's execute() has no registry; mirror its one
            # compile-cache lookup here (weighted jobs never consult it).
            self.metrics.counter(
                "cache.hits" if outcome.cache_hit else "cache.misses"
            ).inc()
        self._free.put_nowait(handle)
        return outcome

    async def _checkout(self, remaining: Optional[float]) -> _WorkerHandle:
        """Take a free worker, waiting deadline-aware if all are respawning."""
        try:
            return self._free.get_nowait()
        except asyncio.QueueEmpty:
            pass
        try:
            if remaining is None:
                return await self._free.get()
            return await asyncio.wait_for(
                self._free.get(), timeout=max(remaining, 1e-3)
            )
        except asyncio.TimeoutError:
            self.metrics.counter("server.timeout").inc()
            self.metrics.counter("server.timeout.queued").inc()
            raise DeadlineExceededError("queued", remaining or 0.0) from None

    def _abandon(self, handle: _WorkerHandle, reply_future) -> None:
        """Deadline/cancel path: kill the worker, swallow the orphaned recv."""
        reply_future.add_done_callback(lambda f: f.exception())
        handle.kill()
        self._respawn_later(handle, crashed=False)

    def _crash(self, handle: _WorkerHandle) -> None:
        self.metrics.counter("server.worker.crashes").inc()
        handle.kill()
        self._respawn_later(handle, crashed=True)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = False) -> None:
        """Stop every worker process; in-flight jobs are killed, not joined."""
        with self._lock:
            self._closed = True
            handles = list(self._handles)
            self._handles.clear()
        for handle in handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=0.5 if wait else 0.05)
            if handle.process.is_alive():
                handle.kill()
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._io.shutdown(wait=wait, cancel_futures=True)
