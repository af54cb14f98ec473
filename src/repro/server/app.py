"""The asyncio solving server: admission, workers and sticky sessions.

Request path (``POST /solve``)::

    read (size-gated) → parse envelope → parse SMT-LIB → admit (bounded
    queue) → wait for worker slot (deadline-aware) → solve on the worker
    pool (deadline-aware, cancellable) → respond

Everything from admission to the response envelope is one runner,
:meth:`SolverServer._run_admitted`, shared by ``/solve`` and
``/session/check``: a session check waits for its session lock after the
worker slot (queue time, deadline-bounded) and runs ``check_sat`` on an
executor thread (solve time), so ``queue_ms`` and ``solve_ms`` are
disjoint on both paths.

The listener, the lifecycle state machine (CREATED → SERVING → DRAINING →
STOPPED), the keep-alive connection loop and the route shell are the
shared :class:`~repro.server.base.HttpService`; this module adds the
endpoints and the drain step (admission drain, then sessions).

Observability:

* ``GET /healthz`` — 200 with queue/worker gauges while serving, 503 once
  draining (load balancers stop routing before the listener closes).
* ``GET /metrics`` — deterministic-keyed (recursively sorted) JSON: the
  shared :class:`~repro.service.metrics.MetricsRegistry` export, cache
  statistics, queue gauges and the request-accounting counters. The
  accounting identity ``requests == completed + timeouts + cancellations
  + rejections`` holds at every quiescent point.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, Optional

from repro.server import httpio
from repro.server.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
    within,
)
from repro.server.base import (
    BackgroundService,
    HttpService,
    ListenerConfig,
    Reply,
    ServerState,
    error_reply,
    json_reply,
    reply,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ErrorInfo,
    ResponseEnvelope,
    SessionRequest,
    SolveRequest,
    locate_parse_error,
)
from repro.server.sessions import (
    ManagedSession,
    SessionGoneError,
    SessionLimitError,
    SessionManager,
)
from repro.server.workers import SolverWorkerPool
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveOutcome, SolveSpec
from repro.smt.parser import ParseError, parse_script
from repro.smt.session import SessionError, SolverSession
from repro.smt.sexpr import SExprError

__all__ = ["BackgroundServer", "ServerConfig", "ServerState", "SolverServer"]


@dataclass
class ServerConfig(ListenerConfig):
    """Everything ``python -m repro.server`` exposes as flags.

    ``sampler_factory`` is the fault-injection hook used by the lifecycle
    tests (inject a slow or failing sampler per request); it is not a CLI
    flag.
    """

    port: int = 8037
    workers: int = 2
    #: Solve backend: "thread" (executor threads, one GIL) or "process"
    #: (long-lived worker processes — see repro.server.procpool).
    backend: str = "thread"
    #: multiprocessing start method for backend="process" ("spawn" is the
    #: safe default alongside asyncio + executor threads).
    mp_context: str = "spawn"
    #: Micro-batching window: >0 makes the thread backend collect
    #: concurrent requests for up to this many milliseconds and solve each
    #: group as one block-diagonally fused kernel call (see
    #: repro.server.workers / repro.service.fused). 0 disables batching.
    #: Thread backend only — process workers hold per-process caches and
    #: cannot tile across processes.
    batch_window_ms: float = 0.0
    #: Maximum requests fused per batch when batch_window_ms > 0.
    batch_max: int = 8
    queue_limit: int = 16
    deadline_ms: float = 30000.0
    num_reads: int = 64
    seed: Optional[int] = None
    sampler_params: Dict[str, Any] = field(default_factory=dict)
    sampler_factory: Optional[Any] = None
    penalty_strength: float = 1.0
    max_attempts: int = 3
    policy: Optional[RetryPolicy] = None
    cache_size: int = 256
    #: Sticky ``/session/*`` sessions: idle sessions expire after this many
    #: seconds (lazily, never mid-solve).
    session_idle_timeout: float = 300.0
    #: Live sessions allowed at once; /session/open past the limit is
    #: rejected with a typed ``overloaded`` envelope.
    max_sessions: int = 64
    #: Opt sessions into warm starts (previous-model re-verification +
    #: initial_states seeding). Off by default: warm mode trades the
    #: bit-identity-with-fresh-solver contract for repeat-solve speed.
    session_warm_start: bool = False
    #: Solve strategy: "direct" (unrefined pipeline) or "refine" (the
    #: CEGAR loop — classical propagation clamps implied bits, the
    #: annealer samples the reduced QUBO, failed verifications become
    #: blocking lemmas, guaranteed fallback to the unrefined solve).
    strategy: str = "direct"
    #: Refinement round budget per check (strategy="refine" only).
    refine_max_rounds: int = 4
    #: Anytime restart budget for weighted (``assert-soft``) requests.
    opt_max_restarts: int = 4
    #: Exhaustive-finish threshold in string bits for weighted requests:
    #: variables at or under it are enumerated exactly (proven optimal).
    opt_exhaustive_bits: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        self.solve_spec()  # validates the solver fields
        if self.batch_window_ms > 0 and self.strategy != "direct":
            raise ValueError(
                "micro-batching (batch_window_ms > 0) requires "
                "strategy='direct'; fused tiles bypass the per-request "
                "refinement loop"
            )
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.batch_window_ms > 0 and self.backend != "thread":
            raise ValueError(
                "micro-batching (batch_window_ms > 0) requires backend="
                f"'thread'; the {self.backend!r} backend cannot tile QUBOs "
                "across worker processes"
            )
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.session_idle_timeout <= 0:
            raise ValueError(
                f"session_idle_timeout must be positive, got "
                f"{self.session_idle_timeout}"
            )
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )

    def solve_spec(self) -> SolveSpec:
        """The one solver configuration both backends and sessions use."""
        return SolveSpec(
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=self.sampler_params,
            sampler_factory=self.sampler_factory,
            penalty_strength=self.penalty_strength,
            policy=(
                self.policy
                if self.policy is not None
                else RetryPolicy(max_attempts=self.max_attempts)
            ),
            strategy=self.strategy,
            refine_max_rounds=self.refine_max_rounds,
            opt_max_restarts=self.opt_max_restarts,
            opt_exhaustive_bits=self.opt_exhaustive_bits,
        )


class SolverServer(HttpService):
    """The asyncio TCP/HTTP SMT-solving server (single event loop)."""

    prefix = "server"

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        super().__init__(
            config if config is not None else ServerConfig(),
            metrics if metrics is not None else MetricsRegistry(),
        )
        self.cache = (
            cache if cache is not None else CompileCache(maxsize=self.config.cache_size)
        )
        self.queue = AdmissionQueue(
            queue_limit=self.config.queue_limit,
            workers=self.config.workers,
            metrics=self.metrics,
        )
        #: The one solver configuration: both backends and every session
        #: hold this object. Backends take the opt deadline from each
        #: request's remaining budget.
        self.spec = self.config.solve_spec()
        if self.config.backend == "process":
            from repro.server.procpool import ProcessSolverBackend

            self.pool = ProcessSolverBackend(
                self.spec,
                self.config.workers,
                cache_size=self.config.cache_size,
                metrics=self.metrics,
                mp_context=self.config.mp_context,
            )
        else:
            self.pool = SolverWorkerPool(
                self.spec,
                self.config.workers,
                cache=self.cache,
                metrics=self.metrics,
                batch_window_ms=self.config.batch_window_ms,
                batch_max=self.config.batch_max,
            )
        # Sticky sessions always solve on the event-loop process (thread
        # executor) against the shared compile cache, whatever the /solve
        # backend — process workers cannot hold live Python sessions.
        self.sessions = SessionManager(
            factory=self._new_session,
            idle_timeout=self.config.session_idle_timeout,
            max_sessions=self.config.max_sessions,
            metrics=self.metrics,
        )

    def _new_session(self) -> SolverSession:
        return SolverSession(
            self.spec,
            cache=self.cache,
            warm_start=self.config.session_warm_start,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------ #
    # drain and stop
    # ------------------------------------------------------------------ #

    async def _drain(self) -> bool:
        self.queue.begin_drain()
        drained = await self.queue.wait_idle(timeout=self.config.drain_timeout)
        # Sticky sessions: close every live session, waiting out any check
        # still running on the executor (bounded by the drain above — new
        # session work was already rejected as draining).
        await self.sessions.close_all()
        return drained

    def _stop(self) -> None:
        self.pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def _healthz(self) -> Reply:
        healthy = self.state is ServerState.SERVING
        payload = {
            "status": "ok" if healthy else str(self.state),
            "state": str(self.state),
            "uptime_s": round(self.uptime, 3),
            **self.queue.snapshot(),
        }
        return json_reply(payload, 200 if healthy else 503)

    async def _metrics(self) -> Reply:
        # The thread backend reads the shared cache; the process backend
        # aggregates its workers' local caches — one schema either way.
        stats = self.pool.cache_stats()
        payload = {
            "server": {
                "backend": self.config.backend,
                "state": str(self.state),
                "uptime_s": round(self.uptime, 3),
                **self.queue.snapshot(),
            },
            "sessions": self.sessions.snapshot(),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "maxsize": stats.maxsize,
                "hit_rate": stats.hit_rate,
            },
            **self.metrics.export(),
        }
        return json_reply(payload)

    def _solve(self, request: httpio.HttpRequest) -> Awaitable[Reply]:
        return self._accounted(self._solve_inner(request))

    def _session(self, request: httpio.HttpRequest, op: str) -> Awaitable[Reply]:
        return self._accounted(self._session_inner(request, op))

    async def _accounted(self, work: Awaitable[ResponseEnvelope]) -> Reply:
        """Count one request and answer it; anything unexpected is ``internal``."""
        self.metrics.counter("server.requests").inc()
        try:
            return reply(await work)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep the accounting identity
            self.metrics.counter("server.internal").inc()
            return error_reply(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}")

    def _reject(
        self,
        error_type: str,
        message: str,
        request_id: Optional[str] = None,
        *,
        counted: bool = False,
    ) -> ResponseEnvelope:
        """A typed rejection, counted as ``server.rejected.<type>`` unless
        the admission queue already *counted* it."""
        if not counted:
            self.metrics.counter(f"server.rejected.{error_type}").inc()
        return ResponseEnvelope.failure(
            ErrorInfo(type=error_type, message=message), request_id=request_id
        )

    async def _run_admitted(
        self,
        request_id: Optional[str],
        deadline_ms: Optional[float],
        solve: Callable[[float], Awaitable[SolveOutcome]],
        wait: Optional[Callable[[float], Awaitable[Any]]] = None,
    ) -> ResponseEnvelope:
        """Run one admitted request: the one path of ``/solve`` and of
        session checks.

        Admission, the deadline-bounded wait for a worker slot, then
        *wait* (more queue time, e.g. a session lock) and *solve*, each
        given the remaining budget in seconds; the slot is released
        exactly once, the request accounted and answered. *wait* and
        *solve* raise :class:`DeadlineExceededError` (counted by whoever
        enforces that deadline) when the budget runs out.
        """
        budget_ms = deadline_ms if deadline_ms is not None else self.config.deadline_ms
        deadline = time.monotonic() + budget_ms / 1000.0
        try:
            self.queue.try_admit()
        except OverloadedError as exc:
            return self._reject(ERROR_OVERLOADED, str(exc), request_id, counted=True)
        except DrainingError as exc:
            return self._reject(ERROR_DRAINING, str(exc), request_id, counted=True)

        queue_timer = time.monotonic()
        queue_ms = 0.0
        solve_timer: Optional[float] = None
        acquired = False
        try:
            await self.queue.acquire_slot(deadline - time.monotonic())
            acquired = True
            if wait is not None:
                await wait(deadline - time.monotonic())
            queue_ms = _ms_since(queue_timer)
            solve_timer = time.monotonic()
            outcome = await solve(deadline - time.monotonic())
        except DeadlineExceededError as exc:
            if solve_timer is None:  # expired while queued
                queue_ms = _ms_since(queue_timer)
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_TIMEOUT, message=str(exc)),
                status="timeout",
                queue_ms=queue_ms,
                solve_ms=0.0 if solve_timer is None else _ms_since(solve_timer),
                request_id=request_id,
            )
        except asyncio.CancelledError:
            # Shutdown cancelled us queued or mid-solve: the connection
            # loop answers with a typed envelope.
            self.metrics.counter("server.cancelled").inc()
            raise
        finally:
            if acquired:
                self.queue.release_slot()
        solve_ms = _ms_since(solve_timer)

        self.metrics.counter("server.completed").inc()
        self.metrics.counter(f"server.status.{outcome.status}").inc()
        if outcome.opt_status:
            self.metrics.counter(f"server.opt.{outcome.opt_status}").inc()
        self.metrics.observe("server.queue_wait", queue_ms / 1000.0)
        self.metrics.observe("server.solve_wall", solve_ms / 1000.0)
        return ResponseEnvelope.success(
            outcome.status,
            outcome.model,
            reason=outcome.result.reason,
            cache_hit=outcome.cache_hit,
            queue_ms=queue_ms,
            solve_ms=solve_ms,
            request_id=request_id,
            opt_status=outcome.opt_status,
            objective=outcome.objective,
            lower_bound=outcome.lower_bound,
            upper_bound=outcome.upper_bound,
        )

    async def _solve_inner(self, request: httpio.HttpRequest) -> ResponseEnvelope:
        try:
            solve_request = SolveRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            return self._reject(ERROR_BAD_REQUEST, str(exc))
        # Malformed scripts get located parse envelopes, never a crashed
        # connection.
        try:
            script = parse_script(solve_request.script)
        except (ParseError, SExprError) as exc:
            self.metrics.counter("server.rejected.parse").inc()
            return ResponseEnvelope.failure(
                locate_parse_error(solve_request.script, exc),
                request_id=solve_request.request_id,
            )

        def solve(remaining: float) -> Awaitable[SolveOutcome]:
            # Scripts carrying assert-soft commands take the weighted-MaxSMT
            # optimize path; the pool enforces the deadline.
            if script.soft_assertions:
                return self.pool.optimize(
                    script.assertions, script.soft_assertions, remaining=remaining
                )
            return self.pool.solve(script.assertions, remaining=remaining)

        return await self._run_admitted(
            solve_request.request_id, solve_request.deadline_ms, solve
        )

    # ------------------------------------------------------------------ #
    # sticky sessions (/session/*)
    # ------------------------------------------------------------------ #

    async def _session_inner(
        self, request: httpio.HttpRequest, op: str
    ) -> ResponseEnvelope:
        try:
            req = SessionRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            return self._reject(ERROR_BAD_REQUEST, str(exc))
        rid = req.request_id or req.session_id

        if op == "open":
            if self.state is not ServerState.SERVING:
                return self._reject(
                    ERROR_DRAINING, "server is draining; not opening new sessions", rid
                )
            try:
                managed = self.sessions.open(req.session_id)
            except SessionLimitError as exc:
                return self._reject(ERROR_OVERLOADED, str(exc), rid)
            except ValueError as exc:
                return self._reject(ERROR_BAD_REQUEST, str(exc), rid)
            self.metrics.counter("server.completed").inc()
            return ResponseEnvelope.success(
                "open", request_id=req.request_id or managed.session_id
            )

        # Every other op addresses an existing session.
        if not req.session_id:
            return self._reject(
                ERROR_BAD_REQUEST, f"/session/{op} needs a 'session' id", rid
            )
        try:
            managed = self.sessions.get(req.session_id)
        except SessionGoneError as exc:
            return self._reject(ERROR_BAD_REQUEST, str(exc), rid)

        if op == "close":
            # Drain-aware: close is allowed in every state and waits out a
            # check still running on the executor before acknowledging.
            self.sessions.close(req.session_id)
            async with managed.lock:
                pass
            self.metrics.counter("server.completed").inc()
            return ResponseEnvelope.success(
                "closed",
                reason=f"depth={managed.session.depth}",
                request_id=rid,
            )

        if op == "check":
            return await self._session_check(managed, rid, req.deadline_ms)

        # Mutations (assert/push/pop): rejected while draining, serialized
        # against any in-flight check by the session lock.
        if self.state is not ServerState.SERVING:
            return self._reject(
                ERROR_DRAINING,
                "server is draining; not accepting session mutations",
                rid,
            )
        async with managed.lock:
            session = managed.session
            added = ""
            try:
                if op == "assert":
                    added = f" added={session.assert_text(req.script)}"
                elif op == "push":
                    session.push(req.levels)
                else:
                    session.pop(req.levels)
            except (ParseError, SExprError) as exc:
                self.metrics.counter("server.rejected.parse").inc()
                return ResponseEnvelope.failure(
                    locate_parse_error(req.script, exc), request_id=rid
                )
            except SessionError as exc:  # pop past the base frame, ...
                return self._reject(ERROR_BAD_REQUEST, str(exc), rid)
            reason = f"depth={session.depth}{added}"
            managed.touch()
        self.metrics.counter("server.completed").inc()
        return ResponseEnvelope.success("ok", reason=reason, request_id=rid)

    def _session_check(
        self, managed: ManagedSession, rid: Optional[str], deadline_ms: Optional[float]
    ) -> Awaitable[ResponseEnvelope]:
        """Check-sat one session through the admitted-work runner."""
        session = managed.session

        def lock(remaining: float) -> Awaitable[bool]:
            # Serialize against mutations and other checks on this
            # session; the lock wait is queue time.
            return within(managed.lock.acquire(), remaining, "queued", self.metrics)

        def release(_future: Any) -> None:
            managed.touch()
            if managed.lock.locked():
                managed.lock.release()

        async def check(remaining: float) -> SolveOutcome:
            hits_before = session.stats.memo_hits + session.stats.warm_hits
            future = asyncio.get_running_loop().run_in_executor(
                None, session.check_sat
            )
            # The lock is released when the *thread* finishes — even if
            # the deadline fires first — so a straggling solve can never
            # race a later mutation, and expiry (which skips locked
            # sessions) can never reap a session mid-solve.
            future.add_done_callback(release)
            result = await within(
                asyncio.shield(future), remaining, "solving", self.metrics
            )
            reason = result.reason or f"depth={session.depth}"
            hits = session.stats.memo_hits + session.stats.warm_hits
            return SolveOutcome(
                result=replace(result, reason=reason), cache_hit=hits > hits_before
            )

        return self._run_admitted(rid, deadline_ms, check, wait=lock)


def _ms_since(start: float) -> float:
    return (time.monotonic() - start) * 1000.0


# --------------------------------------------------------------------- #
# embedding helper (tests, benchmarks, notebooks)
# --------------------------------------------------------------------- #


class BackgroundServer(BackgroundService):
    """Run a :class:`SolverServer` on a daemon thread with its own loop.

    The context-manager form is what the test-suite and the load generator
    use::

        with BackgroundServer(ServerConfig(port=0, seed=7)) as server:
            client = SolverClient(server.host, server.port)
            ...

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    kind = "server"

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        super().__init__(config if config is not None else ServerConfig(port=0))
        self._metrics = metrics
        self._cache = cache

    @property
    def server(self) -> Optional[SolverServer]:
        return self.service

    def _build(self) -> SolverServer:
        return SolverServer(self.config, metrics=self._metrics, cache=self._cache)
