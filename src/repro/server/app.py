"""The asyncio solving server: routing, lifecycle, observability.

Request path (``POST /solve``)::

    read (size-gated) → parse envelope → parse SMT-LIB → admit (bounded
    queue) → wait for worker slot (deadline-aware) → solve on executor
    thread (deadline-aware, cancellable) → respond

Lifecycle state machine (see DESIGN.md Appendix E)::

    CREATED ──start()──▶ SERVING ──shutdown()──▶ DRAINING ──▶ STOPPED
                                   stop accepting; in-flight finishes
                                   up to drain_timeout, the rest is
                                   cancelled with typed envelopes

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
import enum
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.server import httpio
from repro.server.admission import (
    AdmissionQueue,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_CANCELLED,
    ERROR_DRAINING,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_TIMEOUT,
    ERROR_TOO_LARGE,
    ErrorInfo,
    ResponseEnvelope,
    SessionRequest,
    SolveRequest,
    locate_parse_error,
)
from repro.server.sessions import (
    SessionGoneError,
    SessionLimitError,
    SessionManager,
)
from repro.server.workers import SolverWorkerPool
from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec
from repro.smt.parser import ParseError, parse_script
from repro.smt.session import SessionError, SolverSession
from repro.smt.sexpr import SExprError

__all__ = ["BackgroundServer", "ServerConfig", "ServerState", "SolverServer"]


class ServerState(str, enum.Enum):
    """Where the server is in its lifecycle."""

    CREATED = "created"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"

    __str__ = str.__str__


@dataclass
class ServerConfig:
    """Everything ``python -m repro.server`` exposes as flags.

    ``sampler_factory`` is the fault-injection hook used by the lifecycle
    tests (inject a slow or failing sampler per request); it is not a CLI
    flag.
    """

    host: str = "127.0.0.1"
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
    drain_timeout: float = 10.0
    max_request_bytes: int = 1 << 20
    idle_timeout: float = 60.0
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
        if self.drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be non-negative, got {self.drain_timeout}"
            )
        if self.max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {self.max_request_bytes}"
            )
        if self.idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive, got {self.idle_timeout}"
            )
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


class SolverServer:
    """The asyncio TCP/HTTP SMT-solving server (single event loop)."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache if cache is not None else CompileCache(maxsize=self.config.cache_size)
        )
        self.state = ServerState.CREATED
        self.queue = AdmissionQueue(
            queue_limit=self.config.queue_limit,
            workers=self.config.workers,
            metrics=self.metrics,
        )
        #: The solver fields of the spec, as the keyword arguments both
        #: backends and every session are built from. Backends take the
        #: opt deadline from each request's remaining budget instead.
        self._solver_kwargs = self.config.solve_spec().kwargs()
        del self._solver_kwargs["opt_deadline_ms"]
        if self.config.backend == "process":
            from repro.server.procpool import ProcessSolverBackend

            self.pool = ProcessSolverBackend(
                workers=self.config.workers,
                cache_size=self.config.cache_size,
                metrics=self.metrics,
                mp_context=self.config.mp_context,
                **self._solver_kwargs,
            )
        else:
            self.pool = SolverWorkerPool(
                workers=self.config.workers,
                cache=self.cache,
                metrics=self.metrics,
                batch_window_ms=self.config.batch_window_ms,
                batch_max=self.config.batch_max,
                **self._solver_kwargs,
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
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks currently *inside* a request (parse → dispatch →
        #: response write). Everything in ``_connections`` but not here is
        #: idle in a keep-alive read and safe to cancel at any time.
        self._active_requests: Set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._started_at = 0.0

    def _new_session(self) -> SolverSession:
        kwargs = dict(self._solver_kwargs)
        return SolverSession(
            retry_policy=kwargs.pop("policy"),
            cache=self.cache,
            warm_start=self.config.session_warm_start,
            metrics=self.metrics,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.config.port

    async def start(self) -> None:
        """Bind the listener and transition to SERVING."""
        if self.state is not ServerState.CREATED:
            raise RuntimeError(f"cannot start from state {self.state}")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started_at = time.monotonic()
        self.state = ServerState.SERVING

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then stop.

        1. transition to DRAINING — ``/healthz`` goes 503 and new ``/solve``
           requests on open connections are rejected with ``draining``;
        2. close the listening socket;
        3. wait up to ``drain_timeout`` for queued + in-flight work;
        4. close idle keep-alive connections and cancel whatever request
           work remains (typed ``cancelled`` envelopes);
        5. stop the executor, transition to STOPPED.
        """
        if self.state in (ServerState.DRAINING, ServerState.STOPPED):
            await self._stopped.wait()
            return
        self.state = ServerState.DRAINING
        self.queue.begin_drain()
        if self._server is not None:
            self._server.close()
            # No ``await wait_closed()`` here: on Python 3.12+ it blocks
            # until every client *transport* closes, which would stall the
            # drain indefinitely while any keep-alive connection is open.
            # ``close()`` alone stops the listener from accepting.

        drained = await self.queue.wait_idle(timeout=self.config.drain_timeout)
        # Sticky sessions: close every live session, waiting out any check
        # still running on the executor (bounded by the drain above — new
        # session work was already rejected as draining).
        await self.sessions.close_all()
        # Idle keep-alive connections sit blocked in ``read_request`` and
        # would pin the shutdown forever if left alone — close them first
        # (they are between requests; cancelling loses nothing).
        for task in list(self._connections):
            if task not in self._active_requests:
                task.cancel()
        if drained and self._active_requests:
            # The queue is empty, so active connections are only flushing
            # their final response bytes: give them a short grace period.
            await asyncio.wait(
                list(self._active_requests),
                timeout=min(1.0, self.config.drain_timeout or 1.0),
            )
        # Whatever survived — stragglers past the drain timeout or slow
        # flushers — is cancelled with typed ``cancelled`` envelopes.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            # ``asyncio.wait`` (bounded) rather than a bare ``gather``: the
            # shutdown path must never hang on a connection that refuses to
            # unwind.
            await asyncio.wait(list(self._connections), timeout=5.0)
        self.pool.shutdown(wait=False)
        self.state = ServerState.STOPPED
        self._stopped.set()

    @property
    def uptime(self) -> float:
        if not self._started_at:
            return 0.0
        return time.monotonic() - self._started_at

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown after the drain timeout: connection-level cancel.
            pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
                self._active_requests.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        while True:
            try:
                request = await asyncio.wait_for(
                    httpio.read_request(reader, self.config.max_request_bytes),
                    timeout=self.config.idle_timeout,
                )
            except asyncio.TimeoutError:
                # A silent client must not pin a connection task (and with
                # it, graceful shutdown) forever: idle keep-alive reads are
                # bounded by ``idle_timeout``.
                return
            except httpio.RequestTooLarge as exc:
                # Counted as a submitted-and-rejected request: the
                # accounting identity must cover every byte the socket saw.
                self.metrics.counter("server.requests").inc()
                self.metrics.counter("server.rejected.too_large").inc()
                envelope = ResponseEnvelope.failure(
                    ErrorInfo(type=ERROR_TOO_LARGE, message=str(exc))
                )
                await self._send_envelope(writer, envelope, close=True)
                # Discard a bounded slice of the unread body so closing the
                # socket does not RST the envelope out of the client's
                # receive buffer (large senders may still see a reset).
                await self._discard(reader)
                return
            except httpio.ProtocolError as exc:
                envelope = ResponseEnvelope.failure(
                    ErrorInfo(type=ERROR_BAD_REQUEST, message=str(exc))
                )
                await self._send_envelope(writer, envelope, close=True)
                return
            if request is None:
                return  # clean EOF
            keep_alive = request.keep_alive
            if task is not None:
                # Mark this connection busy: shutdown only force-cancels
                # connections that are *between* requests; in-request ones
                # get the drain-timeout grace first.
                self._active_requests.add(task)
            try:
                try:
                    body, status, content_type = await self._dispatch(request)
                except asyncio.CancelledError:
                    # Shutdown hit after the drain timeout while this
                    # request was mid-flight: best-effort typed envelope,
                    # then unwind.
                    envelope = ResponseEnvelope.failure(
                        ErrorInfo(
                            type=ERROR_CANCELLED,
                            message="solve cancelled by server shutdown",
                        )
                    )
                    writer.write(
                        httpio.render_response(
                            envelope.http_status,
                            envelope.to_json().encode("utf-8"),
                            close=True,
                        )
                    )
                    raise
                except Exception as exc:  # noqa: BLE001 — last-resort boundary
                    envelope = ResponseEnvelope.failure(
                        ErrorInfo(
                            type=ERROR_INTERNAL,
                            message=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    body = envelope.to_json().encode("utf-8")
                    status = envelope.http_status
                    content_type = "application/json"
                writer.write(
                    httpio.render_response(
                        status, body, content_type=content_type, close=not keep_alive
                    )
                )
                await writer.drain()
            finally:
                if task is not None:
                    self._active_requests.discard(task)
            if not keep_alive:
                return

    @staticmethod
    async def _discard(
        reader: asyncio.StreamReader, limit: int = 1 << 16, budget: float = 0.25
    ) -> None:
        """Best-effort bounded drain of unread request bytes."""
        loop = asyncio.get_running_loop()
        end = loop.time() + budget
        remaining = limit
        try:
            while remaining > 0:
                timeout = end - loop.time()
                if timeout <= 0:
                    return
                chunk = await asyncio.wait_for(
                    reader.read(min(8192, remaining)), timeout=timeout
                )
                if not chunk:
                    return
                remaining -= len(chunk)
        except (asyncio.TimeoutError, ConnectionError):
            return

    async def _send_envelope(
        self,
        writer: asyncio.StreamWriter,
        envelope: ResponseEnvelope,
        close: bool = False,
    ) -> None:
        writer.write(
            httpio.render_response(
                envelope.http_status,
                envelope.to_json().encode("utf-8"),
                close=close,
            )
        )
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: httpio.HttpRequest):
        path = request.path
        if path == "/healthz" and request.method == "GET":
            return self._healthz()
        if path == "/metrics" and request.method == "GET":
            return self._metrics_endpoint()
        if path == "/solve":
            if request.method != "POST":
                envelope = ResponseEnvelope.failure(
                    ErrorInfo(
                        type=ERROR_BAD_REQUEST,
                        message=f"/solve requires POST, got {request.method}",
                    )
                )
                return envelope.to_json().encode("utf-8"), 405, "application/json"
            envelope = await self._solve_endpoint(request)
            return (
                envelope.to_json().encode("utf-8"),
                envelope.http_status,
                "application/json",
            )
        if path.startswith("/session/"):
            op = path[len("/session/"):]
            if op in ("open", "assert", "push", "pop", "check", "close"):
                if request.method != "POST":
                    envelope = ResponseEnvelope.failure(
                        ErrorInfo(
                            type=ERROR_BAD_REQUEST,
                            message=f"{path} requires POST, got {request.method}",
                        )
                    )
                    return (
                        envelope.to_json().encode("utf-8"),
                        405,
                        "application/json",
                    )
                envelope = await self._session_endpoint(request, op)
                return (
                    envelope.to_json().encode("utf-8"),
                    envelope.http_status,
                    "application/json",
                )
        body = json.dumps(
            {"error": {"type": "not_found", "message": f"no route for {path}"}},
            sort_keys=True,
        ).encode("utf-8")
        return body, 404, "application/json"

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def _healthz(self):
        healthy = self.state is ServerState.SERVING
        payload = {
            "status": "ok" if healthy else str(self.state),
            "state": str(self.state),
            "uptime_s": round(self.uptime, 3),
            **self.queue.snapshot(),
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return body, (200 if healthy else 503), "application/json"

    def _metrics_endpoint(self):
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
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return body, 200, "application/json"

    async def _solve_endpoint(self, request: httpio.HttpRequest) -> ResponseEnvelope:
        self.metrics.counter("server.requests").inc()
        try:
            return await self._solve_inner(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep the accounting identity
            self.metrics.counter("server.internal").inc()
            return ResponseEnvelope.failure(
                ErrorInfo(
                    type=ERROR_INTERNAL, message=f"{type(exc).__name__}: {exc}"
                )
            )

    async def _solve_inner(self, request: httpio.HttpRequest) -> ResponseEnvelope:
        # 1. request envelope
        try:
            solve_request = SolveRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            self.metrics.counter("server.rejected.bad_request").inc()
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_BAD_REQUEST, message=str(exc))
            )

        # 2. SMT-LIB parse — malformed scripts get located parse envelopes,
        #    never a crashed connection.
        try:
            script = parse_script(solve_request.script)
        except (ParseError, SExprError) as exc:
            self.metrics.counter("server.rejected.parse").inc()
            return ResponseEnvelope.failure(
                locate_parse_error(solve_request.script, exc),
                request_id=solve_request.request_id,
            )

        deadline_ms = (
            solve_request.deadline_ms
            if solve_request.deadline_ms is not None
            else self.config.deadline_ms
        )
        deadline = time.monotonic() + deadline_ms / 1000.0

        # 3. admission (bounded queue; explicit backpressure)
        try:
            self.queue.try_admit()
        except OverloadedError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_OVERLOADED, message=str(exc)),
                request_id=solve_request.request_id,
            )
        except DrainingError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_DRAINING, message=str(exc)),
                request_id=solve_request.request_id,
            )

        # 4. wait for a worker slot, spending the deadline budget
        queue_timer = time.monotonic()
        try:
            await self.queue.acquire_slot(deadline - time.monotonic())
        except DeadlineExceededError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_TIMEOUT, message=str(exc)),
                status="timeout",
                queue_ms=(time.monotonic() - queue_timer) * 1000.0,
                request_id=solve_request.request_id,
            )
        except asyncio.CancelledError:
            self.metrics.counter("server.cancelled").inc()
            raise
        queue_ms = (time.monotonic() - queue_timer) * 1000.0

        # 5. solve on the worker pool — scripts carrying assert-soft
        #    commands route to the weighted-MaxSMT optimize path instead.
        solve_timer = time.monotonic()
        try:
            if script.soft_assertions:
                outcome = await self.pool.optimize(
                    script.assertions,
                    script.soft_assertions,
                    remaining=deadline - time.monotonic(),
                )
            else:
                outcome = await self.pool.solve(
                    script.assertions, remaining=deadline - time.monotonic()
                )
        except DeadlineExceededError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_TIMEOUT, message=str(exc)),
                status="timeout",
                queue_ms=queue_ms,
                solve_ms=(time.monotonic() - solve_timer) * 1000.0,
                request_id=solve_request.request_id,
            )
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-solve: typed envelope, then let the
            # connection unwind.
            self.metrics.counter("server.cancelled").inc()
            raise
        finally:
            self.queue.release_slot()
        solve_ms = (time.monotonic() - solve_timer) * 1000.0

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
            request_id=solve_request.request_id,
            opt_status=outcome.opt_status,
            objective=outcome.objective,
            lower_bound=outcome.lower_bound,
            upper_bound=outcome.upper_bound,
        )


    # ------------------------------------------------------------------ #
    # sticky sessions (/session/*)
    # ------------------------------------------------------------------ #

    async def _session_endpoint(
        self, request: httpio.HttpRequest, op: str
    ) -> ResponseEnvelope:
        self.metrics.counter("server.requests").inc()
        try:
            return await self._session_inner(request, op)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — keep the accounting identity
            self.metrics.counter("server.internal").inc()
            return ResponseEnvelope.failure(
                ErrorInfo(
                    type=ERROR_INTERNAL, message=f"{type(exc).__name__}: {exc}"
                )
            )

    def _session_reject(
        self, error_type: str, message: str, *, request_id: Optional[str] = None
    ) -> ResponseEnvelope:
        counter = {
            ERROR_BAD_REQUEST: "server.rejected.bad_request",
            ERROR_DRAINING: "server.rejected.draining",
            ERROR_OVERLOADED: "server.rejected.overloaded",
        }[error_type]
        self.metrics.counter(counter).inc()
        return ResponseEnvelope.failure(
            ErrorInfo(type=error_type, message=message), request_id=request_id
        )

    async def _session_inner(
        self, request: httpio.HttpRequest, op: str
    ) -> ResponseEnvelope:
        try:
            req = SessionRequest.from_body(request.body, request.content_type)
        except ValueError as exc:
            return self._session_reject(ERROR_BAD_REQUEST, str(exc))
        rid = req.request_id or req.session_id

        if op == "open":
            if self.state is not ServerState.SERVING:
                return self._session_reject(
                    ERROR_DRAINING,
                    "server is draining; not opening new sessions",
                    request_id=rid,
                )
            try:
                managed = self.sessions.open(req.session_id)
            except SessionLimitError as exc:
                return self._session_reject(
                    ERROR_OVERLOADED, str(exc), request_id=rid
                )
            except ValueError as exc:
                return self._session_reject(
                    ERROR_BAD_REQUEST, str(exc), request_id=rid
                )
            self.metrics.counter("server.completed").inc()
            return ResponseEnvelope.success(
                "open", request_id=req.request_id or managed.session_id
            )

        # Every other op addresses an existing session.
        if not req.session_id:
            return self._session_reject(
                ERROR_BAD_REQUEST,
                f"/session/{op} needs a 'session' id",
                request_id=rid,
            )
        try:
            managed = self.sessions.get(req.session_id)
        except SessionGoneError as exc:
            return self._session_reject(ERROR_BAD_REQUEST, str(exc), request_id=rid)

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
            return await self._session_check(managed, req)

        # Mutations (assert/push/pop): rejected while draining, serialized
        # against any in-flight check by the session lock.
        if self.state is not ServerState.SERVING:
            return self._session_reject(
                ERROR_DRAINING,
                "server is draining; not accepting session mutations",
                request_id=rid,
            )
        async with managed.lock:
            session = managed.session
            if op == "assert":
                try:
                    added = session.assert_text(req.script)
                except (ParseError, SExprError) as exc:
                    self.metrics.counter("server.rejected.parse").inc()
                    return ResponseEnvelope.failure(
                        locate_parse_error(req.script, exc), request_id=rid
                    )
                except SessionError as exc:
                    return self._session_reject(
                        ERROR_BAD_REQUEST, str(exc), request_id=rid
                    )
                reason = f"depth={session.depth} added={added}"
            elif op == "push":
                session.push(req.levels)
                reason = f"depth={session.depth}"
            else:  # pop
                try:
                    session.pop(req.levels)
                except SessionError as exc:
                    return self._session_reject(
                        ERROR_BAD_REQUEST, str(exc), request_id=rid
                    )
                reason = f"depth={session.depth}"
            managed.touch()
        self.metrics.counter("server.completed").inc()
        return ResponseEnvelope.success("ok", reason=reason, request_id=rid)

    async def _session_check(
        self, managed, req: SessionRequest
    ) -> ResponseEnvelope:
        rid = req.request_id or req.session_id
        deadline_ms = (
            req.deadline_ms if req.deadline_ms is not None else self.config.deadline_ms
        )
        deadline = time.monotonic() + deadline_ms / 1000.0

        try:
            self.queue.try_admit()
        except OverloadedError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_OVERLOADED, message=str(exc)), request_id=rid
            )
        except DrainingError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_DRAINING, message=str(exc)), request_id=rid
            )

        queue_timer = time.monotonic()
        try:
            await self.queue.acquire_slot(deadline - time.monotonic())
        except DeadlineExceededError as exc:
            return ResponseEnvelope.failure(
                ErrorInfo(type=ERROR_TIMEOUT, message=str(exc)),
                status="timeout",
                queue_ms=(time.monotonic() - queue_timer) * 1000.0,
                request_id=rid,
            )
        except asyncio.CancelledError:
            self.metrics.counter("server.cancelled").inc()
            raise

        solve_timer = time.monotonic()
        try:
            # Serialize against mutations and concurrent checks on the same
            # session; bound the lock wait by the remaining deadline.
            try:
                await asyncio.wait_for(
                    managed.lock.acquire(), timeout=deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                self.metrics.counter("server.timeout").inc()
                self.metrics.counter("server.timeout.queued").inc()
                return ResponseEnvelope.failure(
                    ErrorInfo(
                        type=ERROR_TIMEOUT,
                        message="deadline exceeded waiting on the session lock",
                    ),
                    status="timeout",
                    queue_ms=(time.monotonic() - queue_timer) * 1000.0,
                    request_id=rid,
                )
            queue_ms = (time.monotonic() - queue_timer) * 1000.0
            session = managed.session
            hits_before = session.stats.memo_hits + session.stats.warm_hits
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(None, session.check_sat)
            # The lock is released when the *thread* finishes — even if the
            # await below times out first — so a straggling solve can never
            # race a later mutation, and expiry (which skips locked
            # sessions) can never reap a session mid-solve.
            future.add_done_callback(lambda _f: self._release_session(managed))
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline - time.monotonic()
                )
            except asyncio.TimeoutError:
                self.metrics.counter("server.timeout").inc()
                self.metrics.counter("server.timeout.solving").inc()
                return ResponseEnvelope.failure(
                    ErrorInfo(
                        type=ERROR_TIMEOUT,
                        message=(
                            f"deadline exceeded after {deadline_ms:.0f} ms "
                            "(session check still completing in background)"
                        ),
                    ),
                    status="timeout",
                    queue_ms=queue_ms,
                    solve_ms=(time.monotonic() - solve_timer) * 1000.0,
                    request_id=rid,
                )
            except asyncio.CancelledError:
                self.metrics.counter("server.cancelled").inc()
                raise
        finally:
            self.queue.release_slot()

        solve_ms = (time.monotonic() - solve_timer) * 1000.0
        cache_hit = (
            session.stats.memo_hits + session.stats.warm_hits > hits_before
        )
        self.metrics.counter("server.completed").inc()
        self.metrics.counter(f"server.status.{result.status}").inc()
        self.metrics.observe("server.queue_wait", queue_ms / 1000.0)
        self.metrics.observe("server.solve_wall", solve_ms / 1000.0)
        return ResponseEnvelope.success(
            result.status,
            result.model,
            reason=result.reason or f"depth={session.depth}",
            cache_hit=cache_hit,
            queue_ms=queue_ms,
            solve_ms=solve_ms,
            request_id=rid,
        )

    def _release_session(self, managed) -> None:
        managed.touch()
        if managed.lock.locked():
            managed.lock.release()


# --------------------------------------------------------------------- #
# embedding helper (tests, benchmarks, notebooks)
# --------------------------------------------------------------------- #


class BackgroundServer:
    """Run a :class:`SolverServer` on a daemon thread with its own loop.

    The context-manager form is what the test-suite and the load generator
    use::

        with BackgroundServer(ServerConfig(port=0, seed=7)) as server:
            client = SolverClient(server.host, server.port)
            ...

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[CompileCache] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig(port=0)
        self._metrics = metrics
        self._cache = cache
        self.server: Optional[SolverServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._port: Optional[int] = None

    # -------------------------------------------------------------- #

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    @property
    def metrics(self) -> MetricsRegistry:
        if self.server is None:
            raise RuntimeError("server not started")
        return self.server.metrics

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to start within 30 s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self.server is None:
            return
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -------------------------------------------------------------- #

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = SolverServer(
            self.config, metrics=self._metrics, cache=self._cache
        )
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._port = self.server.port
        self._ready.set()
        await self.server.serve_forever()
