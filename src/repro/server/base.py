"""The HTTP service shell shared by :class:`~repro.server.app.SolverServer`
and :class:`~repro.server.router.ShardRouter`.

:class:`HttpService` owns everything the two services do alike: the
listener, the lifecycle state machine, the keep-alive connection loop
with its framing-level rejections, and the route shell
(``GET /healthz``, ``GET /metrics``, ``POST /solve``,
``POST /session/<op>``, 405 and 404). A subclass supplies its endpoint
handlers, its drain and stop steps, its last-resort error type and its
counter prefix.

Lifecycle state machine (see DESIGN.md Appendix E.3)::

    CREATED ──start()──▶ SERVING ──shutdown()──▶ DRAINING ──▶ STOPPED
                                   stop accepting; in-flight finishes
                                   up to drain_timeout, the rest is
                                   cancelled with typed envelopes

:class:`BackgroundService` runs a service on a daemon thread (tests,
benchmarks) and :func:`run_until_signalled` runs one in the foreground
until SIGTERM/SIGINT (the two CLIs).
"""

from __future__ import annotations

import asyncio
import enum
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Set, Tuple

from repro.server import httpio
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_CANCELLED,
    ERROR_INTERNAL,
    ERROR_TOO_LARGE,
    ErrorInfo,
    ResponseEnvelope,
)
from repro.service.metrics import MetricsRegistry

__all__ = [
    "BackgroundService",
    "HttpService",
    "ListenerConfig",
    "ServerState",
    "run_until_signalled",
]

#: A handler's answer: the JSON body and its HTTP status.
Reply = Tuple[bytes, int]

SESSION_OPS = frozenset(("open", "assert", "push", "pop", "check", "close"))


class ServerState(str, enum.Enum):
    """Where a service is in its lifecycle."""

    CREATED = "created"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"

    __str__ = str.__str__


@dataclass
class ListenerConfig:
    """The listener fields every service has, validated in one place."""

    host: str = "127.0.0.1"
    port: int = 0
    drain_timeout: float = 10.0
    idle_timeout: float = 60.0
    max_request_bytes: int = 1 << 20

    def __post_init__(self) -> None:
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


def reply(envelope: ResponseEnvelope, status: Optional[int] = None) -> Reply:
    """Serialize *envelope* as a handler answer (status from its type)."""
    return envelope.to_json().encode("utf-8"), status or envelope.http_status


def error_reply(
    error_type: str,
    message: str,
    *,
    status: Optional[int] = None,
    request_id: Optional[str] = None,
) -> Reply:
    """A typed failure envelope as a handler answer."""
    envelope = ResponseEnvelope.failure(
        ErrorInfo(type=error_type, message=message), request_id=request_id
    )
    return reply(envelope, status)


def json_reply(payload: Any, status: int = 200) -> Reply:
    return json.dumps(payload, sort_keys=True).encode("utf-8"), status


class HttpService:
    """One asyncio HTTP/1.1 service: lifecycle, connections and routes.

    A subclass answers the routes — ``_healthz()``, ``async _metrics()``,
    ``async _solve(request)`` and ``async _session(request, op)``, each
    returning a :data:`Reply` — and supplies ``async _drain() -> bool``,
    which lets in-flight work finish within ``drain_timeout`` and says
    whether it did.
    """

    #: Counter namespace of the service's accounting (``<prefix>.requests``).
    prefix = "service"
    #: Error type of a handler that raised (the last-resort boundary).
    last_resort_error = ERROR_INTERNAL

    def __init__(self, config: ListenerConfig, metrics: MetricsRegistry) -> None:
        self.config = config
        self.metrics = metrics
        self.state = ServerState.CREATED
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        #: Connection tasks currently *inside* a request (parse → dispatch →
        #: response write). Everything in ``_connections`` but not here is
        #: idle in a keep-alive read and safe to cancel at any time.
        self._active_requests: Set[asyncio.Task] = set()
        self._stopped = asyncio.Event()
        self._started_at = 0.0

    def _stop(self) -> None:
        """Release what the service holds once every connection is gone."""

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

    @property
    def uptime(self) -> float:
        if not self._started_at:
            return 0.0
        return time.monotonic() - self._started_at

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

        1. transition to DRAINING — ``/healthz`` goes 503 and new work on
           open connections is rejected with ``draining``;
        2. close the listening socket;
        3. the subclass's drain step, bounded by ``drain_timeout``;
        4. close idle keep-alive connections, give busy ones a short grace
           period if the drain finished, and cancel the rest (typed
           ``cancelled`` envelopes);
        5. the subclass's stop step, transition to STOPPED.
        """
        if self.state in (ServerState.DRAINING, ServerState.STOPPED):
            await self._stopped.wait()
            return
        self.state = ServerState.DRAINING
        if self._server is not None:
            self._server.close()
            # No ``await wait_closed()`` here: on Python 3.12+ it blocks
            # until every client *transport* closes, which would stall the
            # drain indefinitely while any keep-alive connection is open.
            # ``close()`` alone stops the listener from accepting.
        drained = await self._drain()
        # Idle keep-alive connections sit blocked in ``read_request`` and
        # would pin the shutdown forever if left alone — close them first
        # (they are between requests; cancelling loses nothing).
        for task in list(self._connections):
            if task not in self._active_requests:
                task.cancel()
        if drained and self._active_requests:
            # Nothing is left to wait on, so active connections are only
            # flushing their final response bytes: a short grace period.
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
        self._stop()
        self.state = ServerState.STOPPED
        self._stopped.set()

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
                await self._send_rejection(writer, ERROR_TOO_LARGE, exc)
                # Discard a bounded slice of the unread body so closing the
                # socket does not RST the envelope out of the client's
                # receive buffer (large senders may still see a reset).
                await self._discard(reader)
                return
            except httpio.ProtocolError as exc:
                await self._send_rejection(writer, ERROR_BAD_REQUEST, exc)
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
                    body, status = await self._dispatch(request)
                except asyncio.CancelledError:
                    # Shutdown hit after the drain timeout while this
                    # request was mid-flight: best-effort typed envelope,
                    # then unwind.
                    body, status = error_reply(
                        ERROR_CANCELLED, f"request cancelled by {self.prefix} shutdown"
                    )
                    writer.write(httpio.render_response(status, body, close=True))
                    raise
                except Exception as exc:  # noqa: BLE001 — last-resort boundary
                    body, status = error_reply(
                        self.last_resort_error, f"{type(exc).__name__}: {exc}"
                    )
                writer.write(
                    httpio.render_response(status, body, close=not keep_alive)
                )
                await writer.drain()
            finally:
                if task is not None:
                    self._active_requests.discard(task)
            if not keep_alive:
                return

    async def _send_rejection(
        self, writer: asyncio.StreamWriter, error_type: str, exc: Exception
    ) -> None:
        """Answer a request the framing layer refused, and close.

        Counted as a submitted-and-rejected request: the accounting
        identity must cover every request the socket saw.
        """
        self.metrics.counter(f"{self.prefix}.requests").inc()
        self.metrics.counter(f"{self.prefix}.rejected.{error_type}").inc()
        body, status = error_reply(error_type, str(exc))
        writer.write(httpio.render_response(status, body, close=True))
        await writer.drain()

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

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def _dispatch(self, request: httpio.HttpRequest) -> Reply:
        path = request.path
        if path == "/healthz" and request.method == "GET":
            return self._healthz()
        if path == "/metrics" and request.method == "GET":
            return await self._metrics()
        if path == "/solve":
            if request.method != "POST":
                return self._not_allowed(request)
            return await self._solve(request)
        if path.startswith("/session/"):
            op = path[len("/session/"):]
            if op in SESSION_OPS:
                if request.method != "POST":
                    return self._not_allowed(request)
                return await self._session(request, op)
        return json_reply(
            {"error": {"type": "not_found", "message": f"no route for {path}"}},
            404,
        )

    @staticmethod
    def _not_allowed(request: httpio.HttpRequest) -> Reply:
        return error_reply(
            ERROR_BAD_REQUEST,
            f"{request.path} requires POST, got {request.method}",
            status=405,
        )


# --------------------------------------------------------------------- #
# runners: a daemon thread (tests, benchmarks) or the foreground (CLIs)
# --------------------------------------------------------------------- #


class BackgroundService:
    """Run an :class:`HttpService` on a daemon thread with its own loop.

    A subclass names the service (``kind``) and builds it (``_build``);
    the context-manager form is what the tests and load generators use.
    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    """

    kind = "service"

    def __init__(self, config: ListenerConfig) -> None:
        self.config = config
        self.service: Optional[HttpService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._port: Optional[int] = None

    def _build(self) -> HttpService:
        raise NotImplementedError

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError(f"{self.kind} not started")
        return self._port

    @property
    def metrics(self) -> MetricsRegistry:
        if self.service is None:
            raise RuntimeError(f"{self.kind} not started")
        return self.service.metrics

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self.kind}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError(f"{self.kind} failed to start within 30 s")
        if self._startup_error is not None:
            raise RuntimeError(f"{self.kind} failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self.service is None:
            return
        if not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.service = self._build()
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._port = self.service.port
        self._ready.set()
        await self.service.serve_forever()


async def run_until_signalled(service: HttpService, tag: str, banner: str) -> None:
    """Start *service*, print *banner*, and serve until SIGTERM/SIGINT drains it.

    *banner* may name ``{host}`` and ``{port}``; they are filled in after
    the listener is bound, so ``--port 0`` prints the port it got. Log
    lines are prefixed ``[tag]``.
    """
    await service.start()
    loop = asyncio.get_running_loop()
    shutdowns: Set[asyncio.Future] = set()

    def request_shutdown(signame: str) -> None:
        print(f"[{tag}] {signame} received — draining...", flush=True)
        shutdowns.add(asyncio.ensure_future(service.shutdown()))

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, request_shutdown, sig.name)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    print(f"[{tag}] " + banner.format(host=service.host, port=service.port), flush=True)
    await service.serve_forever()
    await asyncio.gather(*shutdowns)
