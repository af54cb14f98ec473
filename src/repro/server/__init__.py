"""The serving layer: an asyncio SMT-solving server over TCP/HTTP.

This subpackage is the deployment shape the ROADMAP's north star asks for
— the §4 string-QUBO pipeline as a long-lived service fed a stream of
SMT-LIB instances:

* :mod:`~repro.server.protocol` — JSON response envelopes, the typed
  error taxonomy (``parse`` / ``too_large`` / ``overloaded`` /
  ``timeout`` / ``draining`` / ``cancelled``), and located parse errors;
* :mod:`~repro.server.httpio` — minimal asyncio HTTP/1.1 framing with
  socket-layer request-size enforcement;
* :mod:`~repro.server.admission` — the bounded admission queue: explicit
  backpressure (reject, never buffer unboundedly), deadline-aware slot
  waits, drain support;
* :mod:`~repro.server.workers` — executor-thread solver pool sharing one
  :class:`~repro.service.cache.CompileCache` and one
  :class:`~repro.service.metrics.MetricsRegistry`, with per-request
  deadlines composed into :class:`~repro.service.policy.RetryPolicy`;
* :mod:`~repro.server.app` — :class:`SolverServer` (routing,
  ``/solve`` ``/healthz`` ``/metrics``, graceful drain) and
  :class:`BackgroundServer` (embedding helper for tests/benchmarks);
* :mod:`~repro.server.procpool` — :class:`ProcessSolverBackend`: the
  ``backend="process"`` worker pool (long-lived solver processes, crash
  detection with typed ``internal`` envelopes, kill-and-respawn deadline
  cancellation);
* :mod:`~repro.server.router` — :class:`ShardRouter`: content-hash
  scale-out over N shard servers with fail-over, health probing and
  aggregated metrics (``python -m repro.server.router --shards 4``);
* :mod:`~repro.server.client` — blocking and asyncio clients.

Run it: ``python -m repro.server --port 8037 --workers 4``.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.server.admission": (
            "AdmissionQueue",
            "DeadlineExceededError",
            "DrainingError",
            "OverloadedError",
        ),
        "repro.server.protocol": (
            "ERROR_BAD_REQUEST",
            "ERROR_CANCELLED",
            "ERROR_DRAINING",
            "ERROR_INTERNAL",
            "ERROR_OVERLOADED",
            "ERROR_PARSE",
            "ERROR_TIMEOUT",
            "ERROR_TOO_LARGE",
            "ERROR_UPSTREAM",
            "ErrorInfo",
            "ResponseEnvelope",
            "SolveRequest",
            "locate_parse_error",
        ),
        "repro.server.app": (
            "BackgroundServer",
            "ServerConfig",
            "ServerState",
            "SolverServer",
        ),
        "repro.server.workers": ("SolverWorkerPool",),
        "repro.server.procpool": ("ProcessSolverBackend", "WorkerCrashError"),
        "repro.server.router": (
            "BackgroundRouter",
            "RouterConfig",
            "ShardRouter",
            "ShardSpec",
            "aggregate_metrics",
            "shard_key",
        ),
        "repro.server.client": ("AsyncSolverClient", "SolveReply", "SolverClient"),
    },
)
