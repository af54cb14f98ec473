"""The solving service layer: batching, caching, retries, metrics.

High-volume production traffic (see ROADMAP.md) re-issues near-identical
constraint sets; this subpackage amortizes and hardens the per-request
pipeline:

* :mod:`~repro.service.cache` — content-hash compile cache
  (constraint AST → compiled QUBO problem, LRU with hit/miss stats);
* :mod:`~repro.service.policy` — the retry / per-attempt timeout / backoff
  policy shared by every sampler path;
* :mod:`~repro.service.metrics` — thread-safe counters and timing
  histograms with a JSON export, threaded through
  compile → build → anneal → decode;
* :mod:`~repro.service.batch` — :class:`BatchSolver`, solving many
  SMT-LIB scripts / constraint sets concurrently over a worker pool.

``batch`` is imported lazily (PEP 562): it depends on
:mod:`repro.smt.solver`, which itself uses the policy and metrics modules,
and laziness keeps that dependency acyclic.
"""

from repro.service.cache import (
    CacheStats,
    CompileCache,
    LruCache,
    compile_cache_key,
)
from repro.service.metrics import Counter, MetricsRegistry, histogram_summary
from repro.service.policy import (
    AttemptTimeout,
    RetryError,
    RetryExhaustedError,
    RetryOutcome,
    RetryPolicy,
)

__all__ = [
    "AttemptTimeout",
    "BatchItemResult",
    "BatchReport",
    "BatchSolver",
    "CacheStats",
    "CompileCache",
    "Counter",
    "LruCache",
    "MetricsRegistry",
    "RetryError",
    "RetryExhaustedError",
    "RetryOutcome",
    "RetryPolicy",
    "compile_cache_key",
    "histogram_summary",
]

_LAZY = {"BatchSolver", "BatchItemResult", "BatchReport"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.service import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)
