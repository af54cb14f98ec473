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
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.cache": (
            "CacheStats",
            "CompileCache",
            "LruCache",
            "compile_cache_key",
        ),
        "repro.service.metrics": ("Counter", "MetricsRegistry", "histogram_summary"),
        "repro.service.policy": (
            "AttemptTimeout",
            "RetryError",
            "RetryExhaustedError",
            "RetryOutcome",
            "RetryPolicy",
        ),
        "repro.service.batch": ("BatchItemResult", "BatchReport", "BatchSolver"),
    },
)
