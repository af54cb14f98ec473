"""Counters and timing histograms for the solving service.

A :class:`MetricsRegistry` is a thread-safe bag of named **counters**
(monotone integers) and **histograms** (distributions of non-negative
samples — typically seconds). Stage timings build on
:class:`repro.utils.timing.Stopwatch`: the registry owns one stopwatch and
``registry.time("anneal")`` records a segment into it, so existing
Stopwatch-based profiling code and the new service metrics share one
storage and one export path.

The JSON export (:meth:`MetricsRegistry.export` /
:meth:`MetricsRegistry.to_json`) is the schema consumed by
``benchmarks/bench_batch.py`` and documented in DESIGN.md:

.. code-block:: json

    {
      "counters": {"batch.items": 20, "cache.hits": 16},
      "histograms": {
        "anneal": {"count": 20, "total": 1.9, "mean": 0.095,
                   "min": 0.08, "max": 0.12, "p50": 0.09, "p95": 0.12}
      }
    }
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.utils.timing import SegmentTimer, Stopwatch

__all__ = [
    "Counter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "histogram_summary",
]


class Counter:
    """A named monotone counter (thread-safe through the registry lock)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> int:
        """Add *amount* (must be non-negative); returns the new value."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


def histogram_summary(values: List[float]) -> Dict[str, float]:
    """Summary statistics of one histogram series."""
    if not values:
        return {"count": 0, "total": 0.0, "mean": 0.0,
                "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0}
    ordered = sorted(values)
    n = len(ordered)

    def pct(p: float) -> float:
        # Nearest-rank percentile: robust for the small n of a solve batch.
        rank = max(0, min(n - 1, int(round(p * (n - 1)))))
        return float(ordered[rank])

    total = float(sum(ordered))
    return {
        "count": n,
        "total": total,
        "mean": total / n,
        "min": float(ordered[0]),
        "max": float(ordered[-1]),
        "p50": pct(0.50),
        "p95": pct(0.95),
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time marker of a :class:`MetricsRegistry`.

    Captures counter values and per-histogram sample counts so
    :meth:`MetricsRegistry.since` can attribute everything recorded *after*
    this point to one region of interest (one benchmark repeat, one batch,
    one request). Histograms are append-only and counters are monotone, so
    the marker stays valid however much is recorded afterwards.
    """

    counters: Mapping[str, int] = field(default_factory=dict)
    histogram_counts: Mapping[str, int] = field(default_factory=dict)


class MetricsRegistry:
    """Thread-safe registry of counters and timing histograms.

    Examples
    --------
    >>> metrics = MetricsRegistry()
    >>> metrics.counter("solves").inc()
    1
    >>> with metrics.time("anneal"):
    ...     pass
    >>> metrics.export()["histograms"]["anneal"]["count"]
    1
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._stopwatch = Stopwatch()

    # ------------------------------------------------------------------ #
    # counters
    # ------------------------------------------------------------------ #

    def counter(self, name: str) -> Counter:
        """The counter *name*, created on first use."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name, self._lock)
            return counter

    # ------------------------------------------------------------------ #
    # histograms (Stopwatch-backed)
    # ------------------------------------------------------------------ #

    def observe(self, name: str, value: float) -> None:
        """Record one non-negative sample into histogram *name*."""
        with self._lock:
            self._stopwatch.record(name, value)

    def time(self, name: str) -> SegmentTimer:
        """Context manager timing a block into histogram *name* (seconds).

        Shares :class:`repro.utils.timing.SegmentTimer` with
        :meth:`Stopwatch.time`; the only difference is that the recording
        callback here (:meth:`observe`) takes the registry lock.
        """
        return SegmentTimer(self.observe, name)

    def values(self, name: str) -> List[float]:
        """A copy of the raw samples of histogram *name*."""
        with self._lock:
            return list(self._stopwatch.segments.get(name, ()))

    @property
    def stopwatch(self) -> Stopwatch:
        """The backing stopwatch (shared storage with :meth:`time`)."""
        return self._stopwatch

    # ------------------------------------------------------------------ #
    # snapshot / diff (per-stage attribution)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> MetricsSnapshot:
        """A consistent point-in-time marker (see :class:`MetricsSnapshot`)."""
        with self._lock:
            return MetricsSnapshot(
                counters={name: c.value for name, c in self._counters.items()},
                histogram_counts={
                    name: len(values)
                    for name, values in self._stopwatch.segments.items()
                },
            )

    def since(self, snapshot: MetricsSnapshot) -> Dict[str, Dict]:
        """Everything recorded after *snapshot*.

        Returns ``{"counters": {name: delta}, "histograms": {name:
        [new samples...]}}`` with zero-delta counters and unchanged
        histograms omitted — the per-stage attribution consumed by
        :mod:`repro.perf` to split one benchmark repeat into
        compile / build / anneal / decode seconds.
        """
        with self._lock:
            counter_deltas = {}
            for name, counter in self._counters.items():
                delta = counter.value - snapshot.counters.get(name, 0)
                if delta:
                    counter_deltas[name] = delta
            histogram_deltas = {}
            for name, values in self._stopwatch.segments.items():
                start = snapshot.histogram_counts.get(name, 0)
                if len(values) > start:
                    histogram_deltas[name] = list(values[start:])
        return {"counters": counter_deltas, "histograms": histogram_deltas}

    # ------------------------------------------------------------------ #
    # aggregation / export
    # ------------------------------------------------------------------ #

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s counters and histograms into this registry."""
        with other._lock:
            counters = {n: c.value for n, c in other._counters.items()}
            segments = {n: list(v) for n, v in other._stopwatch.segments.items()}
        with self._lock:
            for name, value in counters.items():
                self.counter(name).inc(value)
            for name, values in segments.items():
                for value in values:
                    self._stopwatch.record(name, value)

    def export(self) -> Dict[str, Dict]:
        """Snapshot of every metric, JSON-serializable."""
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            histograms = {
                name: histogram_summary(values)
                for name, values in sorted(self._stopwatch.segments.items())
            }
        return {"counters": counters, "histograms": histograms}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The export, rendered as JSON text."""
        return json.dumps(self.export(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"histograms={len(self._stopwatch.segments)})"
            )
