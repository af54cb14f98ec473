"""Monotonic-clock timing primitives shared across the library.

This module is the **single source of wall-clock measurement** for the
benchmarks (``benchmarks/``), the service metrics
(:class:`repro.service.metrics.MetricsRegistry`) and the
performance-regression harness (:mod:`repro.perf`):

* :class:`Timer` — a context manager around ``time.perf_counter``;
* :func:`measure` — time one callable, returning ``(seconds, result)``;
* :class:`SegmentTimer` — a context manager that reports an elapsed
  duration into an arbitrary ``record(name, seconds)`` callback — the one
  primitive behind both :meth:`Stopwatch.time` and
  :meth:`repro.service.metrics.MetricsRegistry.time`;
* :class:`Stopwatch` — named segment accumulation for splitting a solve
  into compile / build / anneal / decode phases.

Keep clock access here: duplicated ad-hoc ``perf_counter`` arithmetic is
exactly what the perf harness exists to retire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Timer", "Stopwatch", "SegmentTimer", "measure"]


def measure(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    """Call *fn* and return ``(elapsed_seconds, result)``.

    The elapsed time is measured with ``time.perf_counter`` (monotonic).

    Examples
    --------
    >>> seconds, value = measure(sum, range(10))
    >>> value, seconds >= 0.0
    (45, True)
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


class Timer:
    """Context manager measuring wall-clock time with ``perf_counter``.

    Can also be driven imperatively — ``start()`` / ``stop()`` — for call
    sites where the measured region spans exception handlers and a ``with``
    block would not scope naturally (e.g. per-item batch timing).

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def start(self) -> "Timer":
        """Begin (or restart) the measured region."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """End the measured region and return the elapsed seconds."""
        self.__exit__()
        return self._elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None

    @property
    def elapsed(self) -> float:
        """Seconds elapsed; valid after the ``with`` block exits."""
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed


class SegmentTimer:
    """Time a ``with`` block and report it into a record callback.

    The generic segment-timing primitive: ``record(name, seconds)`` is
    called exactly once on exit. :class:`Stopwatch` points it at its own
    segment store; :class:`~repro.service.metrics.MetricsRegistry` points
    it at its lock-guarded ``observe`` — one implementation, no per-caller
    copies of the clock arithmetic.
    """

    __slots__ = ("_record", "_name", "_start")

    def __init__(self, record: Callable[[str, float], None], name: str) -> None:
        self._record = record
        self._name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "SegmentTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self._record(self._name, time.perf_counter() - self._start)


@dataclass
class Stopwatch:
    """Accumulates named timing segments across repeated measurements.

    Useful for splitting a solve into build / sample / decode phases when
    profiling the pipeline (see ``benchmarks/bench_figure1_pipeline.py``).
    """

    segments: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, name: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration for segment {name!r}: {seconds}")
        self.segments.setdefault(name, []).append(seconds)

    def time(self, name: str) -> SegmentTimer:
        """Return a context manager recording into segment *name*."""
        return SegmentTimer(self.record, name)

    def total(self, name: str) -> float:
        return sum(self.segments.get(name, ()))

    def mean(self, name: str) -> float:
        values = self.segments.get(name)
        if not values:
            raise KeyError(f"no measurements for segment {name!r}")
        return sum(values) / len(values)

    def summary(self) -> Dict[str, float]:
        """Total seconds per segment, in insertion order."""
        return {name: sum(vals) for name, vals in self.segments.items()}
