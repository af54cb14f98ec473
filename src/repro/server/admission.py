"""Bounded admission control: explicit backpressure, never unbounded buffering.

The server's concurrency model is two nested bounds:

* at most ``workers`` requests are **in flight** (holding a solver slot);
* at most ``queue_limit`` further requests are **queued** waiting for a
  slot.

Admission checks the *combined* bound (``in_flight + waiting < workers +
queue_limit``), so a request that could immediately take a free worker
slot is never counted against ``queue_limit`` — with ``queue_limit=0`` an
idle server still serves up to ``workers`` concurrent requests.

A request beyond both bounds is rejected *immediately* with a typed
:class:`OverloadedError` — the 429-style backpressure signal — instead of
being buffered. Queued requests carry their deadline into the wait: a
request whose deadline expires before a slot frees is failed with
:class:`DeadlineExceededError` and never starts solving.

Drain support: :meth:`AdmissionQueue.begin_drain` flips the queue into a
rejecting state (new admissions raise :class:`DrainingError`) while
:meth:`AdmissionQueue.wait_idle` lets the shutdown path wait — up to the
drain timeout — for in-flight and queued work to finish.

Everything here runs on the event-loop thread, so plain counters are safe;
the :class:`~repro.service.metrics.MetricsRegistry` (shared with the
worker threads) is internally locked.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Dict, Optional, TypeVar

from repro.service.metrics import MetricsRegistry

__all__ = [
    "AdmissionQueue",
    "DeadlineExceededError",
    "DrainingError",
    "OverloadedError",
    "within",
]

T = TypeVar("T")


class OverloadedError(RuntimeError):
    """The admission queue is full; the request was rejected, not buffered."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"admission queue full ({depth}/{limit} waiting); retry later"
        )
        self.depth = depth
        self.limit = limit


class DrainingError(RuntimeError):
    """The server is draining and no longer accepts new work."""

    def __init__(self) -> None:
        super().__init__("server is draining; not accepting new requests")


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired (while queued or mid-solve)."""

    def __init__(self, phase: str, budget: float) -> None:
        super().__init__(
            f"deadline of {budget * 1000.0:.0f} ms exceeded while {phase}"
        )
        self.phase = phase
        self.budget = budget


async def within(
    awaitable: Awaitable[T],
    remaining: Optional[float],
    phase: str,
    metrics: MetricsRegistry,
) -> T:
    """Await *awaitable* for at most *remaining* seconds (``None``: no bound).

    On expiry the wait is cancelled, ``server.timeout`` and
    ``server.timeout.<phase>`` are counted and
    :class:`DeadlineExceededError` is raised.
    """
    if remaining is None:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout=max(remaining, 1e-3))
    except asyncio.TimeoutError:
        metrics.counter("server.timeout").inc()
        metrics.counter(f"server.timeout.{phase}").inc()
        raise DeadlineExceededError(phase, max(remaining, 0.0)) from None


class AdmissionQueue:
    """Bounded queue + worker-slot gate with metrics accounting.

    Parameters
    ----------
    queue_limit:
        Maximum number of requests allowed to *wait* for a worker slot.
    workers:
        Number of concurrent solver slots.
    metrics:
        Shared registry; admissions / rejections / timeouts / cancellations
        are counted under ``server.*``.
    """

    def __init__(
        self, queue_limit: int, workers: int, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue_limit = queue_limit
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._slots = asyncio.Semaphore(workers)
        self._waiting = 0
        self._in_flight = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Requests admitted and waiting for a worker slot."""
        return self._waiting

    @property
    def in_flight(self) -> int:
        """Requests currently holding a worker slot."""
        return self._in_flight

    @property
    def draining(self) -> bool:
        return self._draining

    def snapshot(self) -> Dict[str, int]:
        return {
            "queue_depth": self._waiting,
            "in_flight": self._in_flight,
            "queue_limit": self.queue_limit,
            "workers": self.workers,
        }

    def _update_idle(self) -> None:
        if self._waiting == 0 and self._in_flight == 0:
            self._idle.set()
        else:
            self._idle.clear()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def try_admit(self) -> None:
        """Admit one request into the wait queue or reject it right now.

        The admission bound is the *combined* capacity ``workers +
        queue_limit``: a request that can immediately take a free worker
        slot is always admitted, and ``queue_limit`` only bounds requests
        that would genuinely wait. (With ``queue_limit=0`` an idle server
        still serves up to ``workers`` concurrent requests; the overflow is
        rejected instead of queued.)
        """
        if self._draining:
            self.metrics.counter("server.rejected.draining").inc()
            raise DrainingError()
        if self._waiting + self._in_flight >= self.workers + self.queue_limit:
            self.metrics.counter("server.rejected.overloaded").inc()
            raise OverloadedError(self._waiting, self.queue_limit)
        self._waiting += 1
        self._update_idle()
        self.metrics.counter("server.admitted").inc()

    async def acquire_slot(self, remaining: float) -> None:
        """Wait (≤ *remaining* seconds) for a worker slot.

        Transitions the request from *waiting* to *in flight*. Raises
        :class:`DeadlineExceededError` when the deadline expires first —
        the request is then removed from the queue without ever solving.
        """
        try:
            if remaining <= 0:
                raise asyncio.TimeoutError
            await asyncio.wait_for(self._slots.acquire(), timeout=remaining)
        except asyncio.TimeoutError:
            self._waiting -= 1
            self._update_idle()
            self.metrics.counter("server.timeout").inc()
            self.metrics.counter("server.timeout.queued").inc()
            raise DeadlineExceededError("queued", max(remaining, 0.0)) from None
        except asyncio.CancelledError:
            self._waiting -= 1
            self._update_idle()
            raise
        self._waiting -= 1
        self._in_flight += 1
        self._update_idle()

    def release_slot(self) -> None:
        """Return a worker slot (always called exactly once per acquire)."""
        self._in_flight -= 1
        self._slots.release()
        self._update_idle()

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #

    def begin_drain(self) -> None:
        """Stop admitting; queued and in-flight work continues."""
        self._draining = True

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Wait until no request is queued or in flight; False on timeout."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        return True
