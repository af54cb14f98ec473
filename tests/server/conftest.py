"""Shared fixtures for the serving-layer tests.

Mirrors the ``tests/service/`` fault-injection style: deterministic fast
solver settings, a ``SlowSampler`` whose delay is the injection point for
queue/deadline/drain edge cases, and small helper scripts.

The ``backend="process"`` tests need **picklable** fault injectors: the
spawn start method pickles every Process argument, so the lambda-wired
``SlowSampler`` factories the thread-backend tests use cannot cross the
process boundary. :class:`SlowSamplerFactory` and
:class:`CrashingSamplerFactory` are their module-level, picklable
counterparts.

:func:`answer_once` is a one-shot stub listener that answers with raw
response bytes, for the client-side transport tests (truncated bodies,
malformed status lines).
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.server.app import BackgroundServer, ServerConfig
from repro.server.httpio import read_request

#: Deterministic, fast solver settings shared by every server test.
FAST_SOLVER = dict(num_reads=24, sampler_params={"num_sweeps": 200}, seed=7)

SAT_SCRIPT = '(declare-const x String)(assert (= x "hi"))(check-sat)'
UNSAT_SCRIPT = '(assert (= "a" "b"))(check-sat)'
PARSE_ERROR_SCRIPT = '(assert (= x "unterminated'


class SlowSampler(SimulatedAnnealingSampler):
    """A sampler that sleeps before sampling — the lifecycle fault injector."""

    def __init__(self, delay: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.delay = delay

    def sample_model(self, model, **params):
        time.sleep(self.delay)
        return super().sample_model(model, **params)


class SlowSamplerFactory:
    """Picklable ``sampler_factory`` building :class:`SlowSampler` — the
    process-backend (and router fault-test) flavour of the lambda wiring."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def __call__(self) -> SlowSampler:
        return SlowSampler(self.delay)


class _CrashingSampler(SimulatedAnnealingSampler):
    """Kills its own process on first sample — simulates a native-code
    crash (segfault) inside a solver worker, unreachable via exceptions."""

    def sample_model(self, model, **params):
        os._exit(139)


class CrashingSamplerFactory:
    """Picklable factory for :class:`_CrashingSampler`."""

    def __call__(self) -> _CrashingSampler:
        return _CrashingSampler()


def fast_config(**overrides) -> ServerConfig:
    """A deterministic ephemeral-port config; overrides win."""
    settings = dict(
        port=0,
        workers=2,
        queue_limit=16,
        deadline_ms=30000.0,
        drain_timeout=10.0,
        **FAST_SOLVER,
    )
    settings.update(overrides)
    return ServerConfig(**settings)


@pytest.fixture
def server():
    """A running background server with the fast deterministic config."""
    with BackgroundServer(fast_config()) as handle:
        yield handle


async def answer_once(response: bytes, port_user):
    """Serve *response* (raw bytes, then close) to one request on a stub
    listener, and return what ``port_user(port)`` returns."""

    async def handle(reader, writer):
        await read_request(reader, 1 << 20)
        writer.write(response)
        await writer.drain()
        writer.close()

    stub = await asyncio.start_server(handle, "127.0.0.1", 0)
    try:
        return await port_user(stub.sockets[0].getsockname()[1])
    finally:
        stub.close()
        await stub.wait_closed()
