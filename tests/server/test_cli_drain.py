"""SIGTERM drains both CLIs: ``python -m repro.server`` and
``python -m repro.server.router``.

Each test starts the real entry point in a subprocess on an ephemeral
port, reads the bound port from its banner, sends one solve, sends
SIGTERM, and expects exit code 0 with the ``drained and stopped`` line
within 30 s.
"""

from __future__ import annotations

import os
import pathlib
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

import pytest

from repro.server.client import SolverClient

from tests.server.conftest import SAT_SCRIPT

pytestmark = [pytest.mark.server, pytest.mark.slow]

ROOT = pathlib.Path(__file__).resolve().parents[2]
STOP_BUDGET_S = 30.0
#: Small solver settings: the test is about the lifecycle, not the anneal.
SOLVER_ARGS = ["--workers", "1", "--num-reads", "8", "--num-sweeps", "32", "--seed", "7"]


class Cli:
    """One CLI subprocess whose output lines are read on a pump thread."""

    def __init__(self, module: str, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next_line(self, deadline: float) -> Optional[str]:
        try:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise AssertionError(f"timed out; output so far: {self.output}") from None
        if line is not None:
            self.output.append(line)
        return line

    def wait_for(self, pattern: str, timeout: float = 60.0) -> re.Match:
        deadline = time.monotonic() + timeout
        while (line := self._next_line(deadline)) is not None:
            match = re.search(pattern, line)
            if match:
                return match
        raise AssertionError(f"exited before {pattern!r}: {self.output}")

    def port(self, verb: str) -> int:
        return int(self.wait_for(rf"\] {verb} on [\d.]+:(\d+)").group(1))

    def terminate(self) -> int:
        """SIGTERM, then the exit code once the output has ended."""
        started = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=STOP_BUDGET_S)
        while self._next_line(started + STOP_BUDGET_S) is not None:
            pass
        assert time.monotonic() - started < STOP_BUDGET_S
        return code

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._pump_thread.join(timeout=10)
        self.proc.stdout.close()


def assert_drained(cli: Cli, tag: str) -> None:
    code = cli.terminate()
    assert code == 0, cli.output
    assert any(f"[{tag}] drained and stopped" in line for line in cli.output), cli.output


def solve_through(port: int) -> None:
    with SolverClient("127.0.0.1", port, timeout=60.0) as client:
        reply = client.solve(SAT_SCRIPT)
    assert reply.ok and reply.status == "sat", reply


def test_server_cli_drains_on_sigterm():
    server = Cli("repro.server", "--port", "0", *SOLVER_ARGS)
    try:
        solve_through(server.port("serving"))
        assert_drained(server, "repro.server")
    finally:
        server.close()


def test_router_cli_drains_on_sigterm():
    server = Cli("repro.server", "--port", "0", *SOLVER_ARGS)
    router = None
    try:
        shard_port = server.port("serving")
        router = Cli(
            "repro.server.router", "--port", "0", "--attach", f"127.0.0.1:{shard_port}"
        )
        solve_through(router.port("routing"))
        assert_drained(router, "repro.router")
        assert_drained(server, "repro.server")
    finally:
        if router is not None:
            router.close()
        server.close()
