"""Properties of the scale-out layer: backend equivalence and stable keys.

1. **Backend bit-identity** — ``backend="process"`` must answer exactly
   what ``backend="thread"`` and a direct in-process ``check_sat`` answer
   at the same seed: same status, same model, same per-variable energies.
   Worker processes, pipes and per-worker caches are transport, not
   semantics (same contract the batch-≡-sequential property pins one
   layer down).

2. **Routing-key stability** — :func:`repro.server.router.shard_key` is a
   content hash (sha256 over the parsed assertion conjunction), so it
   must be identical across processes, runs and ``PYTHONHASHSEED``
   values. If it ever picked up ``hash()`` randomization, a router
   restart would silently re-shard every key and cold every cache; the
   pinned digests below make that a loud failure.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys

import pytest

from repro.server.procpool import ProcessSolverBackend
from repro.server.router import shard_index, shard_key
from repro.server.workers import SolverWorkerPool
from repro.service.spec import SolveSpec
from repro.smt.parser import parse_script
from repro.smt.solver import QuantumSMTSolver

from tests.server.conftest import FAST_SOLVER

pytestmark = [pytest.mark.server, pytest.mark.slow]

SCRIPTS = [
    '(declare-const x String)(assert (= x "hi"))(check-sat)',
    '(declare-const y String)'
    '(assert (= y "abc"))(assert (= (str.len y) 3))(check-sat)',
    '(declare-const a String)(declare-const b String)'
    '(assert (= a "q"))(assert (= b "zz"))(check-sat)',
]


def solve_direct(assertions):
    solver = QuantumSMTSolver(**FAST_SOLVER)
    solver.assertions = list(assertions)
    return solver.check_sat()


def fingerprint(result):
    """Everything the determinism contract pins: status, model, energies."""
    return (
        str(result.status),
        dict(result.model),
        {name: r.energy for name, r in result.solve_results.items()},
        {name: r.ground_energy for name, r in result.solve_results.items()},
    )


class TestBackendBitIdentity:
    def test_process_thread_and_direct_agree_exactly(self):
        # One pool per backend, shared across scripts — per-worker caches
        # and worker reuse must not perturb answers.
        async def run_all():
            thread_pool = SolverWorkerPool(SolveSpec(**FAST_SOLVER), workers=2)
            process_pool = ProcessSolverBackend(SolveSpec(**FAST_SOLVER), workers=2)
            try:
                outcomes = []
                for script in SCRIPTS:
                    assertions = parse_script(script).assertions
                    via_thread = await thread_pool.solve(assertions)
                    via_process = await process_pool.solve(assertions)
                    outcomes.append((assertions, via_thread, via_process))
                return outcomes
            finally:
                thread_pool.shutdown()
                process_pool.shutdown()

        for assertions, via_thread, via_process in asyncio.run(run_all()):
            direct = fingerprint(solve_direct(assertions))
            assert fingerprint(via_thread.result) == direct
            assert fingerprint(via_process.result) == direct

    def test_process_backend_unaffected_by_cache_state(self):
        # A repeat of the same formula is a per-worker cache hit on
        # whichever worker gets it — the answer must not change.
        async def run():
            pool = ProcessSolverBackend(SolveSpec(**FAST_SOLVER), workers=1)
            try:
                assertions = parse_script(SCRIPTS[0]).assertions
                first = await pool.solve(assertions)
                second = await pool.solve(assertions)
                return first, second
            finally:
                pool.shutdown()

        first, second = asyncio.run(run())
        assert second.cache_hit  # workers=1 ⇒ the repeat is a local hit
        assert fingerprint(first.result) == fingerprint(second.result)


#: shard_key must never drift: these digests were computed once and are
#: load-bearing — cached placements and warm shards depend on them.
PINNED_KEYS = {
    '(declare-const x String)(assert (= x "hi"))(check-sat)':
        "841e80b8d5af1f2524b03a128e5437989dc0931c9123ea499ebd1ec8a7a6a448",
    # Unparseable input takes the raw-text fallback path; still pinned.
    '(assert (= x "unterminated':
        "67b21f0818d25f480330179f4fa147b0d7be4f44be339368c484e11c03aa7b07",
}

_SUBPROCESS_PROG = (
    "from repro.server.router import shard_key; import sys; "
    "print(shard_key(sys.argv[1]))"
)


class TestShardKeyStability:
    def test_pinned_digests(self):
        for script, expected in PINNED_KEYS.items():
            assert shard_key(script) == expected

    def test_whitespace_and_comments_do_not_move_keys(self):
        # The key hashes the *parsed* conjunction: formatting noise must
        # not re-shard a formula (that is what keeps caches warm).
        compact = '(declare-const x String)(assert (= x "hi"))(check-sat)'
        spaced = (
            "; a comment\n(declare-const x String)\n"
            '(assert (= x "hi"))\n(check-sat)\n'
        )
        assert shard_key(compact) == shard_key(spaced)

    def test_stable_across_processes_and_hash_seeds(self):
        # hash() randomization is the classic way this breaks: prove the
        # key survives fresh interpreters with different PYTHONHASHSEEDs.
        script = '(declare-const x String)(assert (= x "hi"))(check-sat)'
        import os

        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env.setdefault("PYTHONPATH", "src")
            out = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_PROG, script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            assert out.stdout.strip() == PINNED_KEYS[script], (
                f"shard_key drifted under PYTHONHASHSEED={hashseed}"
            )

    def test_index_partition_is_total_and_deterministic(self):
        key = shard_key(SCRIPTS[1])
        for n in (1, 2, 3, 8):
            index = shard_index(key, n)
            assert 0 <= index < n
            assert shard_index(key, n) == index  # pure function of (key, n)
