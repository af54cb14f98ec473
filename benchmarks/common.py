"""Shared benchmark utilities.

Benchmarks double as the reproduction harness: each one *prints* the
table/figure series it regenerates (so the paper-vs-measured comparison in
EXPERIMENTS.md can be refreshed from ``bench_output.txt``) and *times* the
representative kernel through pytest-benchmark.

pytest captures stdout, so the report printer writes to the real stdout
(``sys.__stdout__``), keeping the regenerated tables visible in the
``pytest benchmarks/ --benchmark-only | tee`` flow.
"""

from __future__ import annotations

import sys
import zlib
from typing import Iterable, List, Sequence

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core.solver import StringQuboSolver

# The monotonic-clock primitives live in repro.utils.timing (single source
# of wall-clock measurement — see that module's docstring); benchmarks
# re-export them instead of keeping local copies.
from repro.utils.timing import Timer, measure  # noqa: F401  (re-export)

__all__ = [
    "emit",
    "emit_table",
    "make_solver",
    "name_seed",
    "bench_once",
    "bench_few",
    "registered_workload",
    "run_registered",
    "measure",
    "Timer",
    "DEFAULT_SWEEPS",
    "DEFAULT_READS",
]

DEFAULT_SWEEPS = 400
DEFAULT_READS = 48


#: Lines queued for the end-of-run report (pytest captures stdout at the
#: file-descriptor level, so direct printing is invisible mid-run; the
#: ``pytest_terminal_summary`` hook in ``benchmarks/conftest.py`` flushes
#: this buffer after capture ends).
REPORT_BUFFER: List[str] = []


def emit(*lines: str) -> None:
    """Queue report lines for the end-of-run reproduction summary."""
    REPORT_BUFFER.extend(lines)


def emit_table(title: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Render an aligned text table straight to the real stdout."""
    rows = [[str(c) for c in row] for row in rows]
    header = [str(h) for h in header]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: List[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths))

    emit("", f"## {title}", fmt(header), fmt(["-" * w for w in widths]))
    for row in rows:
        emit(fmt(row))


def bench_once(benchmark, fn):
    """Time *fn* exactly once.

    Used for the table-regeneration harnesses: they must run (and print)
    under ``--benchmark-only``, but repeating a multi-second sweep five
    times buys no precision worth the wall-clock.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def bench_few(benchmark, fn, rounds: int = 3):
    """Time *fn* a few rounds — the default for second-scale solves."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=0)


def make_solver(seed: int = 2025, reads: int = DEFAULT_READS,
                sweeps: int = DEFAULT_SWEEPS) -> StringQuboSolver:
    """The paper's configuration: simulated annealing, A = 1."""
    return StringQuboSolver(
        sampler=SimulatedAnnealingSampler(),
        num_reads=reads,
        seed=seed,
        sampler_params={"num_sweeps": sweeps},
    )


def name_seed(name: str) -> int:
    """A per-row seed derived from a row name. A stable digest, not the
    per-process salted ``hash``, so a table prints the same on every run."""
    return zlib.crc32(name.encode()) % 1000


def registered_workload(name: str):
    """A zero-arg runner for one registered ``repro.perf`` benchmark spec.

    Benchmarks that single out a representative workload are thin
    wrappers over the perf registry, so the pytest-benchmark numbers and
    the committed ``BENCH_*.json`` baselines describe the *same* workload
    (same seeds, same instances). Construction (instance generation,
    model building, cache priming) happens here, outside the timed
    region; each call of the returned function is one timed repeat and
    returns the workload fingerprint dict.
    """
    from repro.perf.registry import get_spec
    from repro.perf.workloads import build_workload
    from repro.service.metrics import MetricsRegistry

    workload = build_workload(get_spec(name))
    return lambda: workload.run(MetricsRegistry())


def run_registered(name: str):
    """Build and run one repeat of a registered spec (see above)."""
    return registered_workload(name)()
