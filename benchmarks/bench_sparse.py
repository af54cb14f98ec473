"""Sparse-vs-dense annealing kernels across string lengths.

The bit-local string QUBOs of §4 have O(n) couplings on 7n variables, so
their off-diagonal density decays like 1/n; beyond the auto-select
threshold the CSR kernels should win on both sweep throughput (row-slice
field updates are O(deg) instead of O(n)) and model memory (CSR triplet
instead of an (n, n) float64 matrix), while staying **bit-identical** to
the dense path at a fixed seed.

This file runs two ways:

* under pytest-benchmark (``pytest benchmarks/bench_sparse.py
  --benchmark-only``) it regenerates the comparison table through the
  shared report buffer, like every other bench in this directory;
* as a script (``PYTHONPATH=src python benchmarks/bench_sparse.py
  [--smoke]``) it prints the same table directly and exits non-zero if
  the two kernels ever disagree — the CI smoke job.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core import PalindromeGeneration
from repro.qubo.sparse import sparse_stats
from repro.utils.timing import measure

#: Palindrome lengths swept by the full benchmark (7 n binary variables
#: each); 64 is the acceptance point — 448 variables, where the sparse
#: path must be auto-selected and clearly ahead.
LENGTHS = [16, 32, 64, 96]
SMOKE_LENGTHS = [16, 32]

#: Many reads is the representative regime: success-rate accounting and the
#: batch service sample in bulk, and the dense kernel's O(R n) field update
#: is what the CSR row slices beat.
READS = 256
SWEEPS = 100
SMOKE_READS = 8
SMOKE_SWEEPS = 64
SEED = 2025


@dataclass
class SparseBenchRow:
    """One length's dense-vs-sparse comparison."""

    length: int
    num_variables: int
    density: float
    auto_sparse: bool
    dense_time: float
    sparse_time: float
    memory_ratio: float
    identical: bool

    @property
    def speedup(self) -> float:
        return self.dense_time / max(self.sparse_time, 1e-12)


def _time_mode(model, mode: str, reads: int, sweeps: int, seed: int):
    """Run the annealer with a forced coupling form; return (time, sampleset)."""
    sampler = SimulatedAnnealingSampler()
    return measure(
        sampler.sample_model,
        model,
        num_reads=reads,
        num_sweeps=sweeps,
        seed=seed,
        coupling_mode=mode,
    )


def compare_length(length: int, reads: int = READS, sweeps: int = SWEEPS,
                   seed: int = SEED) -> SparseBenchRow:
    """Compare the dense and sparse kernels on one palindrome model."""
    model = PalindromeGeneration(length).build_model()
    stats = sparse_stats(model.to_dict(), model.num_variables)

    dense_time, dense_set = _time_mode(model, "dense", reads, sweeps, seed)
    sparse_time, sparse_set = _time_mode(model, "sparse", reads, sweeps, seed)

    identical = bool(
        np.array_equal(dense_set.states, sparse_set.states)
        and np.array_equal(dense_set.energies, sparse_set.energies)
    )
    return SparseBenchRow(
        length=length,
        num_variables=model.num_variables,
        density=stats.density,
        auto_sparse=stats.auto_sparse,
        dense_time=dense_time,
        sparse_time=sparse_time,
        memory_ratio=stats.memory_ratio,
        identical=identical,
    )


def _format_rows(rows: Sequence[SparseBenchRow]) -> List[List[str]]:
    return [
        [
            str(row.length),
            str(row.num_variables),
            f"{row.density:.4f}",
            str(row.auto_sparse),
            f"{row.dense_time:.3f}s",
            f"{row.sparse_time:.3f}s",
            f"{row.speedup:.1f}x",
            f"{row.memory_ratio:.1f}x",
            str(row.identical),
        ]
        for row in rows
    ]


_HEADER = [
    "n", "qubits", "density", "auto", "dense", "sparse",
    "speedup", "mem ratio", "bit-identical",
]


# ------------------------------------------------------------------ #
# pytest-benchmark entry points
# ------------------------------------------------------------------ #


def test_sparse_vs_dense_table(benchmark):
    from benchmarks.common import bench_once, emit_table

    def _run():
        rows = [compare_length(length) for length in LENGTHS]
        emit_table(
            "Sparse CSR vs dense kernels — palindrome generation "
            f"({READS} reads, {SWEEPS} sweeps)",
            _HEADER,
            _format_rows(rows),
        )
        for row in rows:
            assert row.identical, f"kernel mismatch at n={row.length}"
        return rows

    bench_once(benchmark, _run)


def test_sparse_kernel_length_64(benchmark):
    """Time the acceptance-point sparse kernel on its own.

    Thin wrapper over the tracked ``kernel-sparse-n64`` perf spec, so this
    number and the committed ``BENCH_sparse.json`` baseline describe the
    same workload.
    """
    from benchmarks.common import bench_few, registered_workload

    run = registered_workload("kernel-sparse-n64")
    fingerprint = bench_few(benchmark, run)
    assert fingerprint["coupling_form"] == "sparse"


# ------------------------------------------------------------------ #
# standalone / CI smoke entry point
# ------------------------------------------------------------------ #


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short lengths and budgets (the CI configuration)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)

    lengths = SMOKE_LENGTHS if args.smoke else LENGTHS
    reads = SMOKE_READS if args.smoke else READS
    sweeps = SMOKE_SWEEPS if args.smoke else SWEEPS

    rows = [compare_length(n, reads=reads, sweeps=sweeps, seed=args.seed)
            for n in lengths]

    widths = [max(len(h), *(len(r[i]) for r in _format_rows(rows)))
              for i, h in enumerate(_HEADER)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(f"sparse vs dense kernels ({reads} reads, {sweeps} sweeps)")
    print(fmt.format(*_HEADER))
    print(fmt.format(*("-" * w for w in widths)))
    for formatted in _format_rows(rows):
        print(fmt.format(*formatted))

    failures = [row.length for row in rows if not row.identical]
    if failures:
        print(f"FAIL: dense/sparse kernels disagree at n={failures}",
              file=sys.stderr)
        return 1
    print("OK: sparse kernel bit-identical to dense at fixed seed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
