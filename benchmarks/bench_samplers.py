"""Ext-C — sampler ablation: SA vs SQA vs tabu vs greedy vs random vs exact.

All samplers hit the same two workloads (a diagonal-only equality QUBO and
the coupled palindrome QUBO). Expected shape: SA/SQA/tabu/greedy all solve
the diagonal workload; random fails decisively (anchoring the claim that
annealing does real work); the coupled workload separates greedy (local
minima) from the annealers.
"""

import pytest

from benchmarks.common import bench_few, bench_once, emit_table, name_seed
from repro.anneal import (
    ExactSolver,
    PathIntegralAnnealer,
    RandomSampler,
    SimulatedAnnealingSampler,
    SteepestDescentSampler,
    TabuSampler,
)
from repro.core import PalindromeGeneration, StringEquality, StringQuboSolver

SAMPLERS = [
    ("simulated-annealing", SimulatedAnnealingSampler(), {"num_sweeps": 400}, 48),
    ("sqa (path-integral)", PathIntegralAnnealer(), {"num_sweeps": 128}, 8),
    ("tabu", TabuSampler(), {}, 16),
    ("steepest-descent", SteepestDescentSampler(), {}, 48),
    ("random", RandomSampler(), {}, 48),
]


def _solve_with(sampler, params, reads, formulation, seed):
    solver = StringQuboSolver(
        sampler=sampler, num_reads=reads, seed=seed, sampler_params=params
    )
    return solver.solve(formulation)


def test_sampler_ablation_table(benchmark):
    def _run():
        workloads = [
            ("equality 'hello'", lambda: StringEquality("hello")),
            ("palindrome(6)", lambda: PalindromeGeneration(6)),
        ]
        rows = []
        for wname, factory in workloads:
            for sname, sampler, params, reads in SAMPLERS:
                result = _solve_with(sampler, params, reads, factory(), seed=name_seed(sname))
                rows.append([
                    wname,
                    sname,
                    f"{result.wall_time:.3f}s",
                    f"{result.energy:.1f}",
                    f"{result.success_rate:.0%}",
                    result.ok,
                ])
        emit_table(
            "Ext-C — sampler ablation on the paper's workloads",
            ["workload", "sampler", "time", "best E", "success", "verified"],
            rows,
        )

    bench_once(benchmark, _run)


def test_exact_ground_truth_small(benchmark):
    def _run():
        """ExactSolver certifies the annealers on a small instance."""
        f = StringEquality("abc")  # 21 variables: enumerable
        model = f.build_model()
        _, ground = ExactSolver().ground_state(model)
        rows = [["exact (brute force)", f"{ground:.1f}", "reference"]]
        for sname, sampler, params, reads in SAMPLERS[:-1]:
            ss = sampler.sample_model(model, num_reads=reads, seed=3, **params)
            rows.append([
                sname,
                f"{ss.first.energy:.1f}",
                "hit" if abs(ss.first.energy - ground) < 1e-9 else "miss",
            ])
        emit_table(
            "Ext-C — ground-truth certification (equality 'abc', 21 qubits)",
            ["solver", "best energy", "vs exact"],
            rows,
        )
        for row in rows[1:]:
            assert row[2] == "hit", f"{row[0]} missed the certified ground state"

    bench_once(benchmark, _run)


@pytest.mark.parametrize(
    "name,sampler,params,reads",
    [(n, s, p, r) for n, s, p, r in SAMPLERS],
    ids=[n for n, *_ in SAMPLERS],
)
def test_sampler_latency(benchmark, name, sampler, params, reads):
    model = PalindromeGeneration(6).build_model()
    benchmark(
        lambda: sampler.sample_model(model, num_reads=reads, seed=5, **params)
    )
