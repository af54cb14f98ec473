"""Ext-D — the quantum QUBO pipeline vs the classical baseline solver.

The paper's framing: classical string solving degrades as the search space
grows; annealing explores it stochastically. We run both paths on the same
SMT constraints and report time and outcome. Expected shape on this
substrate: the classical propagation solver wins tiny instances outright
(it is exact and the instances are small), while the annealer's cost grows
slowly with instance size and it keeps producing witnesses where classical
enumeration starts visiting exponentially many candidates — e.g. the
unconstrained-filler workloads.
"""

import pytest

from benchmarks.common import bench_few, bench_once, emit_table, measure, name_seed
from repro.smt import ClassicalStringSolver, QuantumSMTSolver, parse_script

WORKLOADS = {
    "equality (n=11)": '(declare-const x String)(assert (= x "hello world"))',
    "replaceAll (n=11)": (
        '(declare-const x String)'
        '(assert (= x (str.replace_all "hello world" "l" "x")))'
    ),
    "contains in 6": (
        "(declare-const x String)(assert (= (str.len x) 6))"
        '(assert (str.contains x "cat"))'
    ),
    "regex a[bc]+d @8": (
        "(declare-const x String)(assert (= (str.len x) 8))"
        '(assert (str.in_re x (re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))) (str.to_re "d"))))'
    ),
    "indexOf free fill @8": (
        "(declare-const x String)(assert (= (str.len x) 8))"
        '(assert (= (str.indexof x "hi") 3))'
    ),
}


def _quantum(script, seed):
    solver = QuantumSMTSolver.from_script_text(
        script, seed=seed, num_reads=48, max_attempts=5,
        sampler_params={"num_sweeps": 400},
    )
    elapsed, result = measure(solver.check_sat)
    return result, elapsed


def _classical(script):
    assertions = parse_script(script).assertions
    solver = ClassicalStringSolver(max_length=12)
    elapsed, result = measure(solver.solve, assertions)
    return result, elapsed


def test_quantum_vs_classical_table(benchmark):
    def _run():
        rows = []
        for name, script in WORKLOADS.items():
            q, q_time = _quantum(script, seed=name_seed(name))
            c, c_time = _classical(script)
            rows.append([
                name,
                q.status,
                f"{q_time:.3f}s",
                c.status,
                f"{c_time:.3f}s",
                c.nodes_explored,
            ])
            assert q.status == "sat" == c.status, name
        emit_table(
            "Ext-D — quantum (annealed QUBO) vs classical (propagate+enumerate)",
            ["workload", "quantum", "q time", "classical", "c time", "c nodes"],
            rows,
        )

    bench_once(benchmark, _run)


def test_classical_refutation_blowup(benchmark):
    def _run():
        """The classical cost driver: unconstrained positions multiply nodes."""
        # A refutation query: x in [ab]+ but contains neither 'a' nor 'b'.
        # Propagation narrows every position to {a, b}; proving UNSAT then
        # requires visiting all 2^n leaves — the exponential behaviour the
        # paper's introduction attributes to classical string search.
        rows = []
        for n in [4, 8, 12, 16]:
            script = (
                f"(declare-const x String)(assert (= (str.len x) {n}))"
                '(assert (str.in_re x (re.+ (re.union (str.to_re "a") (str.to_re "b")))))'
                '(assert (not (str.contains x "a")))'
                '(assert (not (str.contains x "b")))'
            )
            assertions = parse_script(script).assertions
            solver = ClassicalStringSolver(max_length=20)
            elapsed, result = measure(solver.solve, assertions)
            rows.append(
                [n, f"2^{n}", result.status, result.nodes_explored, f"{elapsed:.4f}s"]
            )
            assert result.status == "unsat"
        emit_table(
            "Ext-D — classical refutation cost grows exponentially "
            "(x in [ab]+ with both letters excluded)",
            ["n", "leaves", "status", "nodes", "time"],
            rows,
        )

    bench_once(benchmark, _run)


@pytest.mark.parametrize("path", ["quantum", "classical"])
def test_head_to_head_latency(benchmark, path):
    script = WORKLOADS["contains in 6"]
    if path == "quantum":
        bench_few(benchmark, lambda: _quantum(script, seed=1)[0])
    else:
        bench_few(benchmark, lambda: _classical(script)[0])
