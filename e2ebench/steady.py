"""Steadiness check: do two sets of runs of one commit agree?

Usage::

    python3 e2ebench/steady.py --workload serve [--runs 10]

Runs ``run.py`` ``--runs`` times in each of two sets A and B, seed ``i``
for the i-th run of both sets and ``run_seconds`` from ``BENCHMARK.json``.
The runs are interleaved, the order alternating per seed (AB, BA, AB,
...), so machine drift lands on both sets. For every end-to-end metric it
prints each set's median, its spread (quartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles), the change
of B's median against A's in the metric's worse direction, and the bound
from ``BENCHMARK.json``. A metric passes when both spreads and the change
are within the bound.

``setup_s`` is gated on the change only. The seed does not change what
set-up does, so its spread across seeds is the machine's speed from one
run to the next, not the inputs'; the change of its median between two
sets of identical code is what a later change to set-up has to beat.
Exit code 1 when any metric fails or any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse *after* is than *before*, as a share of *before*."""
    change = (after - before) / before
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets: List[Dict[str, List[float]]] = [{name: [] for name in metrics} for _ in "AB"]
    for i in range(args.runs):
        seed = 1 + i
        for which in (0, 1) if i % 2 == 0 else (1, 0):
            result = run_once(args.workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"set {'AB'[which]} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                return 1
            for name in metrics:
                sets[which][name].append(result["metrics"][name]["value"])
            summary = "  ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in metrics
            )
            print(f"set {'AB'[which]} seed {seed}: {summary}", flush=True)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(
        f"{'metric':18s} {'median A':>11s} {'spread A':>9s} {'median B':>11s}"
        f" {'spread B':>9s} {'B worse':>8s} {'bound':>6s}  verdict"
    )
    for name, spec in metrics.items():
        bound = spec["bound"]
        a, b = sets[0][name], sets[1][name]
        change = worse_by(statistics.median(a), statistics.median(b), spec["better"])
        checks = [change] if name == "setup_s" else [spread(a), spread(b), change]
        passed = all(value <= bound for value in checks)
        steady = all(value <= bound / 3 for value in checks)
        ok = ok and passed
        verdict = "steady" if steady else ("within bound" if passed else "FAIL")
        print(
            f"{name:18s} {statistics.median(a):11.5g} {spread(a):9.3f}"
            f" {statistics.median(b):11.5g} {spread(b):9.3f} {change:8.3f}"
            f" {bound:6.2f}  {verdict}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
