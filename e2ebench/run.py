"""End-to-end benchmark of the quantum string-SMT stack.

Usage::

    python3 e2ebench/run.py --workload check-sat --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--seed`` fixes every input (the same
seed always gives the same inputs in the same order); ``--seconds`` is
how long the timed loop runs. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the workload untraced for
a third of the time, replays the same inputs with every layer's public
calls wrapped and once more unwrapped, and prints the per-layer metrics
plus the tracing overhead.

A human-readable table (metric, value, unit, samples) comes first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every answer is
checked (see ``checker.py``); the exit code is 1 when any answer is wrong
or an earlier run of the same code at the same seed answered differently,
2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Fingerprints and span dumps; listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".e2ebench")
#: Fresh-interpreter start-ups per run; setup_s is their median. The
#: first half run before the timed pass and the rest after it, so the
#: median samples the machine at both ends of the run.
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "solved_share": "fraction",
    "objective_sum": "weight",
}

PER_LAYER_UNITS = {
    "anneal.sample_model.ms": "ms",
    "anneal.sample_model.calls": "count",
    "anneal.sample_model.wall_share": "fraction",
    "anneal.spin_updates": "count",
    "anneal.spin_updates_per_s": "1/s",
    "anneal.sample_tiled.ms": "ms",
    "anneal.sample_tiled.calls": "count",
    "anneal.read_success_rate": "fraction",
    "service.retry.attempts_per_solve": "ratio",
    "service.fused.fallback_share": "fraction",
    "service.fused.blocks_per_tile": "ratio",
    "service.cache.hit_ratio": "fraction",
    "smt.parse.ms": "ms",
    "smt.compile.ms": "ms",
    "core.build_model.ms": "ms",
    "core.qubo_vars.mean": "count",
    "core.decode_verify.ms": "ms",
    "opt.optimize.ms": "ms",
    "opt.optimize.calls": "count",
    "opt.restarts": "count",
    "server.queue_ms.p50": "ms",
    "server.solve_ms.p50": "ms",
    "server.overhead_ms.p50": "ms",
    "setup.import_s": "s",
    "trace.overhead_share": "fraction",
    "trace.spans": "count",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["check-sat", "batch-fused", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", default=OUT_DIR, help="fingerprints and span dumps")
    return parser.parse_args(argv)


def time_setup(workload: str, probes: int) -> Tuple[List[float], List[float]]:
    """``(setup_s, import_s)`` of *probes* fresh interpreters.

    ``setup_s`` runs from spawning the interpreter until the entry point
    is ready; a single start-up varies by about ±15% on a shared 2-core VM,
    and the machine's speed drifts within a run, which is why the run
    reports the median of probes taken at both of its ends.
    """
    setups, imports = [], []
    for _ in range(probes):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - began)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} exited with {code}")
        imports.append(json.loads(line)["import_s"])
    return setups, imports


def percentile(values: List[float], fraction: float) -> float:
    """Harrell-Davis estimate of the *fraction* quantile.

    A weighted mean of all order statistics with Beta weights instead of
    one or two of them. Latencies here cluster by retry count (and in
    batch-fused by fallbacks per batch), so a plain order statistic jumps
    between clusters from one seed to the next; this estimate moves
    smoothly with the distribution.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1.0 - fraction)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], ordered)))


def end_to_end(
    result, setup_s: float, objective: Tuple[float, int]
) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for one untraced pass; *objective* is
    ``objective_sum`` and the number of weighted answers it sums."""
    calls = result.calls
    latencies = result.latencies_ms
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, SETUP_PROBES),
        "peak_rss_mb": (max(own_rss_mb, result.peak_rss_mb), 1),
        "throughput_per_s": (result.throughput_per_s, calls),
        "latency_p50_ms": (percentile(latencies, 0.5), len(latencies)),
        "latency_p90_ms": (percentile(latencies, 0.9), len(latencies)),
        "solved_share": (result.solved / calls, calls),
        "objective_sum": objective,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads
    from checker import AnswerChecker, FingerprintStore, source_digest

    # Importing the whole stack first also writes the bytecode caches, which
    # users do not pay on every start, before the probes time start-up.
    tracing.import_layers()
    setups, imports = time_setup(args.workload, SETUP_PROBES // 2)

    # Per pass: (fingerprint key, checker); every key is compared with
    # earlier runs of the same code at this seed.
    checkers = [AnswerChecker()]
    keys = [args.workload]
    if args.trace:
        # Three passes over identical inputs, in this process with one
        # caller, where the wrappers reach every layer: untraced, traced,
        # untraced again. Comparing the traced pass with the mean of its
        # neighbours cancels a steady drift in machine speed.
        run_pass = workloads.WORKLOADS[args.workload]
        workloads.warm_up(args.workload)
        untraced = run_pass(args.seed, args.seconds / 3, checkers[0], min_calls=0)
        checkers += [AnswerChecker(), AnswerChecker()]
        keys += [args.workload] * 2
        tracer = tracing.Tracer()
        with tracer:
            tracing.instrument_layers(tracer)
            traced = run_pass(args.seed, float("inf"), checkers[1], limit=untraced.calls)
        again = run_pass(args.seed, float("inf"), checkers[2], limit=untraced.calls)
        passes = [untraced, traced, again]
        imports += time_setup(args.workload, SETUP_PROBES - len(imports))[1]
        layer = tracing.layer_metrics(
            tracer,
            timed_wall_s=traced.wall_s,
            envelopes=traced.envelopes,
            report_counters=traced.counters,
        )
        layer["setup.import_s"] = statistics.median(imports)
        layer["trace.overhead_share"] = 2 * traced.wall_s / (untraced.wall_s + again.wall_s) - 1.0
        rows = {name: (layer[name], traced.calls) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        os.makedirs(args.out_dir, exist_ok=True)
        tracer.write(
            os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
            {"self_times": tracing.self_times(tracer.spans), "metrics": layer},
        )
    else:
        untraced = workloads.measure(args.workload, args.seed, args.seconds, checkers[0])
        passes = [untraced]
        objective_sum = untraced.objective_sum
        if args.workload != "serve":
            checkers.append(AnswerChecker())
            keys.append(f"{args.workload}.objective")
            objective_sum = workloads.objective_pass(args.seed, checkers[-1])
        setups += time_setup(args.workload, SETUP_PROBES - len(setups))[0]
        rows = end_to_end(
            untraced, statistics.median(setups), (objective_sum, workloads.OBJECTIVE_WINDOW)
        )
        units = END_TO_END_UNITS

    wrong = [problem for c in checkers for problem in c.wrong]
    store = FingerprintStore(
        os.path.join(args.out_dir, "fingerprints"), source_digest(SRC, HERE)
    )
    disagreements = [
        d
        for key, c in zip(keys, checkers)
        if (d := store.compare_and_store(key, args.seed, c.statuses)) is not None
    ]
    correct = not wrong and not disagreements

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if untraced.mix:
        shares = ", ".join(
            f"{kind} {count / untraced.calls:.1%}" for kind, count in sorted(untraced.mix.items())
        )
        print(f"traffic mix ({untraced.calls} requests): {shares}")
    print(f"{'metric':34s} {'value':>14s} {'unit':>9s} {'samples':>8s}")
    for name, (value, samples) in rows.items():
        print(f"{name:34s} {value:14.6g} {units[name]:>9s} {samples:8d}")
    print(f"status fingerprint: {checkers[0].fingerprint()} over {len(checkers[0].statuses)} answers")
    for problem in wrong + disagreements:
        print(f"WRONG: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(p.calls for p in passes),
                "failed": sum(p.errors for p in passes) + len(wrong),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, (value, _) in rows.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
