"""Time-to-solution of the colored kernel across sweep budgets.

Chooses :data:`repro.anneal.simulated.DEFAULT_NUM_SWEEPS`. For each budget
it reports, at one fixed seed schedule:

* the BENCH_core ``solve`` specs and the BENCH_sparse palindrome models
  (their registered read counts, each spec over ``--seeds`` seeds): mean
  per-read success rate ``p``, median seconds per call and TTS99;
* ``check-sat`` inputs — ``ops="all"`` instances of witness length 3-5,
  one fresh ``QuantumSMTSolver`` each at library defaults apart from the
  kernel: ms per instance, ``sat`` count, mean per-read success of the
  answering attempt and TTS99 at that mean.

TTS99 is :func:`repro.perf.runner.time_to_solution`: seconds per read
times the reads needed to see one success with probability 0.99. A budget
is eligible only where no success rate falls more than 0.01 below its
value at 256 colored sweeps; the cheapest eligible TTS99 wins. The paper's
random scan at 256 sweeps is printed as the reference row.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sweep_budget.py [--instances 120]
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.core import PalindromeGeneration
from repro.core.solver import result_from_sampleset
from repro.perf.registry import suite_specs
from repro.perf.runner import time_to_solution
from repro.perf.workloads import make_formulation
from repro.smt.generator import InstanceGenerator
from repro.smt.solver import QuantumSMTSolver

#: (sweep_mode, num_sweeps) settings, reference first.
SETTINGS: Tuple[Tuple[str, int], ...] = (
    ("random", 256),
    ("colored", 256),
    ("colored", 128),
    ("colored", 64),
    ("colored", 32),
    ("colored", 16),
)
#: Generator seed of the check-sat inputs.
INSTANCE_SEED = 3
#: Reads per check-sat attempt (the ``QuantumSMTSolver`` default).
CHECK_SAT_READS = 64


def _spec_models() -> List[Tuple[str, object, int, int]]:
    """``(name, formulation, reads, seed)`` for the core and sparse specs."""
    rows = []
    for spec in suite_specs("core"):
        if spec.kind == "solve":
            p = dict(spec.params)
            rows.append((spec.name, make_formulation(p), int(p["num_reads"]), int(p["seed"])))
    for length in sorted({int(s.params["length"]) for s in suite_specs("sparse")}):
        spec = next(s for s in suite_specs("sparse") if s.params["length"] == length)
        rows.append((
            f"palindrome-n{length}", PalindromeGeneration(length),
            int(spec.params["num_reads"]), int(spec.params["seed"]),
        ))
    return rows


def spec_row(formulation, reads: int, seed: int, seeds: int, mode: str, sweeps: int):
    """Mean per-read success, median seconds per call and TTS99."""
    model = formulation.build_model()
    sampler = SimulatedAnnealingSampler()
    rates, times = [], []
    for offset in range(seeds):
        start = time.perf_counter()
        sampleset = sampler.sample_model(
            model, num_reads=reads, num_sweeps=sweeps, sweep_mode=mode, seed=seed + offset
        )
        times.append(time.perf_counter() - start)
        rates.append(result_from_sampleset(formulation, sampleset).success_rate)
    p = statistics.fmean(rates)
    t_call = statistics.median(times)
    return p, t_call, time_to_solution(t_call, reads, p)


def check_sat_row(scripts: Sequence[str], mode: str, sweeps: int):
    """ms per instance, sat count, mean per-read success and TTS99."""
    params = {"num_sweeps": sweeps, "sweep_mode": mode}
    sat, rates = 0, []
    start = time.perf_counter()
    for index, script in enumerate(scripts):
        solver = QuantumSMTSolver.from_script_text(
            script, seed=index, num_reads=CHECK_SAT_READS, sampler_params=params
        )
        result = solver.check_sat()
        sat += str(result.status) == "sat"
        rates += [r.success_rate for r in result.solve_results.values()]
    per_instance = (time.perf_counter() - start) / len(scripts)
    p = statistics.fmean(rates) if rates else 0.0
    return per_instance, sat, p, time_to_solution(per_instance, CHECK_SAT_READS, p)


def _fmt_tts(value) -> str:
    return "-" if value is None else f"{value * 1000:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=120)
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args(argv)

    generator = InstanceGenerator(ops="all", min_length=3, max_length=5, seed=INSTANCE_SEED)
    scripts = [generator.generate().script for _ in range(args.instances)]
    specs = _spec_models()

    print("| kernel, sweeps | check-sat ms/inst | sat | p | TTS99 ms | "
          + " | ".join(f"{name} p / TTS99 ms" for name, *_ in specs) + " |")
    print("|---" * (5 + len(specs)) + "|")
    results: Dict[Tuple[str, int], List[float]] = {}
    for mode, sweeps in SETTINGS:
        ms, sat, p, tts = check_sat_row(scripts, mode, sweeps)
        cells = [f"{mode}, {sweeps}", f"{ms * 1000:.1f}", f"{sat}/{len(scripts)}",
                 f"{p:.3f}", _fmt_tts(tts)]
        rates = [p]
        for _, formulation, reads, seed in specs:
            sp, _, stts = spec_row(formulation, reads, seed, args.seeds, mode, sweeps)
            cells.append(f"{sp:.3f} / {_fmt_tts(stts)}")
            rates.append(sp)
        results[(mode, sweeps)] = rates
        print("| " + " | ".join(cells) + " |", flush=True)

    reference = results[("colored", 256)]
    eligible = [
        sweeps for mode, sweeps in SETTINGS
        if mode == "colored" and sweeps < 256
        and all(r >= ref - 0.01 for r, ref in zip(results[(mode, sweeps)], reference))
    ]
    print(f"\nbudgets within 0.01 of every 256-sweep success rate: {eligible}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
