"""Performance-regression harness (``repro.perf``).

The ROADMAP's north star is "as fast as the hardware allows"; this
subpackage makes that trajectory *tracked and gated* instead of
anecdotal, in the benchmark-family discipline of the annealer-SAT
literature (fixed instance distributions, repeatable seeds):

* :mod:`~repro.perf.registry` — declarative specs of every tracked
  workload over the paper's §4 operator families (suites ``core``,
  ``sparse``, ``service``, one committed ``BENCH_<suite>.json`` each);
* :mod:`~repro.perf.workloads` — spec → runnable workload with a
  deterministic result fingerprint (same instances, same energies on
  every run; only timings differ);
* :mod:`~repro.perf.runner` — warmup/repeat control with per-stage
  compile/build/anneal/decode attribution via
  :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.since`;
* :mod:`~repro.perf.stats` — median / MAD / bootstrap-CI statistics and
  the three-gate significance decision;
* :mod:`~repro.perf.baseline` — committed-baseline store and comparator;
* ``python -m repro.perf run|compare|update|list`` — the CLI
  (:mod:`repro.perf.__main__`), non-zero exit on significant regression.
"""

from repro.perf.baseline import (
    ComparisonReport,
    ComparisonRow,
    baseline_path,
    compare_results,
    load_baseline,
    results_to_baseline,
    write_baseline,
)
from repro.perf.registry import (
    SUITES,
    BenchmarkSpec,
    all_specs,
    baseline_filename,
    get_spec,
    register,
    suite_specs,
)
from repro.perf.runner import (
    BenchmarkResult,
    WorkloadDeterminismError,
    run_spec,
    run_suite,
)
from repro.perf.stats import bootstrap_ci, describe, is_regression, mad, median
from repro.perf.workloads import Workload, build_workload

__all__ = [
    "SUITES",
    "BenchmarkResult",
    "BenchmarkSpec",
    "ComparisonReport",
    "ComparisonRow",
    "Workload",
    "WorkloadDeterminismError",
    "all_specs",
    "baseline_filename",
    "baseline_path",
    "bootstrap_ci",
    "build_workload",
    "compare_results",
    "describe",
    "get_spec",
    "is_regression",
    "load_baseline",
    "mad",
    "median",
    "register",
    "results_to_baseline",
    "run_spec",
    "run_suite",
    "suite_specs",
    "write_baseline",
]
