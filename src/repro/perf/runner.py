"""The perf runner: warmup/repeat control with per-stage attribution.

One :func:`run_spec` call materializes a spec, performs ``warmup``
untimed repeats, then ``repeats`` timed ones. Each timed repeat runs
under a fresh snapshot of one :class:`MetricsRegistry`
(:meth:`~repro.service.metrics.MetricsRegistry.snapshot` /
:meth:`~repro.service.metrics.MetricsRegistry.since`), so the wall-clock
series is accompanied by a compile/build/anneal/decode series for the
same repeats — the baseline records *where* the time went, and a
regression report can say "anneal grew 2.1x, compile flat".

Only the :data:`STAGES` histograms are reported as stage seconds; every
other histogram (whole-call walls such as ``batch.wall``, quantities such
as ``opt.objective``) is reported apart, under its own name. Specs whose
workload reports a per-read success rate also get a time-to-solution,
:meth:`BenchmarkResult.tts99_s`, so a sweep-budget change is judged at
matched solution quality rather than at equal sweeps.

Determinism contract: the workload fingerprint returned by every repeat
must be identical (same instances, same energies, same models). The
runner enforces this and raises :class:`WorkloadDeterminismError`
otherwise — a nondeterministic benchmark cannot be regression-gated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.perf import stats
from repro.perf.registry import BenchmarkSpec, get_spec, suite_specs
from repro.perf.workloads import build_workload
from repro.service.metrics import MetricsRegistry, MetricsSnapshot
from repro.utils.timing import measure

__all__ = [
    "WorkloadDeterminismError",
    "BenchmarkResult",
    "run_spec",
    "run_suite",
    "time_to_solution",
]

#: Pipeline stages reported in baselines, in pipeline order. These are
#: the only histograms reported as stage seconds.
STAGES = ("compile", "build", "anneal", "decode")


def time_to_solution(
    call_s: float, reads: int, success_rate: float, target: float = 0.99
) -> Optional[float]:
    """Expected seconds until one read succeeds with probability *target*.

    ``(call_s / reads) · ln(1 − target) / ln(1 − p)`` for per-read success
    rate ``p``: the per-read time times the reads needed. ``p ≥ target``
    needs one read; ``p = 0`` never succeeds (``None``).
    """
    if success_rate <= 0.0:
        return None
    per_read = call_s / reads
    if success_rate >= target:
        return per_read
    return per_read * math.log(1.0 - target) / math.log(1.0 - success_rate)


class WorkloadDeterminismError(RuntimeError):
    """Two repeats of one workload produced different results."""


@dataclass
class BenchmarkResult:
    """All measurements of one benchmark across its repeats."""

    name: str
    suite: str
    kind: str
    tolerance: float
    repeats: int
    warmup: int
    #: Per-repeat wall-clock seconds (the gated series).
    wall_times: List[float]
    #: Per-repeat totals per histogram: seconds per :data:`STAGES` stage,
    #: plus every other histogram the workload records (attribution only).
    stage_times: Dict[str, List[float]]
    #: Counter deltas accumulated across all timed repeats.
    counters: Dict[str, int]
    #: The deterministic workload fingerprint (identical across repeats).
    workload: Dict[str, Any]
    #: Static workload metadata (vars, nnz, coupling form, digests).
    metadata: Dict[str, Any]
    params: Dict[str, Any] = field(default_factory=dict)

    def wall_summary(self) -> Dict[str, float]:
        return stats.describe(self.wall_times)

    def _medians(self, stages: bool) -> Dict[str, float]:
        return {
            name: stats.median(series)
            for name, series in sorted(self.stage_times.items())
            if series and (name in STAGES) == stages
        }

    def stage_medians(self) -> Dict[str, float]:
        """Median seconds per :data:`STAGES` stage."""
        return self._medians(stages=True)

    def value_medians(self) -> Dict[str, float]:
        """Median per-repeat total of every other histogram."""
        return self._medians(stages=False)

    def tts99_s(self) -> Optional[float]:
        """TTS99 at the median wall time (see :func:`time_to_solution`)."""
        return time_to_solution(
            stats.median(self.wall_times),
            int(self.params["num_reads"]),
            float(self.workload["success_rate"]),
        )

    @property
    def has_success_rate(self) -> bool:
        """Whether the workload reports a per-read success rate (solve specs)."""
        return "success_rate" in self.workload and "num_reads" in self.params

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form stored per benchmark in ``BENCH_*.json``."""
        return {
            "suite": self.suite,
            "kind": self.kind,
            "tolerance": self.tolerance,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "params": dict(self.params),
            "wall_times": [round(t, 6) for t in self.wall_times],
            "wall": self._wall_json(),
            "stage_median": {k: round(v, 6)
                             for k, v in self.stage_medians().items()},
            "values": {k: round(v, 6)
                       for k, v in self.value_medians().items()},
            "counters": dict(sorted(self.counters.items())),
            "workload": self.workload,
            "metadata": self.metadata,
        }

    def _wall_json(self) -> Dict[str, Any]:
        """Wall-time summary; ``tts99_s`` joins it when a success rate exists."""
        wall: Dict[str, Any] = dict(self.wall_summary())
        if self.has_success_rate:
            wall["tts99_s"] = self.tts99_s()
        return {k: round(v, 6) if isinstance(v, float) else v
                for k, v in wall.items()}

def _params_json(spec: BenchmarkSpec) -> Dict[str, Any]:
    """Spec params coerced to plain JSON types (tuples become lists)."""
    return json.loads(json.dumps(dict(spec.params)))


def run_spec(
    spec_or_name,
    repeats: int = 5,
    warmup: int = 1,
) -> BenchmarkResult:
    """Run one benchmark spec; see the module docstring for semantics."""
    spec = (
        spec_or_name
        if isinstance(spec_or_name, BenchmarkSpec)
        else get_spec(str(spec_or_name))
    )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    workload = build_workload(spec)

    for _ in range(warmup):
        workload.run(MetricsRegistry())

    registry = MetricsRegistry()
    wall_times: List[float] = []
    stage_times: Dict[str, List[float]] = {}
    fingerprint: Optional[Dict[str, Any]] = None
    for index in range(repeats):
        before = registry.snapshot()
        seconds, result = measure(workload.run, registry)
        delta = registry.since(before)
        wall_times.append(seconds)
        for name, samples in delta["histograms"].items():
            stage_times.setdefault(name, []).append(float(sum(samples)))
        if fingerprint is None:
            fingerprint = result
        elif result != fingerprint:
            raise WorkloadDeterminismError(
                f"benchmark {spec.name!r}: repeat {index} produced a "
                f"different workload result than repeat 0 — "
                f"{result!r} != {fingerprint!r}"
            )
    # Diff against an empty snapshot == counter totals over all repeats.
    counters = dict(registry.since(MetricsSnapshot())["counters"])
    assert fingerprint is not None
    return BenchmarkResult(
        name=spec.name,
        suite=spec.suite,
        kind=spec.kind,
        tolerance=spec.tolerance,
        repeats=repeats,
        warmup=warmup,
        wall_times=wall_times,
        stage_times=stage_times,
        counters=counters,
        workload=fingerprint,
        metadata=dict(workload.metadata),
        params=_params_json(spec),
    )


def run_suite(
    suite: str,
    repeats: int = 5,
    warmup: int = 1,
    specs: Optional[Sequence[BenchmarkSpec]] = None,
    progress=None,
) -> List[BenchmarkResult]:
    """Run every spec of *suite* (or an explicit spec list), in order.

    ``progress`` is an optional ``callable(spec)`` invoked before each
    benchmark (the CLI uses it for live output).
    """
    chosen = list(specs) if specs is not None else suite_specs(suite)
    results: List[BenchmarkResult] = []
    for spec in chosen:
        if progress is not None:
            progress(spec)
        results.append(run_spec(spec, repeats=repeats, warmup=warmup))
    return results
