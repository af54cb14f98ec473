"""Committed baselines (``BENCH_*.json``) and the regression comparator.

One baseline file per suite lives at the repo root and is committed, so
``git log BENCH_core.json`` *is* the performance trajectory of the
project. ``python -m repro.perf update`` rewrites them from a fresh run;
``python -m repro.perf compare`` reruns the suite and exits non-zero on a
statistically significant regression (see :mod:`repro.perf.stats` for the
decision model and DESIGN.md Appendix D for the rationale).

Comparison statuses per benchmark:

* ``ok``             — within the tolerance band (or not separable);
* ``regression``     — significantly slower → failure;
* ``improved``       — significantly faster (informational; update the
  baseline to lock the win in);
* ``new``            — no baseline entry yet → informational;
* ``missing``        — baseline entry with no registered spec →
  informational (delete it on the next ``update``);
* ``workload-drift`` — the deterministic workload fingerprint changed, so
  timings are not comparable → failure unless explicitly allowed (rerun
  ``update`` after intentional behavior changes).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.perf import stats
from repro.perf.registry import baseline_filename
from repro.perf.runner import BenchmarkResult

__all__ = [
    "SCHEMA_VERSION",
    "baseline_path",
    "results_to_baseline",
    "write_baseline",
    "load_baseline",
    "ComparisonRow",
    "ComparisonReport",
    "compare_results",
]

SCHEMA_VERSION = 2

#: Failure statuses (everything else is informational).
_FAILING = ("regression", "workload-drift")


def baseline_path(suite: str, root: str = ".") -> str:
    """Path of the committed baseline file for *suite* under *root*."""
    return os.path.join(root, baseline_filename(suite))


def results_to_baseline(
    suite: str, results: Sequence[BenchmarkResult]
) -> Dict[str, Any]:
    """The JSON document written to ``BENCH_<suite>.json``.

    Deterministic layout (sorted keys, stable rounding); no timestamps —
    the commit history already dates every baseline refresh, and
    byte-stable output keeps ``update`` diffs reviewable.
    """
    wrong = [r.name for r in results if r.suite != suite]
    if wrong:
        raise ValueError(f"results {wrong} do not belong to suite {suite!r}")
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "benchmarks": {r.name: r.to_dict() for r in sorted(results, key=lambda r: r.name)},
    }


def write_baseline(
    suite: str, results: Sequence[BenchmarkResult], root: str = "."
) -> str:
    """Write the baseline file; returns its path."""
    path = baseline_path(suite, root)
    document = results_to_baseline(suite, results)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(suite: str, root: str = ".") -> Optional[Dict[str, Any]]:
    """Load a baseline document, or ``None`` when the file does not exist."""
    path = baseline_path(suite, root)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline schema {schema!r} "
            f"(this build reads schema {SCHEMA_VERSION})"
        )
    return document


@dataclass
class ComparisonRow:
    """One benchmark's verdict in a comparison."""

    name: str
    status: str
    base_median: Optional[float] = None
    cand_median: Optional[float] = None
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.base_median and self.cand_median is not None:
            return self.cand_median / self.base_median
        return None

    @property
    def failed(self) -> bool:
        return self.status in _FAILING


@dataclass
class ComparisonReport:
    """All rows of one suite comparison."""

    suite: str
    rows: List[ComparisonRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(row.failed for row in self.rows)

    @property
    def regressions(self) -> List[ComparisonRow]:
        return [row for row in self.rows if row.failed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "rows": [
                {
                    "name": row.name,
                    "status": row.status,
                    "base_median": row.base_median,
                    "cand_median": row.cand_median,
                    "ratio": row.ratio,
                    "note": row.note,
                }
                for row in self.rows
            ],
        }

    def text_report(self) -> str:
        header = ["benchmark", "baseline", "current", "ratio", "status"]
        table: List[List[str]] = [header]
        for row in self.rows:
            table.append([
                row.name,
                "-" if row.base_median is None else f"{row.base_median:.4f}s",
                "-" if row.cand_median is None else f"{row.cand_median:.4f}s",
                "-" if row.ratio is None else f"{row.ratio:.2f}x",
                row.status + (f" ({row.note})" if row.note else ""),
            ])
        widths = [max(len(line[i]) for line in table) for i in range(len(header))]
        lines = [f"suite {self.suite}:"]
        for index, line in enumerate(table):
            lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)))
            if index == 0:
                lines.append("  " + "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def compare_results(
    baseline: Optional[Dict[str, Any]],
    results: Sequence[BenchmarkResult],
    suite: str,
    tolerance_scale: float = 1.0,
    min_abs: float = stats.DEFAULT_MIN_ABS,
    confidence: float = 0.95,
    allow_workload_drift: bool = False,
) -> ComparisonReport:
    """Diff fresh *results* against a loaded *baseline* document.

    Pure function over data (no I/O) so self-tests can feed synthetic
    timings — e.g. proving an artificially 3x-slowed benchmark trips the
    gate.
    """
    if tolerance_scale <= 0:
        raise ValueError(f"tolerance_scale must be positive, got {tolerance_scale}")
    report = ComparisonReport(suite=suite)
    entries = dict((baseline or {}).get("benchmarks", {}))

    for result in results:
        entry = entries.pop(result.name, None)
        cand_median = stats.median(result.wall_times)
        if entry is None:
            report.rows.append(ComparisonRow(
                name=result.name,
                status="new",
                cand_median=cand_median,
                note="no baseline entry; run `update` to start tracking",
            ))
            continue
        base_times = entry.get("wall_times") or []
        base_median = stats.median(base_times)
        if entry.get("workload") != result.workload:
            status = "ok" if allow_workload_drift else "workload-drift"
            report.rows.append(ComparisonRow(
                name=result.name,
                status=status,
                base_median=base_median,
                cand_median=cand_median,
                note="workload fingerprint changed; timings not comparable"
                     + (" (allowed)" if allow_workload_drift else ""),
            ))
            continue
        tolerance = float(entry.get("tolerance", result.tolerance)) * tolerance_scale
        if stats.is_regression(
            base_times, result.wall_times,
            tolerance=tolerance, confidence=confidence, min_abs=min_abs,
        ):
            status, note = "regression", f"beyond {1 + tolerance:.2f}x band"
        elif stats.is_regression(
            result.wall_times, base_times,
            tolerance=tolerance, confidence=confidence, min_abs=min_abs,
        ):
            status, note = "improved", "faster than baseline; consider `update`"
        else:
            status, note = "ok", ""
        report.rows.append(ComparisonRow(
            name=result.name,
            status=status,
            base_median=base_median,
            cand_median=cand_median,
            note=note,
        ))

    for name, entry in sorted(entries.items()):
        base_times = entry.get("wall_times") or [0.0]
        report.rows.append(ComparisonRow(
            name=name,
            status="missing",
            base_median=stats.median(base_times),
            note="baseline entry has no registered spec; `update` removes it",
        ))
    return report
