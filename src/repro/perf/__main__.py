"""Command-line entry point: ``python -m repro.perf``.

Subcommands
-----------

``list``
    Show every registered benchmark spec::

        python -m repro.perf list [--suite core]

``run``
    Run suites and print the measurement table (optionally dump JSON)::

        python -m repro.perf run --suite all --repeats 5 --json run.json

``update``
    Run suites and (re)write the committed baselines at the repo root::

        python -m repro.perf update --suite all

``compare``
    Run suites, diff against the committed baselines, exit non-zero on a
    statistically significant regression (or on workload drift)::

        python -m repro.perf compare --suite all
        # CI smoke configuration — few repeats, gross-only gate:
        python -m repro.perf compare --suite all --repeats 2 \\
            --tolerance-scale 6 --min-abs 0.1

All workloads run at fixed registered seeds: two invocations produce
identical workload results (instances, energies, models) and differ only
in the timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.perf import baseline as baseline_mod
from repro.perf import stats
from repro.perf.registry import SUITES, all_specs, suite_specs
from repro.perf.runner import BenchmarkResult, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Performance-regression harness over the tracked benchmark registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--suite", action="append", choices=(*SUITES, "all"), default=None,
            help="suite to run (repeatable; default: all)",
        )
        p.add_argument("--repeats", type=int, default=5,
                       help="timed repeats per benchmark (default 5)")
        p.add_argument("--warmup", type=int, default=1,
                       help="untimed warmup repeats per benchmark (default 1)")
        p.add_argument("--spec", action="append", default=None,
                       help="restrict to named benchmarks (repeatable; "
                            "mainly for debugging and self-tests)")

    lst = sub.add_parser("list", help="show the registered benchmark specs")
    lst.add_argument("--suite", action="append", choices=(*SUITES, "all"),
                     default=None)

    run = sub.add_parser("run", help="run suites and print measurements")
    add_run_options(run)
    run.add_argument("--json", dest="json_path", default=None,
                     help="write the full results document here")

    upd = sub.add_parser("update", help="run suites and rewrite baselines")
    add_run_options(upd)
    upd.add_argument("--bench-dir", default=".",
                     help="directory holding BENCH_*.json (default: cwd)")

    cmp_ = sub.add_parser(
        "compare", help="run suites and gate against committed baselines"
    )
    add_run_options(cmp_)
    cmp_.add_argument("--bench-dir", default=".",
                      help="directory holding BENCH_*.json (default: cwd)")
    cmp_.add_argument("--tolerance-scale", type=float, default=1.0,
                      help="multiply every per-benchmark tolerance band "
                           "(CI smoke uses a wide scale)")
    cmp_.add_argument("--min-abs", type=float, default=stats.DEFAULT_MIN_ABS,
                      help="absolute slowdown floor in seconds")
    cmp_.add_argument("--confidence", type=float, default=0.95)
    cmp_.add_argument("--allow-workload-drift", action="store_true",
                      help="downgrade fingerprint changes to informational")
    cmp_.add_argument("--json", dest="json_path", default=None,
                      help="write fresh results + verdicts here")
    return parser


def _chosen_suites(args: argparse.Namespace) -> List[str]:
    chosen = args.suite or ["all"]
    if "all" in chosen:
        return list(SUITES)
    # preserve SUITES order, drop duplicates
    return [suite for suite in SUITES if suite in chosen]


def _progress(spec) -> None:
    print(f"  running {spec.suite}/{spec.name} ...", flush=True)


def _run_suites(args: argparse.Namespace) -> Dict[str, List[BenchmarkResult]]:
    names = set(getattr(args, "spec", None) or ())
    if names:
        known = {spec.name for spec in all_specs()}
        unknown = sorted(names - known)
        if unknown:
            raise SystemExit(f"unknown benchmark specs: {unknown}")
    results: Dict[str, List[BenchmarkResult]] = {}
    for suite in _chosen_suites(args):
        specs = suite_specs(suite)
        if names:
            specs = [spec for spec in specs if spec.name in names]
            if not specs:
                continue
        print(f"suite {suite}: {len(specs)} benchmarks "
              f"({args.repeats} repeats, {args.warmup} warmup)")
        results[suite] = run_suite(
            suite, repeats=args.repeats, warmup=args.warmup, specs=specs,
            progress=_progress,
        )
    return results


def _results_table(results: List[BenchmarkResult]) -> str:
    header = ["benchmark", "median", "mad", "ci95", "tts99", "stages (median s)"]
    table = [header]
    for result in results:
        summary = result.wall_summary()
        stage = " ".join(
            f"{name}={value:.4f}"
            for name, value in result.stage_medians().items()
        )
        tts = result.tts99_s() if result.has_success_rate else None
        table.append([
            result.name,
            f"{summary['median']:.4f}s",
            f"{summary['mad']:.4f}s",
            f"[{summary['ci_low']:.4f}, {summary['ci_high']:.4f}]",
            "-" if tts is None else f"{tts:.4f}s",
            stage or "-",
        ])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(line, widths)))
        if index == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _results_document(results: Dict[str, List[BenchmarkResult]]) -> Dict:
    return {
        suite: baseline_mod.results_to_baseline(suite, suite_results)
        for suite, suite_results in results.items()
    }


def _cmd_list(args: argparse.Namespace) -> int:
    suites = set(_chosen_suites(args))
    header = ["name", "suite", "kind", "tol", "description"]
    table = [header]
    for spec in all_specs():
        if spec.suite not in suites:
            continue
        table.append([
            spec.name, spec.suite, spec.kind,
            f"{spec.tolerance:.2f}", spec.description,
        ])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for index, line in enumerate(table):
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)))
        if index == 0:
            print("  ".join("-" * w for w in widths))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    results = _run_suites(args)
    for suite, suite_results in results.items():
        print(f"\nsuite {suite}:")
        print(_results_table(suite_results))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(_results_document(results), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"\nresults json: {args.json_path}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    results = _run_suites(args)
    for suite, suite_results in results.items():
        path = baseline_mod.write_baseline(suite, suite_results,
                                           root=args.bench_dir)
        print(f"wrote {path} ({len(suite_results)} benchmarks)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = _run_suites(args)
    reports = []
    for suite, suite_results in results.items():
        document = baseline_mod.load_baseline(suite, root=args.bench_dir)
        if document is None:
            print(f"suite {suite}: no baseline at "
                  f"{baseline_mod.baseline_path(suite, args.bench_dir)} "
                  f"(run `python -m repro.perf update` first)")
            continue
        report = baseline_mod.compare_results(
            document,
            suite_results,
            suite,
            tolerance_scale=args.tolerance_scale,
            min_abs=args.min_abs,
            confidence=args.confidence,
            allow_workload_drift=args.allow_workload_drift,
        )
        print()
        print(report.text_report())
        reports.append(report)

    failed = [row for report in reports for row in report.regressions]
    if args.json_path:
        document = {
            "results": _results_document(results),
            "comparisons": [report.to_dict() for report in reports],
            "ok": not failed,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\ncomparison json: {args.json_path}")
    if failed:
        names = ", ".join(f"{row.name} [{row.status}]" for row in failed)
        print(f"\nFAIL: significant perf regression: {names}", file=sys.stderr)
        return 1
    print("\nOK: no statistically significant regressions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "update":
        return _cmd_update(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
