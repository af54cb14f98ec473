"""Command-line entry point: ``python -m repro.verify``.

Subcommands
-----------

``campaign``
    Run a seeded differential fuzz campaign::

        python -m repro.verify campaign --instances 30 --seed 7 \\
            --json out/campaign.json --corpus-dir tests/corpus

``corpus``
    Replay the checked-in regression corpus::

        python -m repro.verify corpus --dir tests/corpus

``sessions``
    Fuzz incremental push/pop sessions against from-scratch solving::

        python -m repro.verify sessions --instances 20 --seed 0 \\
            --json out/sessions.json

``opt``
    Run a weighted-MaxSMT optimality campaign (and/or replay the
    weighted corpus)::

        python -m repro.verify opt --instances 30 --seed 0 \\
            --corpus-dir tests/corpus/opt --json out/opt.json

``shrink``
    Delta-debug one failing SMT-LIB script down to a minimal repro::

        python -m repro.verify shrink failing.smt2 --expect sat

Exit status is non-zero when a soundness bug, equivalence mismatch or
metamorphic violation is found, so every subcommand gates cleanly in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.smt.generator import ALL_OPS
from repro.smt.parser import parse_script
from repro.smt.status import SolveStatus
from repro.verify.campaign import CampaignConfig, run_campaign
from repro.verify.corpus import replay_corpus
from repro.verify.oracle import DifferentialOracle
from repro.verify.sessions import run_session_campaign
from repro.verify.shrink import shrink


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential verification harness for the quantum string solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser("campaign", help="run a seeded fuzz campaign")
    camp.add_argument("--instances", type=int, default=200)
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument(
        "--ops",
        default="all",
        help=f"'all' or comma-separated subset of: {', '.join(ALL_OPS)}",
    )
    camp.add_argument("--unsat-ratio", type=float, default=0.15)
    camp.add_argument("--max-length", type=int, default=4)
    camp.add_argument("--num-reads", type=int, default=64)
    camp.add_argument("--num-sweeps", type=int, default=None)
    camp.add_argument("--max-attempts", type=int, default=3)
    camp.add_argument("--strategy", choices=("direct", "refine"),
                      default="direct",
                      help="quantum-side solve strategy (refine = CEGAR loop)")
    camp.add_argument("--refine-max-rounds", type=int, default=4,
                      help="refinement round budget (with --strategy refine)")
    camp.add_argument("--reference", choices=("classical", "dpllt"),
                      default="classical")
    camp.add_argument("--max-wall-time", type=float, default=None,
                      help="wall-clock budget in seconds")
    camp.add_argument("--no-shrink", action="store_true",
                      help="keep failures unshrunk")
    camp.add_argument("--metamorphic", action="store_true",
                      help="also check metamorphic relations on sat instances")
    camp.add_argument("--corpus-dir", default=None,
                      help="write shrunk failures into this corpus directory")
    camp.add_argument("--workers", type=int, default=1,
                      help=">1 precomputes quantum results on a thread pool")
    camp.add_argument("--json", dest="json_path", default=None,
                      help="write the deterministic JSON report here")

    corp = sub.add_parser("corpus", help="replay the regression corpus")
    corp.add_argument("--dir", dest="directory", default="tests/corpus")
    corp.add_argument("--seed", type=int, default=0)
    corp.add_argument("--num-reads", type=int, default=64)
    corp.add_argument("--strategy", choices=("direct", "refine"),
                      default="direct",
                      help="quantum-side solve strategy for the replay")
    corp.add_argument("--refine-max-rounds", type=int, default=4)
    corp.add_argument("--json", dest="json_path", default=None)

    sess = sub.add_parser(
        "sessions", help="fuzz incremental sessions vs from-scratch solving"
    )
    sess.add_argument("--instances", type=int, default=20)
    sess.add_argument("--seed", type=int, default=0)
    sess.add_argument("--queries", type=int, default=4,
                      help="check-sat queries per generated session")
    sess.add_argument("--min-length", type=int, default=2)
    sess.add_argument("--max-length", type=int, default=4)
    sess.add_argument("--max-constraints", type=int, default=2)
    sess.add_argument("--num-reads", type=int, default=64)
    sess.add_argument("--num-sweeps", type=int, default=None)
    sess.add_argument("--max-attempts", type=int, default=3)
    sess.add_argument("--json", dest="json_path", default=None,
                      help="write the deterministic JSON report here")

    opt = sub.add_parser(
        "opt", help="weighted-MaxSMT optimality campaign + corpus replay"
    )
    opt.add_argument("--instances", type=int, default=100)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument(
        "--ops",
        default="all",
        help=f"'all' or comma-separated subset of: {', '.join(ALL_OPS)}",
    )
    opt.add_argument("--soft", type=int, default=3,
                     help="soft assertions drawn per instance")
    opt.add_argument("--infeasible-ratio", type=float, default=0.1)
    opt.add_argument("--max-length", type=int, default=3)
    opt.add_argument("--num-reads", type=int, default=64)
    opt.add_argument("--num-sweeps", type=int, default=None)
    opt.add_argument("--max-restarts", type=int, default=4)
    opt.add_argument("--exhaustive-bits", type=int, default=16,
                     help="exhaustive-finish threshold in string bits")
    opt.add_argument("--deadline-ms", type=float, default=None,
                     help="anytime wall-clock budget per optimize call")
    opt.add_argument("--max-wall-time", type=float, default=None,
                     help="campaign wall-clock budget in seconds")
    opt.add_argument("--corpus-dir", default=None,
                     help="also replay this weighted corpus directory")
    opt.add_argument("--json", dest="json_path", default=None,
                     help="write the deterministic JSON report here")

    shr = sub.add_parser("shrink", help="minimize a failing SMT-LIB script")
    shr.add_argument("script", help="path to the .smt2 file to minimize")
    shr.add_argument("--expect", choices=("sat", "unsat"), default="sat",
                     help="ground-truth status of the script")
    shr.add_argument("--seed", type=int, default=0)
    shr.add_argument("--num-reads", type=int, default=64)
    shr.add_argument("--max-evaluations", type=int, default=500)
    shr.add_argument("--out", default=None,
                     help="write the minimized script here (default: stdout)")
    return parser


def _cmd_campaign(args: argparse.Namespace) -> int:
    ops = "all" if args.ops == "all" else [
        op.strip() for op in args.ops.split(",") if op.strip()
    ]
    config = CampaignConfig(
        instances=args.instances,
        seed=args.seed,
        ops=ops,
        unsat_ratio=args.unsat_ratio,
        max_length=args.max_length,
        num_reads=args.num_reads,
        num_sweeps=args.num_sweeps,
        max_attempts=args.max_attempts,
        strategy=args.strategy,
        refine_max_rounds=args.refine_max_rounds,
        reference=args.reference,
        max_wall_time=args.max_wall_time,
        shrink_failures=not args.no_shrink,
        metamorphic=args.metamorphic,
        corpus_dir=args.corpus_dir,
        num_workers=args.workers,
    )
    report = run_campaign(config)
    print(report.text_report())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"json report: {args.json_path}")
    return 0 if report.ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        seed=args.seed,
        num_reads=args.num_reads,
        strategy=args.strategy,
        refine_max_rounds=args.refine_max_rounds,
    )
    report = replay_corpus(args.directory, DifferentialOracle(config.solve_spec()))
    print(report.text_report())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0 if report.ok else 1


def _cmd_sessions(args: argparse.Namespace) -> int:
    report = run_session_campaign(
        instances=args.instances,
        seed=args.seed,
        queries=args.queries,
        min_length=args.min_length,
        max_length=args.max_length,
        max_constraints=args.max_constraints,
        num_reads=args.num_reads,
        num_sweeps=args.num_sweeps,
        max_attempts=args.max_attempts,
    )
    print(report.text_report())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"json report: {args.json_path}")
    return 0 if report.ok else 1


def _cmd_opt(args: argparse.Namespace) -> int:
    from repro.verify.optimality import (
        OptCampaignConfig,
        OptimalityOracle,
        replay_opt_corpus,
        run_opt_campaign,
    )

    ops = "all" if args.ops == "all" else [
        op.strip() for op in args.ops.split(",") if op.strip()
    ]
    config = OptCampaignConfig(
        instances=args.instances,
        seed=args.seed,
        ops=ops,
        soft=args.soft,
        infeasible_ratio=args.infeasible_ratio,
        max_length=args.max_length,
        num_reads=args.num_reads,
        num_sweeps=args.num_sweeps,
        max_restarts=args.max_restarts,
        exhaustive_bits=args.exhaustive_bits,
        deadline_ms=args.deadline_ms,
        max_wall_time=args.max_wall_time,
    )
    report = run_opt_campaign(config)
    print(report.text_report())
    ok = report.ok
    payload = report.to_dict()
    if args.corpus_dir:
        corpus_report = replay_opt_corpus(
            args.corpus_dir,
            optimizer=config.solve_spec().optimizer(),
            oracle=OptimalityOracle(),
        )
        print(
            f"opt corpus replay: {corpus_report['total']} cases, "
            f"{corpus_report['failures']} failures"
        )
        for case in corpus_report["cases"]:
            marker = "ok" if case["ok"] else f"FAIL: {case['reason']}"
            print(f"  {case['name']:<40s} {case['status']:<10s} {marker}")
        ok = ok and corpus_report["ok"]
        payload = {"campaign": payload, "corpus": corpus_report}
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
        print(f"json report: {args.json_path}")
    return 0 if ok else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    with open(args.script, "r", encoding="utf-8") as handle:
        script = parse_script(handle.read())
    assertions = list(script.assertions)
    expected = SolveStatus.from_value(args.expect)
    oracle = DifferentialOracle(
        CampaignConfig(seed=args.seed, num_reads=args.num_reads).solve_spec()
    )

    baseline = oracle.check(assertions, expected=expected)
    verdict = baseline.verdict
    if verdict.is_agreement:
        print(f"nothing to shrink: oracle verdict is {verdict.value}")
        return 0

    def still_fails(candidate) -> bool:
        return oracle.check(candidate, expected=expected).verdict is verdict

    result = shrink(assertions, still_fails,
                    max_evaluations=args.max_evaluations)
    print(
        f"shrunk {result.original_count} -> {len(result.assertions)} "
        f"assertions in {result.evaluations} evaluations "
        f"(verdict held: {verdict.value})",
        file=sys.stderr,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(result.script)
        print(f"minimized script: {args.out}", file=sys.stderr)
    else:
        print(result.script, end="")
    return 1 if verdict.is_bug else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "sessions":
        return _cmd_sessions(args)
    if args.command == "opt":
        return _cmd_opt(args)
    return _cmd_shrink(args)


if __name__ == "__main__":
    sys.exit(main())
