"""Session fuzzing: incremental solving vs from-scratch, query by query.

The incremental architecture's correctness contract (DESIGN.md Appendix H)
says a :class:`~repro.smt.session.SolverSession` answer at any frame depth
is *bit-identical* to a fresh :class:`~repro.smt.solver.QuantumSMTSolver`
given the flattened frame stack at the same seed — same status, same
model, same per-variable energies. This module turns that contract into a
seeded campaign: generate multi-frame push/pop scripts with
:class:`~repro.smt.generator.InstanceGenerator` (``sessions=`` mode),
replay each through one live session *and* through a fresh solver per
``check-sat``, and diff the two answer streams.

Two failure classes are tracked separately:

* **equivalence mismatch** — incremental and from-scratch answers differ
  on any fingerprint field; always a bug in the session layer.
* **soundness bug** — either side answered ``sat`` on a query the
  generator planted as contradictory, or ``unsat`` on a query with a
  planted witness. ``unknown`` on a sat query is an annealing
  completeness miss, recorded but tolerated (as in the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec
from repro.smt.generator import InstanceGenerator
from repro.smt.parser import parse_script
from repro.smt.session import SolverSession, iter_check_states
from repro.smt.solver import QuantumSMTSolver, SmtResult
from repro.smt.status import SolveStatus

__all__ = [
    "SessionCampaignReport",
    "result_fingerprint",
    "run_session_campaign",
]


def result_fingerprint(result: SmtResult) -> Dict[str, Any]:
    """The fields the equivalence contract pins, exactly (no rounding)."""
    return {
        "status": str(result.status),
        "model": dict(sorted(result.model.items())),
        "energies": {
            name: float(r.energy)
            for name, r in sorted(result.solve_results.items())
        },
    }


@dataclass
class SessionCampaignReport:
    """Outcome of one incremental-vs-fresh equivalence campaign."""

    instances: int = 0
    queries: int = 0
    memo_hits: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    soundness_bugs: List[Dict[str, Any]] = field(default_factory=list)
    completeness_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.soundness_bugs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instances": self.instances,
            "queries": self.queries,
            "memo_hits": self.memo_hits,
            "statuses": dict(sorted(self.statuses.items())),
            "mismatches": list(self.mismatches),
            "soundness_bugs": list(self.soundness_bugs),
            "completeness_misses": self.completeness_misses,
            "ok": self.ok,
        }

    def text_report(self) -> str:
        lines = [
            f"session campaign: {self.instances} instances, "
            f"{self.queries} queries "
            f"({self.memo_hits} answered from the session memo)",
            "  statuses: "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.statuses.items())
            ),
            f"  completeness misses: {self.completeness_misses}",
            f"  equivalence mismatches: {len(self.mismatches)}",
            f"  soundness bugs: {len(self.soundness_bugs)}",
        ]
        for bad in self.mismatches[:10]:
            lines.append(
                f"    MISMATCH instance={bad['instance']} query={bad['query']}: "
                f"session={bad['session']} fresh={bad['fresh']}"
            )
        for bad in self.soundness_bugs[:10]:
            lines.append(
                f"    SOUNDNESS instance={bad['instance']} query={bad['query']}: "
                f"expected={bad['expected']} got={bad['status']}"
            )
        lines.append(f"  result: {'OK' if self.ok else 'FAILING'}")
        return "\n".join(lines)


def _fresh_answers(
    script_text: str,
    *,
    num_reads: int,
    seed: Optional[int],
    sampler_params: Dict[str, Any],
    max_attempts: int,
    metrics: Optional[MetricsRegistry],
) -> List[SmtResult]:
    """One from-scratch solve per ``check-sat`` of *script_text*.

    Each query gets a brand-new solver over the flattened frame stack at
    that point — the reference the session must be bit-identical to.
    """
    script = parse_script(script_text)
    answers: List[SmtResult] = []
    for _index, flattened in iter_check_states(script):
        solver = QuantumSMTSolver(
            num_reads=num_reads,
            seed=seed,
            sampler_params=sampler_params,
            max_attempts=max_attempts,
            metrics=metrics,
        )
        solver.declarations = dict(script.declarations)
        solver.assertions = list(flattened)
        answers.append(solver.check_sat())
    return answers


def run_session_campaign(
    *,
    instances: int = 20,
    seed: int = 0,
    queries: int = 4,
    min_length: int = 2,
    max_length: int = 4,
    max_constraints: int = 2,
    num_reads: int = 64,
    num_sweeps: Optional[int] = None,
    max_attempts: int = 3,
    metrics: Optional[MetricsRegistry] = None,
) -> SessionCampaignReport:
    """Fuzz *instances* generated push/pop sessions against fresh solves."""
    generator = InstanceGenerator(
        min_length=min_length,
        max_length=max_length,
        max_constraints=max_constraints,
        seed=seed,
        sessions=queries,
    )
    sampler_params: Dict[str, Any] = {}
    if num_sweeps is not None:
        sampler_params["num_sweeps"] = num_sweeps

    report = SessionCampaignReport()
    for index in range(instances):
        instance = generator.generate()
        solver_seed = seed * 1_000_003 + index
        session = SolverSession(
            SolveSpec(
                num_reads=num_reads,
                seed=solver_seed,
                sampler_params=sampler_params,
                policy=RetryPolicy(max_attempts=max_attempts),
            ),
            metrics=metrics,
        )
        session_answers = session.run_script_text(instance.script)
        fresh_answers = _fresh_answers(
            instance.script,
            num_reads=num_reads,
            seed=solver_seed,
            sampler_params=sampler_params,
            max_attempts=max_attempts,
            metrics=metrics,
        )
        report.instances += 1
        report.memo_hits += session.stats.memo_hits

        for query, (incremental, fresh) in enumerate(
            zip(session_answers, fresh_answers)
        ):
            report.queries += 1
            status = str(incremental.status)
            report.statuses[status] = report.statuses.get(status, 0) + 1

            left = result_fingerprint(incremental)
            right = result_fingerprint(fresh)
            if left != right:
                report.mismatches.append(
                    {
                        "instance": index,
                        "query": query,
                        "session": left,
                        "fresh": right,
                        "script": instance.script,
                    }
                )

            expected = (
                instance.expected_statuses[query]
                if query < len(instance.expected_statuses)
                else None
            )
            if expected is None:
                continue
            if incremental.status is SolveStatus.SAT and expected == "unsat":
                report.soundness_bugs.append(
                    {
                        "instance": index,
                        "query": query,
                        "expected": expected,
                        "status": status,
                        "model": dict(incremental.model),
                        "script": instance.script,
                    }
                )
            elif incremental.status is SolveStatus.UNSAT and expected == "sat":
                report.soundness_bugs.append(
                    {
                        "instance": index,
                        "query": query,
                        "expected": expected,
                        "status": status,
                        "model": {},
                        "script": instance.script,
                    }
                )
            elif (
                incremental.status is not SolveStatus.SAT and expected == "sat"
            ):
                report.completeness_misses += 1
    return report
