"""Checked-in SMT-LIB regression corpus for the differential oracle.

Shrunk campaign failures are persisted as ``.smt2`` files under
``tests/corpus/`` and replayed on every run of the verification suite,
so a once-found miss can never silently regress into a soundness bug.

File format — plain SMT-LIB 2.6 with a machine-readable comment header:

.. code-block:: text

    ; expect: sat
    ; seed instance: witness x="ab"
    (declare-const x String)
    (assert (= (str.len x) 2))
    (check-sat)

``; expect:`` declares the ground-truth status (``sat``/``unsat``/
``unknown``); every other leading ``;`` line is free-form provenance.
A *multi-query* case — a script with ``push``/``pop`` and several
``check-sat`` commands — carries one ``; expect:`` line per query, in
query order, and is replayed query by query: the harness walks the
assertion stack with :func:`~repro.smt.session.iter_check_states` and
feeds each flattened frame state through
:meth:`~repro.verify.oracle.DifferentialOracle.check` with its declared
expectation. A corpus replay **fails** only on soundness bugs — a
completeness miss on a known-sat query is recorded but tolerated,
because annealing misses are stochastic facts, not regressions.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.smt import ast
from repro.smt.parser import parse_script
from repro.smt.printer import render_script
from repro.smt.session import iter_check_states
from repro.smt.status import SolveStatus
from repro.verify.oracle import DifferentialOracle, OracleReport, Verdict

__all__ = [
    "CorpusCase",
    "CorpusReport",
    "load_corpus",
    "replay_corpus",
    "save_case",
]

_EXPECT_RE = re.compile(r"^;\s*expect:\s*(\S+)\s*$", re.MULTILINE)
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass
class CorpusCase:
    """One corpus file, parsed and ready to replay."""

    name: str
    path: str
    script: str
    assertions: List[ast.Term]
    expected: Optional[SolveStatus] = None
    #: One entry per ``; expect:`` header line, in query order
    #: (``expected`` stays the first entry for single-query callers).
    expected_statuses: List[SolveStatus] = field(default_factory=list)
    #: The flattened assertion stack at each ``check-sat``.
    queries: List[List[ast.Term]] = field(default_factory=list)

    def __repr__(self) -> str:
        expect = self.expected.value if self.expected else "?"
        return (
            f"CorpusCase({self.name!r}, {len(self.assertions)} assertions, "
            f"{max(len(self.queries), 1)} queries, expect={expect})"
        )


@dataclass
class CorpusReport:
    """Outcome of replaying a corpus directory through the oracle."""

    cases: List[Dict[str, Any]] = field(default_factory=list)
    verdicts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def soundness_bugs(self) -> int:
        return self.verdicts.get(Verdict.SOUNDNESS_BUG.value, 0)

    @property
    def ok(self) -> bool:
        return self.soundness_bugs == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "verdicts": dict(sorted(self.verdicts.items())),
            "cases": list(self.cases),
            "ok": self.ok,
        }

    def text_report(self) -> str:
        lines = [f"corpus replay: {self.total} cases"]
        for case in self.cases:
            lines.append(
                f"  {case['name']:<40s} {case['verdict']}"
            )
        lines.append(f"  result: {'OK' if self.ok else 'FAILING'}")
        return "\n".join(lines)


def load_corpus(directory: str) -> List[CorpusCase]:
    """Load every ``.smt2`` case under *directory* (sorted by name)."""
    if not os.path.isdir(directory):
        return []
    cases: List[CorpusCase] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".smt2"):
            continue
        path = os.path.join(directory, entry)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        expected_statuses = [
            SolveStatus.from_value(value) for value in _EXPECT_RE.findall(text)
        ]
        script = parse_script(text)
        cases.append(
            CorpusCase(
                name=entry[: -len(".smt2")],
                path=path,
                script=text,
                assertions=list(script.assertions),
                expected=expected_statuses[0] if expected_statuses else None,
                expected_statuses=expected_statuses,
                queries=[
                    flattened for _index, flattened in iter_check_states(script)
                ],
            )
        )
    return cases


def save_case(
    directory: str,
    name: str,
    assertions: Sequence[ast.Term],
    *,
    expected: Optional[SolveStatus] = None,
    comment: str = "",
) -> str:
    """Write one corpus case; returns the file path.

    The header carries the ``; expect:`` status plus one provenance
    comment line, followed by the rendered script (declarations included,
    so the file is a complete standalone SMT-LIB input).
    """
    if not _NAME_RE.match(name):
        raise ValueError(f"corpus case names must be filename-safe, got {name!r}")
    os.makedirs(directory, exist_ok=True)
    header: List[str] = []
    if expected is not None:
        header.append(f"expect: {SolveStatus.from_value(expected).value}")
    header.extend(comment.splitlines())
    body = render_script(list(assertions), header=header)
    path = os.path.join(directory, f"{name}.smt2")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body)
    return path


#: Verdicts ordered least- to most-severe; a multi-query case reports the
#: worst of its per-query verdicts at case level.
_SEVERITY = (
    Verdict.AGREE_SAT,
    Verdict.AGREE_UNSAT,
    Verdict.UNRESOLVED,
    Verdict.COMPLETENESS_MISS,
    Verdict.SOUNDNESS_BUG,
)


def _replay_case(
    case: CorpusCase, oracle: DifferentialOracle
) -> Dict[str, Any]:
    """One case record: single-query direct, multi-query stack-walked."""
    if len(case.queries) <= 1:
        oracle_report: OracleReport = oracle.check(
            case.assertions, expected=case.expected
        )
        return {
            "name": case.name,
            "expected": case.expected.value if case.expected else None,
            "verdict": oracle_report.verdict.value,
            "quantum_status": oracle_report.quantum_status.value,
            "reference_status": oracle_report.reference_status.value,
        }

    queries: List[Dict[str, Any]] = []
    worst = _SEVERITY[0]
    for index, flattened in enumerate(case.queries):
        expected = (
            case.expected_statuses[index]
            if index < len(case.expected_statuses)
            else None
        )
        oracle_report = oracle.check(flattened, expected=expected)
        if _SEVERITY.index(oracle_report.verdict) > _SEVERITY.index(worst):
            worst = oracle_report.verdict
        queries.append(
            {
                "query": index,
                "expected": expected.value if expected else None,
                "verdict": oracle_report.verdict.value,
                "quantum_status": oracle_report.quantum_status.value,
                "reference_status": oracle_report.reference_status.value,
            }
        )
    return {
        "name": case.name,
        "expected": case.expected.value if case.expected else None,
        "verdict": worst.value,
        "quantum_status": queries[-1]["quantum_status"],
        "reference_status": queries[-1]["reference_status"],
        "queries": queries,
    }


def replay_corpus(
    directory: str,
    oracle: Optional[DifferentialOracle] = None,
) -> CorpusReport:
    """Replay every corpus case through the differential oracle (default:
    one at the default campaign's solver configuration).

    The per-case verdict counted into the report is the case's worst
    per-query verdict, so a soundness bug at *any* frame depth fails the
    replay.
    """
    if oracle is None:
        from repro.verify.campaign import CampaignConfig

        oracle = DifferentialOracle(CampaignConfig().solve_spec())
    report = CorpusReport()
    for case in load_corpus(directory):
        record = _replay_case(case, oracle)
        verdict = record["verdict"]
        report.verdicts[verdict] = report.verdicts.get(verdict, 0) + 1
        report.cases.append(record)
    return report
