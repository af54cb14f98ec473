"""Answer checker: every answer the benchmark times is re-verified here.

* ``sat`` — the model is re-evaluated with
  :func:`repro.smt.theory.eval_formula` against the assertions parsed
  from the script that was sent; a model that fails any of them is wrong.
* ``unsat`` — every generated instance is satisfiable by construction (a
  witness is planted), so ``unsat`` is always wrong.
* weighted answers — the model is re-audited with
  :func:`repro.opt.driver.audit_cost` and the audited cost must equal the
  objective the answer reports.
* ``unknown``, errors and timeouts are not wrong, but they do not count as
  solved.

The checker keeps each answer's status by input index. Its fingerprint is the
hash of that sequence; :class:`FingerprintStore` compares it with earlier
runs of the same code, workload and seed, whose inputs are identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

# Bound at import time, before any tracing wrapper is installed, so that
# checking never shows up in the traced layers' spans.
from repro.opt.driver import audit_cost
from repro.smt.parser import parse_script
from repro.smt.theory import TheoryError, eval_formula

__all__ = ["AnswerChecker", "FingerprintStore", "source_digest"]

#: Objective equality tolerance: weights are small integers, so audited and
#: reported costs agree exactly unless something is wrong.
_OBJECTIVE_TOL = 1e-6


class AnswerChecker:
    """Re-verifies answers and keeps the run's status sequence."""

    def __init__(self) -> None:
        self._by_index: Dict[int, str] = {}
        self.wrong: List[str] = []

    def _record(self, index: int, status: str, problem: Optional[str]) -> None:
        self._by_index[index] = status
        if problem is not None:
            self.wrong.append(f"input {index}: {problem}")

    @property
    def statuses(self) -> List[str]:
        """Statuses in input order (callers may answer out of order)."""
        return [self._by_index[i] for i in sorted(self._by_index)]

    def check_decision(self, index: int, script: str, status: str, model: Dict[str, str]) -> bool:
        """Check one decision answer; returns whether it counts as solved."""
        status = str(status)
        if status == "sat":
            problem = _model_problem(parse_script(script).assertions, model)
            self._record(index, status, problem)
            return problem is None
        if status == "unsat":
            self._record(index, status, "unsat on a planted-sat instance")
            return False
        self._record(index, status, None)
        return False

    def check_weighted(
        self,
        index: int,
        script: str,
        status: str,
        model: Dict[str, str],
        objective: Optional[float],
    ) -> Tuple[bool, Optional[float]]:
        """Check one weighted answer: ``(solved, audited objective)``."""
        status = str(status)
        if status == "unsat":
            self._record(index, status, "infeasible on a planted-sat instance")
            return False, None
        if status != "sat":
            self._record(index, status, None)
            return False, None
        parsed = parse_script(script)
        softs = [(float(s.weight), s.term) for s in parsed.soft_assertions]
        try:
            feasible, cost = audit_cost(parsed.assertions, softs, model)
        except TheoryError as exc:
            self._record(index, status, f"model cannot be evaluated: {exc}")
            return False, None
        if not feasible:
            self._record(index, status, f"model {model!r} violates a hard assertion")
            return False, None
        if objective is None or abs(cost - float(objective)) > _OBJECTIVE_TOL:
            self._record(
                index, status, f"reported objective {objective!r} but audit gives {cost!r}"
            )
            return False, None
        # The audited objective joins the status, so the fingerprint also
        # catches optimization results that differ at one seed.
        self._record(index, f"{status}:{cost:g}", None)
        return True, cost

    def record_error(self, index: int, error_type: str) -> None:
        """An answer that never came (transport error, timeout, exception)."""
        self._record(index, f"error:{error_type}", None)

    def merge(self, other: "AnswerChecker") -> None:
        """Adopt the answers another checker (a caller process's) recorded."""
        self._by_index.update(other._by_index)
        self.wrong.extend(other.wrong)

    def fingerprint(self) -> str:
        return status_fingerprint(self.statuses)


def status_fingerprint(statuses: List[str]) -> str:
    return hashlib.sha256("\n".join(statuses).encode("utf-8")).hexdigest()[:16]


def _model_problem(assertions, model: Dict[str, str]) -> Optional[str]:
    """Why *model* is not a model of *assertions*, or None if it is."""
    for assertion in assertions:
        try:
            holds = eval_formula(assertion, model)
        except TheoryError as exc:
            return f"model cannot be evaluated: {exc}"
        if not holds:
            return f"model {model!r} fails {assertion!r}"
    return None


def source_digest(*directories: str) -> str:
    """Hash of every ``.py`` file under *directories*: the code under test."""
    digest = hashlib.sha256()
    for directory in directories:
        for parent, subdirs, files in os.walk(directory):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(parent, name)
                digest.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read() + b"\0")
    return digest.hexdigest()[:16]


class FingerprintStore:
    """Status sequences of earlier runs of the same code, one file per
    workload, seed and source digest.

    Only runs of identical code must agree: a change that consumes the
    annealer's random numbers differently may legitimately answer one
    input differently, so its runs are compared with each other only.
    A run answers its inputs in a fixed order and stops when its time is
    up, so two runs at one seed may answer different numbers of inputs;
    they must agree on every input both answered.
    """

    def __init__(self, directory: str, code: str) -> None:
        self.directory = directory
        self.code = code

    def _path(self, workload: str, seed: int) -> str:
        return os.path.join(self.directory, f"{workload}-seed{seed}-{self.code}.json")

    def compare_and_store(self, workload: str, seed: int, statuses: List[str]) -> Optional[str]:
        """Compare with the stored sequence; keep the longer one.

        Returns a description of the first disagreement, or None.
        """
        path = self._path(workload, seed)
        stored: List[str] = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                stored = json.load(handle)
        for index, (before, now) in enumerate(zip(stored, statuses)):
            if before != now:
                return f"input {index}: an earlier run answered {before}, this run {now}"
        if len(statuses) > len(stored):
            os.makedirs(self.directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(statuses, handle)
        return None
