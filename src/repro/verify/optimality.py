"""The optimality oracle: ``repro.opt`` vs. an exact classical reference.

The MaxSMT analogue of :mod:`repro.verify.oracle`. Every optimizer answer
is audited on two axes:

* **soundness** — a ``feasible``/``optimal`` result's model must satisfy
  every hard assertion under the concrete semantics, and its *claimed*
  objective must equal the re-audited violated soft weight
  (:func:`repro.opt.driver.audit_cost` is the single source of truth).
  Bounds must bracket the audited cost, and the claimed lower bound must
  never exceed the cost of any concretely-known model. Any breach is a
  ``SOUNDNESS_BUG`` — a campaign must finish with zero.
* **optimality** — on instances the classical reference can enumerate
  exhaustively, a claimed ``optimal`` must match the reference optimum.
  A reference strictly beating a claimed optimum is a soundness bug; an
  anytime ``feasible`` above the optimum is an expected ``SUBOPTIMAL``,
  tracked but tolerated (annealing is stochastic).

The reference (:class:`OptimalityOracle.reference_optimize`) enumerates
candidate strings the same way :class:`~repro.smt.classical
.ClassicalStringSolver` does — hard-implied lengths, the constraint fill
alphabet plus one escape character — keeping an incumbent and stopping
early at the ground-cost floor. It is complete relative to its fill
alphabet and length bound, the same relativity contract the decision
baseline documents; verdicts are chosen so that relativity can only ever
produce ``UNRESOLVED``, never a false ``SOUNDNESS_BUG``.

The module also carries the weighted fuzz campaign
(:func:`run_opt_campaign`) with its per-instance **gap-certificate
check** (``hard_scale * hard_gap > soft_budget`` whenever any soft
constraint was encoded), and the weighted-corpus replay
(:func:`replay_opt_corpus`) over ``tests/corpus/opt``.
"""

from __future__ import annotations

import enum
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.opt.driver import AnytimeOptimizer, audit_cost
from repro.opt.result import OptimizeResult, OptStatus
from repro.service.metrics import MetricsRegistry
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.classical import ClassicalStringSolver
from repro.smt.generator import ALL_OPS, GeneratedInstance, InstanceGenerator
from repro.smt.parser import parse_script
from repro.smt.theory import TheoryError, eval_formula
from repro.utils.timing import Timer

__all__ = [
    "OptVerdict",
    "OptOracleReport",
    "OptimalityOracle",
    "ReferenceOptimum",
    "OptCampaignConfig",
    "OptCampaignReport",
    "run_opt_campaign",
    "replay_opt_corpus",
    "certificate_violation",
]

#: Objective comparisons tolerate float noise at this scale (weights are
#: small integers, so anything below this is a genuine mismatch).
_EPS = 1e-9


class OptVerdict(str, enum.Enum):
    """Classification of one optimizer-vs-reference comparison."""

    #: Claimed optimal, audit passed, matches the reference optimum.
    AGREE_OPTIMAL = "agree_optimal"
    #: Feasible, audit passed, objective equals the reference optimum
    #: (found the optimum without claiming the proof).
    AGREE_FEASIBLE = "agree_feasible"
    #: Feasible, audit passed, objective strictly above the reference
    #: optimum — the expected anytime gap, tracked but tolerated.
    SUBOPTIMAL = "suboptimal"
    #: Both sides refuted the hard assertions.
    AGREE_INFEASIBLE = "agree_infeasible"
    #: Wrong claim: infeasible model, mis-reported objective, broken
    #: bounds, or a claimed optimum the reference strictly beats.
    SOUNDNESS_BUG = "soundness_bug"
    #: Unknown on an instance with a concretely-known feasible model.
    COMPLETENESS_MISS = "completeness_miss"
    #: No comparable definite answer on either side.
    UNRESOLVED = "unresolved"

    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def is_bug(self) -> bool:
        return self is OptVerdict.SOUNDNESS_BUG


@dataclass
class ReferenceOptimum:
    """Outcome of one classical reference optimization."""

    status: OptStatus
    model: Dict[str, str] = field(default_factory=dict)
    objective: Optional[float] = None
    #: False when a budget stopped enumeration before it finished — the
    #: objective is then only an upper bound on the true optimum.
    complete: bool = True
    nodes: int = 0
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status.value,
            "model": dict(sorted(self.model.items())),
            "objective": self.objective,
            "complete": self.complete,
            "reason": self.reason,
        }


@dataclass
class OptOracleReport:
    """Outcome of one optimality check."""

    verdict: OptVerdict
    opt_status: OptStatus
    reference_status: OptStatus
    objective: Optional[float] = None
    reference_objective: Optional[float] = None
    audited_cost: Optional[float] = None
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "opt_status": self.opt_status.value,
            "reference_status": self.reference_status.value,
            "objective": self.objective,
            "reference_objective": self.reference_objective,
            "audited_cost": self.audited_cost,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return (
            f"OptOracleReport({self.verdict.value}, "
            f"objective={self.objective!r}, "
            f"reference={self.reference_objective!r})"
        )


def certificate_violation(certificate: Dict[str, Any]) -> Optional[str]:
    """The gap-certificate property; a message iff it is violated.

    Whenever at least one soft constraint was encoded into the QUBO, the
    weighted compiler must have scaled the hard side strictly above the
    total soft budget: ``hard_scale * hard_gap > soft_budget``. This is
    what guarantees no weighted sum of soft violations can ever pay for a
    hard violation at the energy level.
    """
    if not certificate or not certificate.get("num_soft_encoded"):
        return None
    hard_scale = float(certificate.get("hard_scale", 0.0))
    hard_gap = float(certificate.get("hard_gap", 0.0))
    soft_budget = float(certificate.get("soft_budget", 0.0))
    if hard_scale * hard_gap > soft_budget:
        return None
    return (
        f"gap certificate violated: hard_scale({hard_scale}) * "
        f"hard_gap({hard_gap}) = {hard_scale * hard_gap} "
        f"<= soft_budget({soft_budget})"
    )


class OptimalityOracle:
    """Audit optimizer results against an exact classical reference.

    Parameters
    ----------
    max_length:
        Length-scan bound for variables with no exact hard length fact.
    node_budget:
        Candidate-enumeration cap; exceeding it degrades the reference to
        an incomplete upper bound (never to a wrong verdict).
    """

    def __init__(
        self,
        *,
        max_length: int = 6,
        node_budget: int = 500_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        self.max_length = max_length
        self.node_budget = node_budget
        self.metrics = metrics
        self._baseline = ClassicalStringSolver(max_length=max_length)

    # ------------------------------------------------------------------ #
    # the classical reference
    # ------------------------------------------------------------------ #

    def reference_optimize(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[ast.SoftAssertion],
    ) -> ReferenceOptimum:
        """Exhaustive-with-incumbent reference optimum.

        Decomposes the objective per variable (the fragment is
        single-variable, ground softs contribute a fixed cost) and
        enumerates each variable's candidate space — hard-implied lengths
        over the fill alphabet of its hard *and* soft constraints.
        """
        assertions = list(assertions)
        softs = list(soft_assertions)
        for assertion in assertions:
            if not ast.free_string_variables(assertion):
                if not eval_formula(assertion, {}):
                    return ReferenceOptimum(
                        status=OptStatus.INFEASIBLE,
                        reason=f"ground assertion false: {assertion!r}",
                    )

        ground_cost = 0.0
        per_var_soft: Dict[str, List[ast.SoftAssertion]] = {}
        for soft in softs:
            variables = ast.free_string_variables(soft.term)
            if not variables:
                if not eval_formula(soft.term, {}):
                    ground_cost += float(soft.weight)
                continue
            if len(variables) > 1:
                return ReferenceOptimum(
                    status=OptStatus.UNKNOWN,
                    complete=False,
                    reason=f"multi-variable soft term: {soft.term!r}",
                )
            (variable,) = variables
            per_var_soft.setdefault(variable, []).append(soft)

        per_var_hard: Dict[str, List[ast.Term]] = {}
        for assertion in assertions:
            variables = ast.free_string_variables(assertion)
            if len(variables) > 1:
                return ReferenceOptimum(
                    status=OptStatus.UNKNOWN,
                    complete=False,
                    reason=f"multi-variable assertion: {assertion!r}",
                )
            if variables:
                (variable,) = variables
                per_var_hard.setdefault(variable, []).append(assertion)

        model: Dict[str, str] = {}
        objective = ground_cost
        nodes = 0
        complete = True
        for variable in sorted(set(per_var_hard) | set(per_var_soft)):
            outcome = self._optimize_variable(
                variable,
                per_var_hard.get(variable, []),
                per_var_soft.get(variable, []),
                self.node_budget - nodes,
            )
            nodes += outcome["nodes"]
            complete = complete and outcome["complete"]
            if outcome["value"] is None:
                if outcome["complete"]:
                    return ReferenceOptimum(
                        status=OptStatus.INFEASIBLE,
                        nodes=nodes,
                        reason=(
                            f"{variable!r}: no feasible candidate "
                            f"(relative to fill alphabet, length <= "
                            f"{self.max_length})"
                        ),
                    )
                return ReferenceOptimum(
                    status=OptStatus.UNKNOWN,
                    nodes=nodes,
                    complete=False,
                    reason=f"{variable!r}: node budget exhausted",
                )
            model[variable] = outcome["value"]
            objective += outcome["cost"]
        status = OptStatus.OPTIMAL if complete else OptStatus.FEASIBLE
        if self.metrics is not None:
            self.metrics.counter("opt.oracle.references").inc()
        return ReferenceOptimum(
            status=status,
            model=model,
            objective=objective,
            complete=complete,
            nodes=nodes,
        )

    def _optimize_variable(
        self,
        variable: str,
        hard: List[ast.Term],
        softs: List[ast.SoftAssertion],
        budget: int,
    ) -> Dict[str, Any]:
        """Min-cost feasible value of one variable, incumbent-pruned."""
        lengths = self._baseline._candidate_lengths(variable, hard)
        fill = self._baseline._fill_alphabet(hard + [s.term for s in softs])
        weighted = [(float(s.weight), s.term) for s in softs]
        best_value: Optional[str] = None
        best_cost = 0.0
        nodes = 0
        for length in lengths:
            for chars in itertools.product(fill, repeat=length):
                nodes += 1
                if nodes > budget:
                    return {
                        "value": best_value,
                        "cost": best_cost,
                        "nodes": nodes,
                        "complete": False,
                    }
                candidate = "".join(chars)
                try:
                    feasible, cost = audit_cost(
                        hard, weighted, {variable: candidate}
                    )
                except TheoryError:
                    continue
                if feasible and (best_value is None or cost < best_cost):
                    best_value, best_cost = candidate, cost
                    if cost == 0.0:
                        return {
                            "value": best_value,
                            "cost": best_cost,
                            "nodes": nodes,
                            "complete": True,
                        }
        return {
            "value": best_value,
            "cost": best_cost,
            "nodes": nodes,
            "complete": True,
        }

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #

    def check(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[ast.SoftAssertion],
        result: OptimizeResult,
        reference: Optional[ReferenceOptimum] = None,
    ) -> OptOracleReport:
        """Audit one optimizer result; runs the reference when not given."""
        if reference is None:
            reference = self.reference_optimize(assertions, soft_assertions)
        report = self.classify(assertions, soft_assertions, result, reference)
        if self.metrics is not None:
            self.metrics.counter("opt.oracle.checks").inc()
            self.metrics.counter(f"opt.oracle.{report.verdict.value}").inc()
        return report

    def classify(
        self,
        assertions: Sequence[ast.Term],
        soft_assertions: Sequence[ast.SoftAssertion],
        result: OptimizeResult,
        reference: ReferenceOptimum,
    ) -> OptOracleReport:
        """Pure classification of an (optimizer, reference) outcome pair."""
        assertions = list(assertions)
        weighted = [(float(s.weight), s.term) for s in soft_assertions]
        status = OptStatus.from_value(result.status)
        ref_objective = reference.objective

        def _report(verdict: OptVerdict, reason: str, cost=None):
            return OptOracleReport(
                verdict=verdict,
                opt_status=status,
                reference_status=reference.status,
                objective=result.objective,
                reference_objective=ref_objective,
                audited_cost=cost,
                reason=reason,
            )

        if status.is_feasible:
            try:
                feasible, cost = audit_cost(assertions, weighted, result.model)
            except TheoryError as exc:
                return _report(
                    OptVerdict.SOUNDNESS_BUG,
                    f"model does not evaluate: {exc}",
                )
            if not feasible:
                return _report(
                    OptVerdict.SOUNDNESS_BUG,
                    "model violates a hard assertion — hard feasibility was "
                    "traded for soft weight",
                    cost,
                )
            if result.objective is None or abs(cost - result.objective) > _EPS:
                return _report(
                    OptVerdict.SOUNDNESS_BUG,
                    f"claimed objective {result.objective!r} but the model "
                    f"re-audits to {cost}",
                    cost,
                )
            if not (result.lower_bound - _EPS <= cost <= result.upper_bound + _EPS):
                return _report(
                    OptVerdict.SOUNDNESS_BUG,
                    f"bounds [{result.lower_bound}, {result.upper_bound}] do "
                    f"not bracket the audited cost {cost}",
                    cost,
                )
            if ref_objective is not None:
                if result.lower_bound > ref_objective + _EPS:
                    return _report(
                        OptVerdict.SOUNDNESS_BUG,
                        f"claimed lower bound {result.lower_bound} exceeds a "
                        f"concrete model's cost {ref_objective}",
                        cost,
                    )
                if cost < ref_objective - _EPS:
                    # The audited model beats the reference "optimum":
                    # the reference's fill alphabet missed a model. Not a
                    # bug on the optimizer's side — but nothing to agree on.
                    return _report(
                        OptVerdict.UNRESOLVED,
                        f"audited cost {cost} beats the reference optimum "
                        f"{ref_objective} (reference alphabet gap)",
                        cost,
                    )
                if status is OptStatus.OPTIMAL:
                    if reference.complete and cost > ref_objective + _EPS:
                        return _report(
                            OptVerdict.SOUNDNESS_BUG,
                            f"claimed optimal at {cost} but the reference "
                            f"found {ref_objective}",
                            cost,
                        )
                    if not reference.complete and cost > ref_objective + _EPS:
                        return _report(
                            OptVerdict.SOUNDNESS_BUG,
                            f"claimed optimal at {cost} but an incomplete "
                            f"reference already found {ref_objective}",
                            cost,
                        )
                    if not reference.complete:
                        return _report(
                            OptVerdict.UNRESOLVED,
                            "optimality unconfirmed: reference enumeration "
                            "was budget-capped",
                            cost,
                        )
                    return _report(
                        OptVerdict.AGREE_OPTIMAL,
                        "optimum matches the exhaustive reference",
                        cost,
                    )
                if abs(cost - ref_objective) <= _EPS:
                    return _report(
                        OptVerdict.AGREE_FEASIBLE,
                        "objective equals the reference optimum "
                        "(no optimality claim made)",
                        cost,
                    )
                return _report(
                    OptVerdict.SUBOPTIMAL,
                    f"anytime gap: {cost} vs reference {ref_objective}",
                    cost,
                )
            if reference.status is OptStatus.INFEASIBLE:
                return _report(
                    OptVerdict.UNRESOLVED,
                    "reference refuted but an audited feasible model exists "
                    "(reference alphabet/length relativity)",
                    cost,
                )
            return _report(
                OptVerdict.UNRESOLVED,
                f"audit passed; reference gave no optimum "
                f"({reference.reason})",
                cost,
            )

        if status is OptStatus.INFEASIBLE:
            if ref_objective is not None:
                return _report(
                    OptVerdict.SOUNDNESS_BUG,
                    f"claimed infeasible but the reference found a model "
                    f"of cost {ref_objective}",
                )
            if reference.status is OptStatus.INFEASIBLE:
                return _report(OptVerdict.AGREE_INFEASIBLE, "both refuted")
            return _report(
                OptVerdict.UNRESOLVED,
                f"refutation unconfirmed (reference: {reference.reason})",
            )

        # Optimizer unknown.
        if ref_objective is not None:
            return _report(
                OptVerdict.COMPLETENESS_MISS,
                f"unknown on an instance with a feasible model of cost "
                f"{ref_objective} ({result.reason})",
            )
        return _report(
            OptVerdict.UNRESOLVED,
            f"both sides indefinite (optimizer: {result.reason}; "
            f"reference: {reference.reason})",
        )


# --------------------------------------------------------------------- #
# the weighted fuzz campaign
# --------------------------------------------------------------------- #


@dataclass
class OptCampaignConfig:
    """Knobs of one weighted-MaxSMT fuzz campaign."""

    instances: int = 100
    seed: int = 0
    ops: Union[str, Sequence[str]] = "all"
    #: Soft assertions drawn per instance.
    soft: int = 3
    #: Fraction of instances with hard-infeasible cores.
    infeasible_ratio: float = 0.1
    min_length: int = 1
    max_length: int = 3
    max_constraints: int = 2
    # Optimizer configuration.
    num_reads: int = 64
    num_sweeps: Optional[int] = None
    max_restarts: int = 4
    penalty_strength: float = 1.0
    exhaustive_bits: int = 16
    deadline_ms: Optional[float] = None
    # Reference bounds.
    reference_max_length: int = 6
    node_budget: int = 500_000
    max_wall_time: Optional[float] = None

    def solve_spec(self) -> SolveSpec:
        """The optimizer's one configuration, budgets included."""
        return SolveSpec(
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=(
                {} if self.num_sweeps is None else {"num_sweeps": self.num_sweeps}
            ),
            penalty_strength=self.penalty_strength,
            opt_max_restarts=self.max_restarts,
            opt_deadline_ms=self.deadline_ms,
            opt_exhaustive_bits=self.exhaustive_bits,
        )

    def resolved_ops(self) -> List[str]:
        if isinstance(self.ops, str):
            if self.ops != "all":
                raise ValueError(
                    f"ops must be 'all' or a sequence of operator names, "
                    f"got {self.ops!r}"
                )
            return list(ALL_OPS)
        return list(self.ops)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "instances": self.instances,
            "seed": self.seed,
            "ops": self.resolved_ops(),
            "soft": self.soft,
            "infeasible_ratio": self.infeasible_ratio,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "max_constraints": self.max_constraints,
            "num_reads": self.num_reads,
            "num_sweeps": self.num_sweeps,
            "max_restarts": self.max_restarts,
            "penalty_strength": self.penalty_strength,
            "exhaustive_bits": self.exhaustive_bits,
        }


_OPT_VERDICT_ORDER = (
    OptVerdict.AGREE_OPTIMAL,
    OptVerdict.AGREE_FEASIBLE,
    OptVerdict.SUBOPTIMAL,
    OptVerdict.AGREE_INFEASIBLE,
    OptVerdict.SOUNDNESS_BUG,
    OptVerdict.COMPLETENESS_MISS,
    OptVerdict.UNRESOLVED,
)


@dataclass
class OptCampaignReport:
    """Aggregated outcome of one weighted campaign."""

    config: OptCampaignConfig
    instances_run: int = 0
    completed: bool = True
    verdicts: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    certificate_checks: int = 0
    certificate_violations: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def soundness_bugs(self) -> int:
        return self.verdicts.get(OptVerdict.SOUNDNESS_BUG.value, 0)

    @property
    def ok(self) -> bool:
        """No soundness bugs and no gap-certificate violations."""
        return self.soundness_bugs == 0 and self.certificate_violations == 0

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON payload (no timings, no cache state)."""
        return {
            "config": self.config.to_dict(),
            "instances_run": self.instances_run,
            "completed": self.completed,
            "verdicts": {
                v.value: self.verdicts.get(v.value, 0)
                for v in _OPT_VERDICT_ORDER
            },
            "coverage": {
                op: self.coverage.get(op, 0) for op in sorted(self.coverage)
            },
            "certificate_checks": self.certificate_checks,
            "certificate_violations": self.certificate_violations,
            "failures": list(self.failures),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def text_report(self) -> str:
        lines = [
            f"opt campaign: {self.instances_run} instances, "
            f"seed={self.config.seed}, soft={self.config.soft}",
            f"  wall time    : {self.wall_time:.2f}s"
            + ("" if self.completed else "  (budget exhausted)"),
            "  verdicts     : "
            + ", ".join(
                f"{v.value}={self.verdicts.get(v.value, 0)}"
                for v in _OPT_VERDICT_ORDER
            ),
            f"  certificates : {self.certificate_checks} checked, "
            f"{self.certificate_violations} violated",
        ]
        cov = ", ".join(
            f"{op}={self.coverage.get(op, 0)}" for op in sorted(self.coverage)
        )
        lines.append(f"  op coverage  : {cov}")
        for failure in self.failures:
            lines.append(
                f"  FAILURE #{failure['index']} [{failure['kind']}]: "
                f"{failure['reason']}"
            )
        lines.append(f"  result       : {'OK' if self.ok else 'FAILING'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"OptCampaignReport({self.instances_run} instances, "
            f"{self.soundness_bugs} soundness bugs, "
            f"{self.certificate_violations} certificate violations)"
        )


def run_opt_campaign(
    config: Optional[OptCampaignConfig] = None,
    *,
    metrics: Optional[MetricsRegistry] = None,
) -> OptCampaignReport:
    """Run one seeded weighted-MaxSMT fuzz campaign."""
    config = config if config is not None else OptCampaignConfig()
    metrics = metrics if metrics is not None else MetricsRegistry()
    optimizer = config.solve_spec().optimizer(metrics=metrics)
    oracle = OptimalityOracle(
        max_length=config.reference_max_length,
        node_budget=config.node_budget,
        metrics=metrics,
    )
    generator = InstanceGenerator(
        min_length=config.min_length,
        max_length=config.max_length,
        max_constraints=config.max_constraints,
        seed=config.seed,
        ops=config.resolved_ops(),
        soft=config.soft,
    )
    coin = random.Random(config.seed ^ 0x5EED)
    instances: List[GeneratedInstance] = []
    for _ in range(config.instances):
        if coin.random() < config.infeasible_ratio:
            instances.append(generator.generate_unsat())
        else:
            instances.append(generator.generate())

    report = OptCampaignReport(config=config)
    timer = Timer().start()
    for index, instance in enumerate(instances):
        if (
            config.max_wall_time is not None
            and timer.elapsed > config.max_wall_time
        ):
            report.completed = False
            break
        _run_opt_one(optimizer, oracle, report, index, instance)
        metrics.counter("opt.campaign.instances").inc()
    report.wall_time = timer.stop()
    metrics.counter("opt.campaign.runs").inc()
    metrics.observe("opt.campaign.wall", report.wall_time)
    if not report.ok:
        metrics.counter("opt.campaign.failing").inc()
    return report


def _run_opt_one(
    optimizer: AnytimeOptimizer,
    oracle: OptimalityOracle,
    report: OptCampaignReport,
    index: int,
    instance: GeneratedInstance,
) -> None:
    result = optimizer.optimize(
        list(instance.assertions), list(instance.soft_assertions)
    )
    oracle_report = oracle.check(
        instance.assertions, instance.soft_assertions, result
    )
    report.instances_run += 1
    verdict = oracle_report.verdict
    report.verdicts[verdict.value] = report.verdicts.get(verdict.value, 0) + 1
    for op in instance.ops:
        report.coverage[op] = report.coverage.get(op, 0) + 1

    if result.certificate:
        report.certificate_checks += 1
        violation = certificate_violation(result.certificate)
        if violation is not None:
            report.certificate_violations += 1
            report.failures.append(
                {
                    "index": index,
                    "kind": "gap_certificate",
                    "ops": list(instance.ops),
                    "reason": violation,
                    "script": instance.script,
                }
            )
    if verdict in (OptVerdict.SOUNDNESS_BUG, OptVerdict.COMPLETENESS_MISS):
        report.failures.append(
            {
                "index": index,
                "kind": verdict.value,
                "ops": list(instance.ops),
                "reason": oracle_report.reason,
                "script": instance.script,
            }
        )


# --------------------------------------------------------------------- #
# weighted corpus replay
# --------------------------------------------------------------------- #

_EXPECT_RE = re.compile(r"^;\s*expect:\s*(\S+)\s*$", re.MULTILINE)
_EXPECT_OBJECTIVE_RE = re.compile(
    r"^;\s*expect-objective:\s*(\S+)\s*$", re.MULTILINE
)


def replay_opt_corpus(
    directory: str,
    optimizer: Optional[AnytimeOptimizer] = None,
    oracle: Optional[OptimalityOracle] = None,
) -> Dict[str, Any]:
    """Replay every weighted ``.smt2`` case under *directory*.

    Case headers: ``; expect: optimal|feasible|infeasible|unknown`` pins
    the expected status class, ``; expect-objective: <number>`` the known
    optimum. A replay **fails** only on soundness bugs or on a claimed
    optimum differing from a pinned ``expect-objective`` — an anytime
    result landing above a pinned optimum without claiming optimality is
    recorded but tolerated, exactly like decision-corpus completeness
    misses.
    """
    optimizer = (
        optimizer if optimizer is not None else AnytimeOptimizer(seed=0)
    )
    oracle = oracle if oracle is not None else OptimalityOracle()
    cases: List[Dict[str, Any]] = []
    failures = 0
    if os.path.isdir(directory):
        entries = sorted(
            e for e in os.listdir(directory) if e.endswith(".smt2")
        )
    else:
        entries = []
    for entry in entries:
        path = os.path.join(directory, entry)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        script = parse_script(text)
        expected_status = None
        match = _EXPECT_RE.search(text)
        if match:
            expected_status = OptStatus.from_value(match.group(1))
        expected_objective = None
        match = _EXPECT_OBJECTIVE_RE.search(text)
        if match:
            expected_objective = float(match.group(1))
        result = optimizer.optimize(
            list(script.assertions), list(script.soft_assertions)
        )
        oracle_report = oracle.check(
            script.assertions, script.soft_assertions, result
        )
        case_ok = not oracle_report.verdict.is_bug
        reason = oracle_report.reason
        if (
            expected_objective is not None
            and result.status is OptStatus.OPTIMAL
            and result.objective is not None
            and abs(result.objective - expected_objective) > _EPS
        ):
            case_ok = False
            reason = (
                f"claimed optimum {result.objective} != pinned "
                f"expect-objective {expected_objective}"
            )
        if (
            expected_status is OptStatus.INFEASIBLE
            and OptStatus.from_value(result.status).is_feasible
        ):
            case_ok = False
            reason = "feasible result on a case pinned infeasible"
        if not case_ok:
            failures += 1
        cases.append(
            {
                "name": entry[: -len(".smt2")],
                "expected": (
                    expected_status.value if expected_status else None
                ),
                "expected_objective": expected_objective,
                "status": OptStatus.from_value(result.status).value,
                "objective": result.objective,
                "verdict": oracle_report.verdict.value,
                "ok": case_ok,
                "reason": reason if not case_ok else "",
            }
        )
    return {
        "total": len(cases),
        "failures": failures,
        "cases": cases,
        "ok": failures == 0,
    }
