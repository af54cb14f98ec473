"""Seeded differential fuzz campaigns over the instance generator.

A campaign draws random planted-witness instances from
:class:`repro.smt.InstanceGenerator` (every §4.1–§4.12 operator family),
pushes each through the :class:`~repro.verify.oracle.DifferentialOracle`,
tracks per-operator coverage, shrinks every failure to a minimal repro,
and emits two reports:

* :meth:`CampaignReport.to_json` — **deterministic** JSON: at a fixed
  seed the bytes are identical run-to-run and, critically, identical
  whether the compile cache is cold or warm (cache state and wall-clock
  timings are deliberately excluded; they live in the text report).
* :meth:`CampaignReport.text_report` — a human summary with timings and
  cache statistics.

Budgets: ``instances`` bounds the campaign size; ``max_wall_time``
(seconds) stops a serial campaign early (the JSON then records
``"completed": false`` — determinism is only promised for completed
campaigns). With ``num_workers > 1`` the quantum side is precomputed by
:class:`repro.service.batch.BatchSolver` over a thread pool; because
every item reuses the same base seed, the parallel path classifies
exactly like the serial one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.service.cache import CompileCache
from repro.service.metrics import MetricsRegistry
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.utils.timing import Timer
from repro.smt.generator import ALL_OPS, GeneratedInstance, InstanceGenerator
from repro.smt.status import SolveStatus
from repro.verify.metamorphic import (
    RELATIONS,
    MetamorphicViolation,
    check_relation,
)
from repro.verify.oracle import DifferentialOracle, OracleReport, Verdict
from repro.verify.shrink import shrink

__all__ = ["CampaignConfig", "CampaignReport", "FailureRecord", "run_campaign"]


@dataclass
class CampaignConfig:
    """Knobs of one fuzz campaign (all defaulted, all JSON-serializable)."""

    #: Instance budget.
    instances: int = 200
    #: Master seed: drives the generator, the sat/unsat coin and the
    #: quantum solver. Two campaigns with equal configs produce
    #: byte-identical JSON reports.
    seed: int = 0
    #: Operator families to draw from ("all" or a subset of
    #: :data:`repro.smt.generator.ALL_OPS`).
    ops: Union[str, Sequence[str]] = "all"
    #: Fraction of instances planted unsatisfiable.
    unsat_ratio: float = 0.15
    # Generator shape.
    min_length: int = 1
    max_length: int = 4
    max_constraints: int = 3
    # Quantum-solver configuration.
    num_reads: int = 64
    max_attempts: int = 3
    num_sweeps: Optional[int] = None
    penalty_strength: float = 1.0
    #: Quantum-side solve strategy: "direct" or "refine" (the CEGAR loop).
    strategy: str = "direct"
    #: Refinement round budget per check (strategy="refine" only).
    refine_max_rounds: int = 4
    #: Reference engine: "classical" or "dpllt".
    reference: str = "classical"
    reference_max_length: int = 12
    #: Optional wall-clock budget in seconds (serial mode only).
    max_wall_time: Optional[float] = None
    #: Delta-debug failures into minimal repro scripts.
    shrink_failures: bool = True
    shrink_budget: int = 300
    #: Also exercise the metamorphic relations on satisfiable instances.
    metamorphic: bool = False
    #: Directory to write shrunk failures into as ``.smt2`` corpus cases.
    corpus_dir: Optional[str] = None
    #: ``> 1`` precomputes quantum results with a BatchSolver thread pool.
    num_workers: int = 1

    def solve_spec(self) -> SolveSpec:
        """The quantum side's one solver configuration."""
        return SolveSpec(
            num_reads=self.num_reads,
            seed=self.seed,
            sampler_params=(
                {} if self.num_sweeps is None else {"num_sweeps": self.num_sweeps}
            ),
            penalty_strength=self.penalty_strength,
            policy=RetryPolicy(max_attempts=self.max_attempts),
            strategy=self.strategy,
            refine_max_rounds=self.refine_max_rounds,
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
        """Deterministic config echo for the JSON report."""
        return {
            "instances": self.instances,
            "seed": self.seed,
            "ops": self.resolved_ops(),
            "unsat_ratio": self.unsat_ratio,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "max_constraints": self.max_constraints,
            "num_reads": self.num_reads,
            "max_attempts": self.max_attempts,
            "num_sweeps": self.num_sweeps,
            "penalty_strength": self.penalty_strength,
            "strategy": self.strategy,
            "refine_max_rounds": self.refine_max_rounds,
            "reference": self.reference,
            "shrink_failures": self.shrink_failures,
            "metamorphic": self.metamorphic,
        }


@dataclass
class FailureRecord:
    """One campaign failure (oracle verdict or metamorphic violation)."""

    index: int
    kind: str  # verdict value or "metamorphic:<relation>"
    ops: List[str]
    reason: str
    script: str
    original_assertions: int = 0
    shrunk_script: str = ""
    shrunk_assertions: int = 0
    shrink_evaluations: int = 0
    corpus_file: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "ops": list(self.ops),
            "reason": self.reason,
            "script": self.script,
            "original_assertions": self.original_assertions,
            "shrunk_script": self.shrunk_script,
            "shrunk_assertions": self.shrunk_assertions,
            "shrink_evaluations": self.shrink_evaluations,
            "corpus_file": self.corpus_file,
        }


_VERDICT_ORDER = (
    Verdict.AGREE_SAT,
    Verdict.AGREE_UNSAT,
    Verdict.SOUNDNESS_BUG,
    Verdict.COMPLETENESS_MISS,
    Verdict.UNRESOLVED,
)


@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign."""

    config: CampaignConfig
    instances_run: int = 0
    completed: bool = True
    verdicts: Dict[str, int] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    metamorphic_checks: int = 0
    metamorphic_violations: int = 0
    failures: List[FailureRecord] = field(default_factory=list)
    wall_time: float = 0.0
    cache_hits: int = 0

    @property
    def soundness_bugs(self) -> int:
        return self.verdicts.get(Verdict.SOUNDNESS_BUG.value, 0)

    @property
    def completeness_misses(self) -> int:
        return self.verdicts.get(Verdict.COMPLETENESS_MISS.value, 0)

    @property
    def ok(self) -> bool:
        """No soundness bugs and no metamorphic violations."""
        return self.soundness_bugs == 0 and self.metamorphic_violations == 0

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON payload.

        Wall-clock timings and cache statistics are *excluded* on purpose:
        the contract is that this dictionary is byte-identical at a fixed
        seed regardless of cache temperature or machine speed.
        """
        return {
            "config": self.config.to_dict(),
            "instances_run": self.instances_run,
            "completed": self.completed,
            "verdicts": {
                v.value: self.verdicts.get(v.value, 0) for v in _VERDICT_ORDER
            },
            "coverage": {op: self.coverage.get(op, 0)
                         for op in sorted(self.coverage)},
            "metamorphic_checks": self.metamorphic_checks,
            "metamorphic_violations": self.metamorphic_violations,
            "failures": [f.to_dict() for f in self.failures],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def text_report(self) -> str:
        """Human-oriented summary (includes timings and cache stats)."""
        lines = [
            f"campaign: {self.instances_run} instances, seed={self.config.seed}, "
            f"ops={len(self.config.resolved_ops())}, "
            f"reference={self.config.reference}",
            f"  wall time     : {self.wall_time:.2f}s"
            + ("" if self.completed else "  (budget exhausted)"),
            f"  cache hits    : {self.cache_hits}",
            "  verdicts      : "
            + ", ".join(
                f"{v.value}={self.verdicts.get(v.value, 0)}"
                for v in _VERDICT_ORDER
            ),
        ]
        if self.metamorphic_checks:
            lines.append(
                f"  metamorphic   : {self.metamorphic_checks} checks, "
                f"{self.metamorphic_violations} violations"
            )
        cov = ", ".join(
            f"{op}={self.coverage.get(op, 0)}" for op in sorted(self.coverage)
        )
        lines.append(f"  op coverage   : {cov}")
        for failure in self.failures:
            shrunk = (
                f"shrunk {failure.original_assertions}->"
                f"{failure.shrunk_assertions} assertions"
                if failure.shrunk_script
                else "not shrunk"
            )
            lines.append(
                f"  FAILURE #{failure.index} [{failure.kind}] {shrunk}: "
                f"{failure.reason}"
            )
            if failure.corpus_file:
                lines.append(f"    corpus: {failure.corpus_file}")
        lines.append(f"  result        : {'OK' if self.ok else 'FAILING'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CampaignReport({self.instances_run} instances, "
            f"{self.soundness_bugs} soundness bugs, "
            f"{self.completeness_misses} completeness misses)"
        )


# --------------------------------------------------------------------- #
# campaign driver
# --------------------------------------------------------------------- #


def run_campaign(
    config: Optional[CampaignConfig] = None,
    *,
    cache: Optional[CompileCache] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> CampaignReport:
    """Run one seeded differential campaign and return its report."""
    config = config if config is not None else CampaignConfig()
    metrics = metrics if metrics is not None else MetricsRegistry()
    cache = cache if cache is not None else CompileCache(maxsize=512)

    oracle = DifferentialOracle(
        config.solve_spec(),
        reference=config.reference,
        max_length=config.reference_max_length,
        cache=cache,
        metrics=metrics,
    )

    instances = _draw_instances(config)
    precomputed = (
        _precompute_quantum(oracle, instances, config.num_workers)
        if config.num_workers > 1
        else None
    )

    report = CampaignReport(config=config)
    timer = Timer().start()
    for index, instance in enumerate(instances):
        if (
            config.max_wall_time is not None
            and timer.elapsed > config.max_wall_time
        ):
            report.completed = False
            break
        _run_one(config, oracle, report, index, instance,
                 None if precomputed is None else precomputed[index])
        metrics.counter("campaign.instances").inc()
    report.wall_time = timer.stop()
    report.cache_hits = cache.stats.hits
    metrics.counter("campaign.runs").inc()
    metrics.observe("campaign.wall", report.wall_time)
    if not report.ok:
        metrics.counter("campaign.failing").inc()
    return report


def _draw_instances(config: CampaignConfig) -> List[GeneratedInstance]:
    """Deterministically draw the campaign's instance list."""
    generator = InstanceGenerator(
        min_length=config.min_length,
        max_length=config.max_length,
        max_constraints=config.max_constraints,
        seed=config.seed,
        ops=config.resolved_ops(),
    )
    coin = random.Random(config.seed ^ 0x5EED)
    instances: List[GeneratedInstance] = []
    for _ in range(config.instances):
        if coin.random() < config.unsat_ratio:
            instances.append(generator.generate_unsat())
        else:
            instances.append(generator.generate())
    return instances


def _precompute_quantum(
    oracle: DifferentialOracle,
    instances: Sequence[GeneratedInstance],
    num_workers: int,
):
    """Quantum-solve every instance up front on a BatchSolver pool that
    shares the oracle's spec, cache and metrics."""
    from repro.service.batch import BatchSolver

    batch = BatchSolver(
        cache=oracle.cache, metrics=oracle.metrics, num_workers=num_workers
    )
    batch.spec = oracle.spec
    batch_report = batch.solve_batch([inst.assertions for inst in instances])
    return [item.result for item in batch_report.items]


def _run_one(
    config: CampaignConfig,
    oracle: DifferentialOracle,
    report: CampaignReport,
    index: int,
    instance: GeneratedInstance,
    quantum_result,
) -> None:
    witness = dict(instance.witness) if instance.satisfiable else None
    expected = SolveStatus.SAT if instance.satisfiable else SolveStatus.UNSAT
    oracle_report = oracle.check(
        instance.assertions,
        witness=witness,
        expected=expected,
        quantum_result=quantum_result,
    )
    report.instances_run += 1
    verdict = oracle_report.verdict
    report.verdicts[verdict.value] = report.verdicts.get(verdict.value, 0) + 1
    for op in instance.ops:
        report.coverage[op] = report.coverage.get(op, 0) + 1

    if verdict in (Verdict.SOUNDNESS_BUG, Verdict.COMPLETENESS_MISS):
        report.failures.append(
            _record_failure(config, oracle, index, instance, oracle_report)
        )

    if config.metamorphic and instance.satisfiable:
        for relation in RELATIONS:
            transformed = relation.apply(instance.assertions)
            if transformed is None:
                continue
            report.metamorphic_checks += 1
            try:
                check_relation(relation, instance.assertions, instance.witness)
            except MetamorphicViolation as exc:
                report.metamorphic_violations += 1
                report.failures.append(
                    FailureRecord(
                        index=index,
                        kind=f"metamorphic:{relation.name}",
                        ops=list(instance.ops),
                        reason=str(exc),
                        script=instance.script,
                        original_assertions=len(instance.assertions),
                    )
                )


def _record_failure(
    config: CampaignConfig,
    oracle: DifferentialOracle,
    index: int,
    instance: GeneratedInstance,
    oracle_report: OracleReport,
) -> FailureRecord:
    record = FailureRecord(
        index=index,
        kind=oracle_report.verdict.value,
        ops=list(instance.ops),
        reason=oracle_report.reason,
        script=instance.script,
        original_assertions=len(instance.assertions),
    )
    if not config.shrink_failures:
        return record

    witness = dict(instance.witness) if instance.satisfiable else None
    target = oracle_report.verdict

    def still_fails(candidate: List[ast.Term]) -> bool:
        return oracle.check(candidate, witness=witness).verdict is target

    try:
        result = shrink(
            instance.assertions,
            still_fails,
            max_evaluations=config.shrink_budget,
        )
    except ValueError:
        # The failure did not reproduce on a re-run (annealing flakiness
        # outside the fixed-seed path); keep the unshrunk record.
        return record
    record.shrunk_script = result.script
    record.shrunk_assertions = len(result.assertions)
    record.shrink_evaluations = result.evaluations
    if config.corpus_dir:
        from repro.verify.corpus import save_case

        expected = (
            SolveStatus.SAT
            if target is Verdict.COMPLETENESS_MISS
            else SolveStatus.UNKNOWN
        )
        name = f"shrunk-{config.seed:04d}-{index:04d}-{target.value}"
        path = save_case(
            config.corpus_dir,
            name,
            result.assertions,
            expected=expected,
            comment=(
                f"shrunk from campaign seed={config.seed} instance #{index}: "
                f"{oracle_report.reason}"
            ),
        )
        record.corpus_file = path.rsplit("/", 1)[-1]
    return record
