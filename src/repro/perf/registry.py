"""Declarative benchmark registry for the perf harness.

A :class:`BenchmarkSpec` is a *description* of one tracked workload —
which kind of pipeline it exercises, over which §4 operator family, at
which length / read count, under which fixed seed — never a closure. The
runner (:mod:`repro.perf.runner`) materializes specs into workloads, so
two ``python -m repro.perf run`` invocations rebuild byte-identical
instances and the committed ``BENCH_*.json`` baselines stay comparable
across machines and PRs.

Suites map 1:1 onto the committed baseline files:

* ``core``    → ``BENCH_core.json``    — end-to-end SMT solves
  (compile → build → anneal → decode) over the paper's §4.1–§4.12
  operator families, via :class:`~repro.smt.solver.QuantumSMTSolver` and
  :class:`~repro.core.solver.StringQuboSolver`;
* ``sparse``  → ``BENCH_sparse.json``  — the raw colored annealing
  kernel on CSR-coupled palindrome QUBOs;
* ``service`` → ``BENCH_service.json`` — the batch service layer
  (compile cache cold/warm, serial/threaded executors);
* ``incremental`` → ``BENCH_incremental.json`` — push/pop session
  replay and the warm-vs-cold re-check pair backing the incremental
  architecture's headline claim (warm re-check after a single-assert
  change beats the from-scratch solve on the same instance);
* ``refine`` → ``BENCH_refine.json`` — the CEGAR refinement loop
  (:class:`~repro.smt.refine.RefinementEngine`) vs the direct pipeline
  on the same domain-prunable instances; the refined specs' fingerprints
  record per-anneal QUBO variable counts and pruned-bit totals, so the
  strictly-fewer-variables claim is baseline-checked, not just asserted;
* ``opt`` → ``BENCH_opt.json`` — weighted MaxSMT over a pinned Closest
  String instance through :class:`~repro.opt.driver.AnytimeOptimizer`:
  a single direct solve vs the anytime driver at the **same total read
  budget**, plus the exhaustive-finish path on a small instance. The
  fingerprints pin objective, bounds and status, so the committed
  baseline certifies the anytime driver matches-or-beats the direct
  solve's audited objective at equal budget.

Workload kinds understood by the runner:

* ``smt``    — generate ``instances`` scripts with
  :class:`~repro.smt.generator.InstanceGenerator` (fixed ``gen_seed``,
  explicit ``ops``), then ``check_sat`` each with a metrics-wired
  :class:`QuantumSMTSolver`;
* ``solve``  — one :mod:`repro.core` formulation driven by
  :class:`StringQuboSolver`;
* ``kernel`` — one :class:`SimulatedAnnealingSampler` call on a prebuilt
  palindrome model;
* ``batch``  — one :class:`~repro.service.batch.BatchSolver` batch over a
  script workload, cold or warm compile cache;
* ``session`` — incremental :class:`~repro.smt.session.SolverSession`
  workloads (``mode`` selects replay / cold_recheck / warm_recheck);
* ``refine`` — one SMT-LIB script solved end to end with
  :class:`QuantumSMTSolver` under an explicit ``strategy``
  (direct or refine); refined runs fingerprint the
  :class:`~repro.smt.refine.RefineStats` counters;
* ``opt`` — one weighted Closest String instance (hard length pin plus
  per-reference/per-position ``assert-soft`` blocks) optimized with
  :class:`~repro.opt.driver.AnytimeOptimizer` under explicit restart /
  read / exhaustive-bits budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

__all__ = [
    "SUITES",
    "BenchmarkSpec",
    "register",
    "get_spec",
    "all_specs",
    "suite_specs",
    "baseline_filename",
]

#: The tracked suites, one committed baseline file each.
SUITES: Tuple[str, ...] = (
    "core", "sparse", "service", "tile", "incremental", "refine", "opt",
)

#: Workload kinds the runner knows how to build.
KINDS: Tuple[str, ...] = (
    "smt", "solve", "kernel", "batch", "session", "refine", "opt",
)


def baseline_filename(suite: str) -> str:
    """The committed baseline file for *suite* (``BENCH_<suite>.json``)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {list(SUITES)}")
    return f"BENCH_{suite}.json"


@dataclass(frozen=True)
class BenchmarkSpec:
    """One tracked benchmark: a named, fully-parameterized workload.

    Parameters
    ----------
    name:
        Unique id, also the key in the baseline file (convention:
        ``<family>-<scale>``; e.g. ``palindrome-n12``).
    suite:
        One of :data:`SUITES`.
    kind:
        One of :data:`KINDS`; selects the workload builder.
    params:
        Keyword parameters of the workload builder. Must be
        JSON-serializable — they are echoed into the baseline file so a
        drifted spec is visible in the diff.
    description:
        One line for ``python -m repro.perf list``.
    tolerance:
        Relative tolerance band of the regression gate for this benchmark
        (0.5 = alarm beyond 1.5x the baseline median). Scaled up by the
        CI smoke job via ``--tolerance-scale``.
    """

    name: str
    suite: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    description: str = ""
    tolerance: float = 0.5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.suite not in SUITES:
            raise ValueError(
                f"unknown suite {self.suite!r}; choose from {list(SUITES)}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown kind {self.kind!r}; choose from {list(KINDS)}"
            )
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        # Freeze params against accidental mutation after registration.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def baseline_file(self) -> str:
        return baseline_filename(self.suite)


_REGISTRY: Dict[str, BenchmarkSpec] = {}


def register(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Add *spec* to the registry (unique names enforced)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> BenchmarkSpec:
    """Look one spec up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown benchmark {name!r}; registered: {known}") from None


def all_specs() -> List[BenchmarkSpec]:
    """Every registered spec, in registration order."""
    return list(_REGISTRY.values())


def suite_specs(suite: str) -> List[BenchmarkSpec]:
    """The specs of one suite, in registration order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {list(SUITES)}")
    return [spec for spec in _REGISTRY.values() if spec.suite == suite]


# --------------------------------------------------------------------- #
# the tracked workloads
# --------------------------------------------------------------------- #
# Budgets are deliberately small (one repeat ≈ 0.1–2 s): the harness
# tracks *relative* drift of every pipeline stage, not absolute records,
# and CI runs the whole registry at --repeats 2.

# core — end-to-end solves over the §4 operator families ----------------

register(BenchmarkSpec(
    name="smt-legacy-mix",
    suite="core",
    kind="smt",
    params={
        "ops": None, "instances": 4, "min_length": 3, "max_length": 6,
        "max_constraints": 3, "gen_seed": 7, "solver_seed": 2025,
        "num_reads": 32, "num_sweeps": 300,
    },
    description="4 generated instances, historical five-op mix, n<=6",
))

register(BenchmarkSpec(
    name="smt-ops-all",
    suite="core",
    kind="smt",
    params={
        "ops": "all", "instances": 6, "min_length": 3, "max_length": 4,
        "max_constraints": 2, "gen_seed": 11, "solver_seed": 2025,
        "num_reads": 48, "num_sweeps": 300,
    },
    description="6 generated instances across all 15 §4.1–§4.12 ops, n<=4",
))

register(BenchmarkSpec(
    name="equality-n16",
    suite="core",
    kind="solve",
    params={
        "formulation": "equality", "target": "quantum strings!",
        "num_reads": 48, "num_sweeps": 400, "seed": 116,
    },
    description="§4.1 equality generation at n=16 (112 qubits, diagonal QUBO)",
))

register(BenchmarkSpec(
    name="palindrome-n12",
    suite="core",
    kind="solve",
    params={
        "formulation": "palindrome", "length": 12,
        "num_reads": 48, "num_sweeps": 400, "seed": 212,
    },
    description="§4.10-style palindrome generation at n=12 (coupled QUBO)",
))

register(BenchmarkSpec(
    name="regex-abcd-n8",
    suite="core",
    kind="solve",
    params={
        "formulation": "regex", "pattern": "a[bc]+d", "length": 8,
        "num_reads": 32, "num_sweeps": 300, "seed": 8,
    },
    description="§4.11 regex membership a[bc]+d at n=8",
))

# sparse — raw kernel throughput on CSR couplings -----------------------

register(BenchmarkSpec(
    name="kernel-sparse-n32",
    suite="sparse",
    kind="kernel",
    params={"length": 32, "num_reads": 64, "num_sweeps": 100, "seed": 2025},
    description="CSR coupling kernel, palindrome n=32 (224 vars)",
))

register(BenchmarkSpec(
    name="kernel-sparse-n64",
    suite="sparse",
    kind="kernel",
    params={"length": 64, "num_reads": 64, "num_sweeps": 80, "seed": 2025},
    description="CSR coupling kernel, palindrome n=64 (448 vars)",
))

# service — batch layer: compile cache and worker pool ------------------

_BATCH_WORDS = ("hi", "ok", "go", "no", "up")

register(BenchmarkSpec(
    name="batch-cold-serial",
    suite="service",
    kind="batch",
    params={
        "words": _BATCH_WORDS, "repeats": 2, "executor": "serial",
        "num_workers": 1, "warm": False, "num_reads": 32,
        "num_sweeps": 300, "seed": 2025,
    },
    description="10-item batch, serial executor, cold compile cache",
))

register(BenchmarkSpec(
    name="batch-warm-serial",
    suite="service",
    kind="batch",
    params={
        "words": _BATCH_WORDS, "repeats": 2, "executor": "serial",
        "num_workers": 1, "warm": True, "num_reads": 32,
        "num_sweeps": 300, "seed": 2025,
    },
    description="10-item batch, serial executor, warm compile cache",
))

register(BenchmarkSpec(
    name="batch-cold-thread4",
    suite="service",
    kind="batch",
    params={
        "words": _BATCH_WORDS, "repeats": 2, "executor": "thread",
        "num_workers": 4, "warm": False, "num_reads": 32,
        "num_sweeps": 300, "seed": 2025,
    },
    description="10-item batch, 4-thread executor, cold compile cache",
))

# tile — block-diagonal fused batching vs the per-item reference --------
# Same 16 queued small instances and total read budget either way; the
# fused spec solves them as one block-diagonal kernel call per tile.

_TILE_WORDS = ("red", "blue", "lime", "cyan", "gold", "teal", "pink", "onyx")

register(BenchmarkSpec(
    name="tile-serial-16",
    suite="tile",
    kind="batch",
    params={
        "words": _TILE_WORDS, "repeats": 2, "executor": "serial",
        "num_workers": 1, "warm": True, "num_reads": 32,
        "num_sweeps": 200, "seed": 2025,
    },
    description="16-item batch, per-item serial solves (fusion reference)",
))

register(BenchmarkSpec(
    name="tile-fused-16",
    suite="tile",
    kind="batch",
    params={
        "words": _TILE_WORDS, "repeats": 2, "executor": "fused",
        "num_workers": 1, "warm": True, "num_reads": 32,
        "num_sweeps": 200, "seed": 2025, "tile_max": 16,
    },
    description="16-item batch fused block-diagonally (one kernel call/tile)",
))

# incremental — push/pop sessions: replay + warm-vs-cold re-check -------
# The *-recheck pair shares one instance (base equality + one extra
# length assert): the cold spec compiles and anneals base+extra from
# scratch every repeat; the warm spec answers the identical state through
# a primed session (re-push memo hit), which is the incremental
# architecture's fast path. The gate claim is warm ≥ 3× faster than cold.

_RECHECK_INSTANCE = {
    "base": '(declare-const x String)(assert (= x "gold"))',
    "extra": '(assert (= (str.len x) 4))',
    "seed": 2025, "num_reads": 48, "num_sweeps": 400,
}

register(BenchmarkSpec(
    name="incremental",
    suite="incremental",
    kind="session",
    params={
        "mode": "replay", "instances": 3, "queries": 4,
        "min_length": 3, "max_length": 4, "max_constraints": 2,
        "gen_seed": 17, "solver_seed": 2025,
        "num_reads": 32, "num_sweeps": 300,
    },
    description="replay 3 generated push/pop sessions (4 queries each) "
    "through SolverSession",
))

register(BenchmarkSpec(
    name="incremental-cold-recheck",
    suite="incremental",
    kind="session",
    params=dict(_RECHECK_INSTANCE, mode="cold_recheck"),
    description="from-scratch compile+anneal of base+extra after a "
    "single-assert change",
))

register(BenchmarkSpec(
    name="incremental-warm-recheck",
    suite="incremental",
    kind="session",
    params=dict(_RECHECK_INSTANCE, mode="warm_recheck"),
    description="session re-check of the same change "
    "(push/assert/check/pop on warm caches)",
    tolerance=3.0,
))

# refine — CEGAR loop vs the direct pipeline on prunable instances ------
# Each pair shares one script and read budget; the *-cegar spec solves it
# with strategy="refine", whose fingerprint records the per-anneal QUBO
# variable counts and pruned-bit totals (the strictly-fewer-variables
# claim lives in the committed baseline, not in prose).

_REFINE_PIN = {
    "script": '(declare-const x String)'
    '(assert (= (str.len x) 6))'
    '(assert (str.prefixof "qua" x))'
    '(assert (str.suffixof "um" x))'
    '(check-sat)',
    "seed": 2025, "num_reads": 48, "num_sweeps": 300,
}

_REFINE_CHAIN = {
    "script": '(declare-const y String)'
    '(assert (= y "spin"))'
    '(assert (not (= y "spun")))'
    '(check-sat)',
    "seed": 2025, "num_reads": 48, "num_sweeps": 300,
}

register(BenchmarkSpec(
    name="refine-pin-direct",
    suite="refine",
    kind="refine",
    params=dict(_REFINE_PIN, strategy="direct"),
    description="prefix+suffix pinned n=6 instance, direct pipeline "
    "(42-var QUBO, refinement reference)",
))

register(BenchmarkSpec(
    name="refine-pin-cegar",
    suite="refine",
    kind="refine",
    params=dict(_REFINE_PIN, strategy="refine", refine_max_rounds=4),
    description="prefix+suffix pinned n=6 instance through the CEGAR "
    "loop (35 bits clamped, 7-var reduced QUBO)",
))

register(BenchmarkSpec(
    name="refine-chain-direct",
    suite="refine",
    kind="refine",
    params=dict(_REFINE_CHAIN, strategy="direct"),
    description="equality + disequality n=4 instance, direct pipeline",
))

register(BenchmarkSpec(
    name="refine-chain-cegar",
    suite="refine",
    kind="refine",
    params=dict(_REFINE_CHAIN, strategy="refine", refine_max_rounds=4),
    description="equality + disequality n=4 instance through the CEGAR "
    "loop (string prefix fully determined by propagation)",
))

# opt — weighted MaxSMT: anytime driver vs direct solve at equal budget --
# One pinned K=3, L=4 Closest String instance (true optimum 2: majority
# vote "male" violates one soft per contested position). The direct spec
# spends its whole read budget in one cold pass; the anytime spec splits
# the SAME total budget (4 x 16 = 64 reads) across warm restarts. Both
# specs' fingerprints pin the audited objective, so the committed
# baseline is the matches-or-beats-at-equal-budget certificate. The
# exhaustive spec pins the proven-optimal finish on a 14-bit instance.

_OPT_REFS = ("kale", "male", "mole")

register(BenchmarkSpec(
    name="opt-closest-direct",
    suite="opt",
    kind="opt",
    params={
        "references": _OPT_REFS, "max_restarts": 1, "num_reads": 64,
        "num_sweeps": 300, "seed": 2025, "exhaustive_bits": 0,
    },
    description="K=3 L=4 Closest String MaxSMT, one direct solve "
    "(64 reads, annealed 28-var weighted QUBO)",
))

register(BenchmarkSpec(
    name="opt-closest-anytime",
    suite="opt",
    kind="opt",
    params={
        "references": _OPT_REFS, "max_restarts": 4, "num_reads": 16,
        "num_sweeps": 300, "seed": 2025, "exhaustive_bits": 0,
    },
    description="same instance through the anytime driver "
    "(4 warm restarts x 16 reads = the direct spec's budget)",
))

register(BenchmarkSpec(
    name="opt-closest-exhaustive",
    suite="opt",
    kind="opt",
    params={
        "references": ("hi", "ho", "my"), "max_restarts": 1,
        "num_reads": 16, "num_sweeps": 100, "seed": 2025,
        "exhaustive_bits": 16,
    },
    description="K=3 L=2 Closest String finished exhaustively "
    "(14-bit variable, status proven optimal)",
))
