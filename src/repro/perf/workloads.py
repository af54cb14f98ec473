"""Materialize :class:`~repro.perf.registry.BenchmarkSpec` into workloads.

A workload separates the three things a tracked benchmark must keep
apart:

* **construction** (untimed, done once) — generate instances, build
  models, prime caches;
* **one timed repeat** (:meth:`Workload.run`) — executes the pipeline
  under a caller-supplied :class:`~repro.service.metrics.MetricsRegistry`
  so per-stage (compile/build/anneal/decode) attribution rides along;
* **the deterministic fingerprint** — ``run`` returns a JSON-serializable
  dict of *workload results* (statuses, models, outputs, rounded
  energies, state digests) that must be identical across repeats,
  invocations and machines at the spec's fixed seeds. Only timing fields
  may differ between two runs; the runner and the baseline comparator
  both enforce this.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List

from repro.perf.registry import BenchmarkSpec
from repro.service.metrics import MetricsRegistry

__all__ = [
    "Workload", "build_workload", "closest_string_script", "make_formulation",
    "round_trip_digest",
]

#: Decimal places kept when embedding float energies in fingerprints —
#: coarse enough to absorb BLAS/SIMD summation-order noise across
#: machines, fine enough to catch any real decode/energy change.
_ENERGY_DECIMALS = 6


def round_trip_digest(*chunks: str) -> str:
    """A short stable digest of text chunks (first 16 hex of SHA-256)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _state_digest(states) -> str:
    """Digest of an annealer state matrix (int8, deterministic layout)."""
    import numpy as np

    array = np.ascontiguousarray(np.asarray(states, dtype=np.int8))
    h = hashlib.sha256()
    h.update(str(array.shape).encode("ascii"))
    h.update(array.tobytes())
    return h.hexdigest()[:16]


class Workload:
    """One buildable, repeatedly-runnable benchmark workload."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        runner: Callable[[MetricsRegistry], Dict[str, Any]],
        metadata: Dict[str, Any],
    ) -> None:
        self.spec = spec
        self._runner = runner
        self.metadata = metadata

    def run(self, metrics: MetricsRegistry) -> Dict[str, Any]:
        """Execute one timed repeat; returns the deterministic fingerprint."""
        return self._runner(metrics)


# --------------------------------------------------------------------- #
# kind builders
# --------------------------------------------------------------------- #


def _model_metadata(model) -> Dict[str, Any]:
    from repro.qubo.sparse import sparse_stats

    stats = sparse_stats(model.to_dict(), model.num_variables)
    return {
        "num_variables": int(model.num_variables),
        "coupling_nnz": int(stats.coupling_nnz),
        "density": round(float(stats.density), 6),
        # Every sampler kernel runs on the CSR form.
        "coupling_form": "sparse",
    }


def _build_smt(spec: BenchmarkSpec) -> Workload:
    from repro.smt.generator import InstanceGenerator
    from repro.smt.solver import QuantumSMTSolver

    p = dict(spec.params)
    generator = InstanceGenerator(
        min_length=int(p["min_length"]),
        max_length=int(p["max_length"]),
        max_constraints=int(p["max_constraints"]),
        seed=int(p["gen_seed"]),
        ops=p.get("ops"),
    )
    instances = [generator.generate() for _ in range(int(p["instances"]))]
    scripts: List[str] = [inst.script for inst in instances]
    ops_covered = sorted({op for inst in instances for op in inst.ops})
    metadata = {
        "instances": len(scripts),
        "assertions": sum(len(inst.assertions) for inst in instances),
        "ops_covered": ops_covered,
        "scripts_digest": round_trip_digest(*scripts),
    }

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        statuses: List[str] = []
        models: List[Dict[str, str]] = []
        for script in scripts:
            solver = QuantumSMTSolver.from_script_text(
                script,
                num_reads=int(p["num_reads"]),
                seed=int(p["solver_seed"]),
                sampler_params={"num_sweeps": int(p["num_sweeps"])},
                metrics=metrics,
            )
            result = solver.check_sat()
            statuses.append(str(result.status))
            models.append(dict(sorted(result.model.items())))
        return {
            "scripts_digest": metadata["scripts_digest"],
            "statuses": statuses,
            "models": models,
        }

    return Workload(spec, run, metadata)


def make_formulation(p: Dict[str, Any]):
    """The formulation named by a ``solve`` spec's params."""
    from repro.core import PalindromeGeneration, RegexMatching, StringEquality

    kind = p["formulation"]
    if kind == "equality":
        return StringEquality(str(p["target"]))
    if kind == "palindrome":
        return PalindromeGeneration(int(p["length"]))
    if kind == "regex":
        return RegexMatching(str(p["pattern"]), int(p["length"]))
    raise ValueError(f"unknown formulation kind {kind!r}")


def _build_solve(spec: BenchmarkSpec) -> Workload:
    from repro.core.solver import StringQuboSolver

    p = dict(spec.params)
    formulation = make_formulation(p)
    metadata = _model_metadata(formulation.build_model())

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        solver = StringQuboSolver(
            num_reads=int(p["num_reads"]),
            seed=int(p["seed"]),
            sampler_params={"num_sweeps": int(p["num_sweeps"])},
            metrics=metrics,
        )
        result = solver.solve(formulation)
        return {
            "output": result.output,
            "ok": bool(result.ok),
            "energy": round(float(result.energy), _ENERGY_DECIMALS),
            "success_rate": round(float(result.success_rate), _ENERGY_DECIMALS),
        }

    return Workload(spec, run, metadata)


def _build_kernel(spec: BenchmarkSpec) -> Workload:
    from repro.anneal.simulated import SimulatedAnnealingSampler
    from repro.core import PalindromeGeneration

    p = dict(spec.params)
    model = PalindromeGeneration(int(p["length"])).build_model()
    metadata = _model_metadata(model)

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        sampler = SimulatedAnnealingSampler()
        with metrics.time("anneal"):
            sampleset = sampler.sample_model(
                model,
                num_reads=int(p["num_reads"]),
                num_sweeps=int(p["num_sweeps"]),
                seed=int(p["seed"]),
            )
        metrics.counter("kernel.reads").inc(len(sampleset))
        return {
            "states_digest": _state_digest(sampleset.states),
            "best_energy": round(float(sampleset.first.energy), _ENERGY_DECIMALS),
            "coupling_form": sampleset.info["coupling_form"],
        }

    return Workload(spec, run, metadata)


def _batch_scripts(p: Dict[str, Any]) -> List[str]:
    return [
        f'(declare-const x String)(assert (= x "{word}"))(check-sat)'
        for word in p["words"]
    ] * int(p["repeats"])


def _build_batch(spec: BenchmarkSpec) -> Workload:
    from repro.service import CompileCache, RetryPolicy
    from repro.service.batch import BatchSolver

    p = dict(spec.params)
    scripts = _batch_scripts(p)
    warm = bool(p.get("warm", False))

    def make_solver(cache, metrics):
        return BatchSolver(
            seed=int(p["seed"]),
            num_reads=int(p["num_reads"]),
            sampler_params={"num_sweeps": int(p["num_sweeps"])},
            policy=RetryPolicy(max_attempts=3),
            cache=cache,
            metrics=metrics,
            executor=str(p["executor"]),
            num_workers=int(p["num_workers"]),
            tile_max=int(p.get("tile_max", 16)),
        )

    # A warm workload shares one cache primed at build time (untimed), so
    # every timed repeat measures the pure cache-hit path; a cold workload
    # gets a fresh cache inside each timed repeat.
    shared_cache = None
    if warm:
        shared_cache = CompileCache(maxsize=64)
        make_solver(shared_cache, MetricsRegistry()).solve_batch(scripts)

    metadata = {
        "batch_items": len(scripts),
        "unique_scripts": len(set(scripts)),
        "executor": str(p["executor"]),
        "warm_cache": warm,
        "scripts_digest": round_trip_digest(*scripts),
    }

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        cache = shared_cache if warm else CompileCache(maxsize=64)
        report = make_solver(cache, metrics).solve_batch(scripts)
        return {
            "scripts_digest": metadata["scripts_digest"],
            "statuses": [str(status) for status in report.statuses],
            "models": [dict(sorted(item.model.items())) for item in report],
        }

    return Workload(spec, run, metadata)


def _result_fingerprint(result) -> Dict[str, Any]:
    """Deterministic projection of one :class:`SmtResult`."""
    return {
        "status": str(result.status),
        "model": dict(sorted(result.model.items())),
        "energies": {
            name: round(float(r.energy), _ENERGY_DECIMALS)
            for name, r in sorted(result.solve_results.items())
        },
    }


def _build_session(spec: BenchmarkSpec) -> Workload:
    from repro.service import CompileCache
    from repro.service.spec import SolveSpec
    from repro.smt.generator import InstanceGenerator
    from repro.smt.session import SolverSession

    p = dict(spec.params)
    mode = str(p["mode"])

    if mode == "replay":
        generator = InstanceGenerator(
            min_length=int(p["min_length"]),
            max_length=int(p["max_length"]),
            max_constraints=int(p["max_constraints"]),
            seed=int(p["gen_seed"]),
            sessions=int(p["queries"]),
        )
        instances = [generator.generate() for _ in range(int(p["instances"]))]
        scripts = [inst.script for inst in instances]
        metadata = {
            "instances": len(scripts),
            "queries": sum(len(inst.expected_statuses) for inst in instances),
            "scripts_digest": round_trip_digest(*scripts),
        }

        def run(metrics: MetricsRegistry) -> Dict[str, Any]:
            fingerprints: List[List[Dict[str, Any]]] = []
            for script in scripts:
                session = SolverSession(
                    SolveSpec(
                        num_reads=int(p["num_reads"]),
                        seed=int(p["solver_seed"]),
                        sampler_params={"num_sweeps": int(p["num_sweeps"])},
                    ),
                    metrics=metrics,
                )
                results = session.run_script_text(script)
                fingerprints.append(
                    [_result_fingerprint(r) for r in results]
                )
            return {
                "scripts_digest": metadata["scripts_digest"],
                "queries": fingerprints,
            }

        return Workload(spec, run, metadata)

    if mode not in ("cold_recheck", "warm_recheck"):
        raise ValueError(f"unknown session workload mode {mode!r}")

    base = str(p["base"])
    extra = str(p["extra"])
    solve_spec = SolveSpec(
        num_reads=int(p["num_reads"]),
        seed=int(p["seed"]),
        sampler_params={"num_sweeps": int(p["num_sweeps"])},
    )
    metadata = {
        "mode": mode,
        "scripts_digest": round_trip_digest(base, extra),
    }

    if mode == "cold_recheck":
        # From-scratch reference: each timed repeat compiles and anneals
        # the changed conjunction (base + extra) with a fresh solver and a
        # fresh cache, exactly what a non-incremental client pays.

        def run(metrics: MetricsRegistry) -> Dict[str, Any]:
            session = SolverSession(
                solve_spec, cache=CompileCache(maxsize=8), metrics=metrics
            )
            session.assert_text(base)
            session.push()
            session.assert_text(extra)
            result = session.check_sat()
            return {
                "scripts_digest": metadata["scripts_digest"],
                "result": _result_fingerprint(result),
            }

        return Workload(spec, run, metadata)

    # warm_recheck: one shared session primed untimed at build — the base
    # state and the base+extra state are both solved once here — so every
    # timed repeat measures the incremental fast path: push, re-assert the
    # change, answer from the per-state memo, pop.
    shared = SolverSession(
        solve_spec, cache=CompileCache(maxsize=8), metrics=MetricsRegistry()
    )
    shared.assert_text(base)
    shared.check_sat()
    shared.push()
    shared.assert_text(extra)
    shared.check_sat()
    shared.pop()

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        shared.push()
        shared.assert_text(extra)
        result = shared.check_sat()
        shared.pop()
        return {
            "scripts_digest": metadata["scripts_digest"],
            "result": _result_fingerprint(result),
        }

    return Workload(spec, run, metadata)


def _build_refine(spec: BenchmarkSpec) -> Workload:
    from repro.smt.solver import QuantumSMTSolver

    p = dict(spec.params)
    script = str(p["script"])
    strategy = str(p.get("strategy", "direct"))
    metadata = {
        "strategy": strategy,
        "scripts_digest": round_trip_digest(script),
    }

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        solver = QuantumSMTSolver.from_script_text(
            script,
            num_reads=int(p["num_reads"]),
            seed=int(p["seed"]),
            sampler_params={"num_sweeps": int(p["num_sweeps"])},
            metrics=metrics,
            strategy=strategy,
            refine_max_rounds=int(p.get("refine_max_rounds", 4)),
        )
        result = solver.check_sat()
        fingerprint = dict(
            _result_fingerprint(result),
            scripts_digest=metadata["scripts_digest"],
        )
        stats = solver.last_refine_stats
        if strategy == "refine" and stats is not None:
            # The reduction itself is part of the tracked contract: a
            # regression that stops pruning (qubo_variables creeping back
            # to full_variables) must show up as a fingerprint mismatch.
            fingerprint["refine"] = {
                "rounds": int(stats.rounds),
                "pruned_bits": int(stats.pruned_bits),
                "lemmas": int(stats.lemmas),
                "fallbacks": int(stats.fallbacks),
                "determined": int(stats.determined),
                "qubo_variables": [int(v) for v in stats.qubo_variables],
                "full_variables": [int(v) for v in stats.full_variables],
            }
        return fingerprint

    return Workload(spec, run, metadata)


def closest_string_script(references) -> str:
    """The weighted MaxSMT encoding of one Closest String instance.

    Hard: the length pin. Soft: one unit-weight ``(= (str.at x i) c)``
    block per reference per position, grouped per reference — the total
    violated weight of a candidate is exactly its summed character-Hamming
    distance to the references.
    """
    refs = [str(r) for r in references]
    length = len(refs[0])
    parts = [
        "(declare-const x String)",
        f"(assert (= (str.len x) {length}))",
    ]
    for index, ref in enumerate(refs):
        for position, char in enumerate(ref):
            parts.append(
                f'(assert-soft (= (str.at x {position}) "{char}") '
                f":weight 1 :id ref{index})"
            )
    return "".join(parts)


def _build_opt(spec: BenchmarkSpec) -> Workload:
    import math

    from repro.opt import AnytimeOptimizer
    from repro.smt.parser import parse_script

    p = dict(spec.params)
    refs = [str(r) for r in p["references"]]
    script = closest_string_script(refs)
    parsed = parse_script(script)
    metadata = {
        "references": len(refs),
        "length": len(refs[0]),
        "soft_assertions": len(parsed.soft_assertions),
        "total_reads": int(p["max_restarts"]) * int(p["num_reads"]),
        "scripts_digest": round_trip_digest(script),
    }

    def run(metrics: MetricsRegistry) -> Dict[str, Any]:
        optimizer = AnytimeOptimizer(
            num_reads=int(p["num_reads"]),
            seed=int(p["seed"]),
            sampler_params={"num_sweeps": int(p["num_sweeps"])},
            max_restarts=int(p["max_restarts"]),
            exhaustive_bits=int(p.get("exhaustive_bits", 0)),
            metrics=metrics,
        )
        result = optimizer.optimize(
            list(parsed.assertions), list(parsed.soft_assertions)
        )
        upper = float(result.upper_bound)
        # Objective, bounds and status are part of the tracked contract:
        # the anytime-matches-direct-at-equal-budget claim lives in the
        # committed baseline, not in prose.
        return {
            "scripts_digest": metadata["scripts_digest"],
            "status": str(result.status),
            "model": dict(sorted(result.model.items())),
            "objective": (
                None if result.objective is None
                else round(float(result.objective), _ENERGY_DECIMALS)
            ),
            "lower_bound": round(float(result.lower_bound), _ENERGY_DECIMALS),
            "upper_bound": (
                None if math.isinf(upper) else round(upper, _ENERGY_DECIMALS)
            ),
            "restarts": int(result.restarts),
            "reads_used": int(result.reads_used),
        }

    return Workload(spec, run, metadata)


_BUILDERS: Dict[str, Callable[[BenchmarkSpec], Workload]] = {
    "smt": _build_smt,
    "solve": _build_solve,
    "kernel": _build_kernel,
    "batch": _build_batch,
    "session": _build_session,
    "refine": _build_refine,
    "opt": _build_opt,
}


def build_workload(spec: BenchmarkSpec) -> Workload:
    """Materialize *spec* (untimed construction work happens here)."""
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"no workload builder for kind {spec.kind!r}") from None
    return builder(spec)
