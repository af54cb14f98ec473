"""The benchmark's own tests: tiny workloads, the checker, the tracer.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

import checker as checker_mod
import run
import tracing
import workloads
from checker import AnswerChecker, FingerprintStore

ROOT = run.ROOT
SCRIPT = '(declare-const x String)(assert (= (str.len x) 2))(assert (str.prefixof "a" x))(check-sat)'
WEIGHTED = (
    '(declare-const x String)(assert (= (str.len x) 2))'
    '(assert-soft (= x "ab") :weight 3)(assert-soft (= x "cd") :weight 5)(check-sat)'
)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(*args, cwd=ROOT, out_dir=None):
    cmd = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args]
    if out_dir is not None:
        cmd += ["--out-dir", str(out_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# -------------------------------------------------------------------- #
# metric names and units
# -------------------------------------------------------------------- #


def test_declared_metrics_match_the_ones_printed():
    spec = bench_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_with_its_unit(tmp_path, trace):
    proc = run_cli(
        "--workload", "check-sat", "--seed", "3", "--seconds", "0.5",
        "--trace", trace, out_dir=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name in units:  # the table shows the sample count too
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines())


def _end_to_end_names(result):
    return set(run.end_to_end(result, 1.0, (1.0, 1)))


def test_tiny_batch_fused_pass():
    check = AnswerChecker()
    result = workloads.batch_fused(5, 0.0, check, limit=3)
    assert result.calls == 3 and len(check.statuses) == 3 and not check.wrong
    assert result.counters["batch.items"] == 3
    assert _end_to_end_names(result) == set(run.END_TO_END_UNITS)


def test_fused_batches_hold_a_fixed_number_of_contains_instances():
    batches = workloads.fused_batches(5)
    first = [next(batches) for _ in range(3)]
    for batch in first:
        assert len(batch) == len(set(batch)) == workloads.BATCH_SIZE
        assert sum("str.contains" in script for script in batch) == workloads.CONTAINS_PER_BATCH
    again = workloads.fused_batches(5)
    assert [next(again) for _ in range(3)] == first  # same seed, same inputs


def test_all_ops_inputs_come_in_blocks_with_a_fixed_count_per_stratum():
    instances = workloads.all_ops_instances(5)
    block_size = sum(workloads.ALL_OPS_BLOCK.values())
    first = [next(instances) for _ in range(3 * block_size)]
    for start in range(0, len(first), block_size):
        counts = {}
        for instance in first[start : start + block_size]:
            key = (len(instance.witness["x"]), bool(workloads.SLOW_OPS & set(instance.ops)))
            counts[key] = counts.get(key, 0) + 1
        assert counts == workloads.ALL_OPS_BLOCK
    again = workloads.all_ops_instances(5)
    assert [next(again).script for _ in first] == [i.script for i in first]


def _child_pids():
    pid = os.getpid()
    children = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
            children.update(handle.read().split())
    return children


def test_measure_waits_for_its_caller_processes():
    before = _child_pids()
    check = AnswerChecker()
    result = workloads.measure("batch-fused", 5, 0.0, check)
    assert result.calls >= workloads.MIN_CALLS and result.calls % workloads.BATCH_SIZE == 0
    assert check.statuses and len(check.statuses) == result.calls and not check.wrong
    assert _child_pids() == before  # every caller (and no helper) has ended


def test_objective_pass_audits_every_weighted_answer(monkeypatch):
    monkeypatch.setattr(workloads, "OBJECTIVE_WINDOW", 2)
    check = AnswerChecker()
    total = workloads.objective_pass(5, check)
    assert len(check.statuses) == 2 and not check.wrong
    assert total == workloads.objective_pass(5, AnswerChecker())  # deterministic


def test_tiny_serve_pass_follows_the_plan_and_audits_weighted_answers():
    plan = workloads.serve_plan(5, 40)
    kinds = [r.kind for r in plan[:20]]
    assert (kinds.count("fresh"), kinds.count("repeat"), kinds.count("weighted")) == (12, 5, 3)
    assert plan == workloads.serve_plan(5, 40)  # same seed, same inputs
    limit = next(i for i, r in enumerate(plan) if r.kind == "weighted") + 1
    check = AnswerChecker()
    result = workloads.serve(5, 0.0, check, limit=limit)
    assert result.calls == limit and not check.wrong and result.errors == 0
    assert len(result.envelopes) == limit
    assert _end_to_end_names(result) == set(run.END_TO_END_UNITS)


# -------------------------------------------------------------------- #
# the checker
# -------------------------------------------------------------------- #


def test_checker_accepts_a_true_model_and_catches_a_wrong_one():
    check = AnswerChecker()
    assert check.check_decision(0, SCRIPT, "sat", {"x": "ab"})
    assert not check.wrong
    assert not check.check_decision(1, SCRIPT, "sat", {"x": "ba"})
    assert len(check.wrong) == 1 and "input 1" in check.wrong[0]


def test_checker_treats_unsat_on_planted_sat_as_wrong_and_unknown_as_unsolved():
    check = AnswerChecker()
    assert not check.check_decision(0, SCRIPT, "unknown", {})
    assert not check.wrong
    assert not check.check_decision(1, SCRIPT, "unsat", {})
    assert len(check.wrong) == 1


def test_checker_reaudits_weighted_objectives():
    check = AnswerChecker()
    assert check.check_weighted(0, WEIGHTED, "sat", {"x": "cd"}, 3.0) == (True, 3.0)
    assert check.check_weighted(1, WEIGHTED, "sat", {"x": "cd"}, 0.0) == (False, None)
    assert check.check_weighted(2, WEIGHTED, "sat", {"x": "abc"}, 5.0) == (False, None)
    assert len(check.wrong) == 2


def test_an_injected_wrong_model_fails_the_pass(monkeypatch):
    from repro.smt.solver import QuantumSMTSolver, SmtResult

    def lying_check_sat(self, **params):
        return SmtResult(status="sat", model={"x": "\x00"})

    monkeypatch.setattr(QuantumSMTSolver, "check_sat", lying_check_sat)
    check = AnswerChecker()
    workloads.check_sat(3, 0.0, check, limit=2)
    assert len(check.wrong) == 2


def test_fingerprint_store_flags_disagreeing_runs(tmp_path):
    store = FingerprintStore(str(tmp_path), "code-a")
    assert store.compare_and_store("w", 1, ["sat", "unknown"]) is None
    assert store.compare_and_store("w", 1, ["sat"]) is None  # shorter run, same prefix
    assert store.compare_and_store("w", 1, ["sat", "unknown", "sat"]) is None
    assert "input 1" in store.compare_and_store("w", 1, ["sat", "sat"])
    assert store.compare_and_store("w", 2, ["sat", "sat"]) is None  # other seed


def test_fingerprint_store_compares_only_runs_of_the_same_code(tmp_path):
    FingerprintStore(str(tmp_path), "code-a").compare_and_store("w", 1, ["sat", "unknown"])
    changed = FingerprintStore(str(tmp_path), "code-b")
    assert changed.compare_and_store("w", 1, ["sat", "sat"]) is None
    assert "input 1" in changed.compare_and_store("w", 1, ["sat", "unknown"])


def test_source_digest_follows_the_code(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    before = checker_mod.source_digest(str(tmp_path))
    assert checker_mod.source_digest(str(tmp_path)) == before
    (tmp_path / "m.py").write_text("x = 2\n")
    assert checker_mod.source_digest(str(tmp_path)) != before


def test_repeated_runs_at_one_seed_agree(tmp_path):
    first, second = AnswerChecker(), AnswerChecker()
    workloads.check_sat(4, 0.0, first, limit=3)
    workloads.check_sat(4, 0.0, second, limit=3)
    assert first.fingerprint() == second.fingerprint()


# -------------------------------------------------------------------- #
# the tracer
# -------------------------------------------------------------------- #


def _snapshot():
    """Every attribute the tracer patches, looked up where callers do."""
    import sys as _sys

    tracing.import_layers()
    names = {}
    for mod_name, module in list(_sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr in ("parse_script", "compile_assertions", "result_from_sampleset"):
                if attr in vars(module):
                    names[(mod_name, attr)] = vars(module)[attr]
    classes = [
        (_sys.modules["repro.core.formulation"].StringFormulation, "build_model"),
        (_sys.modules["repro.core.solver"].StringQuboSolver, "solve"),
        (_sys.modules["repro.anneal.simulated"].SimulatedAnnealingSampler, "sample_model"),
        (_sys.modules["repro.anneal.simulated"].SimulatedAnnealingSampler, "sample_tiled"),
        (_sys.modules["repro.service.policy"].RetryPolicy, "run"),
        (_sys.modules["repro.service.cache"].CompileCache, "get_or_compile"),
        (_sys.modules["repro.opt.driver"].AnytimeOptimizer, "optimize"),
        (_sys.modules["repro.server.protocol"].SolveRequest, "from_body"),
        (_sys.modules["repro.server.client"].SolverClient, "solve"),
    ]
    for owner, attr in classes:
        names[(owner.__qualname__, attr)] = (attr in vars(owner), inspect.getattr_static(owner, attr))
    return names


def test_wrapped_functions_are_identical_after_unwrapping():
    before = _snapshot()
    # Imported into callers' modules: patching the defining module alone
    # would miss these call sites.
    assert ("repro.smt.solver", "parse_script") in before
    assert ("repro.service.fused", "result_from_sampleset") in before
    tracer = tracing.Tracer()
    with tracer:
        tracing.instrument_layers(tracer)
        during = _snapshot()
        assert all(during[key] is not before[key] for key in before if key[0].startswith("repro"))
        assert all(during[key] != before[key] for key in before if not key[0].startswith("repro"))
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, tuple):
            assert after[key][0] == value[0] and after[key][1] is value[1], key
        else:
            assert after[key] is value, key


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(lambda: traced_inner() + traced_inner(), "outer")
    assert traced_outer() == 2
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert [s.parent for s in tracer.spans if s.name == "inner"] == [outer.index] * 2
    table = tracing.self_times(tracer.spans)
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]
    assert table["inner"]["calls"] == 2


def test_traced_serve_joins_worker_spans_to_request_ids():
    check = AnswerChecker()
    tracer = tracing.Tracer()
    with tracer:
        tracing.instrument_layers(tracer)
        workloads.serve(6, 0.0, check, limit=4)
    kernel_ids = {s.request_id for s in tracer.spans if s.name == "anneal.sample_model"}
    assert {f"r{i}" for i in range(4)} <= kernel_ids
    # Only the request framing runs before the id is known.
    assert all(s.request_id for s in tracer.spans if s.name != "server.parse_request")
    assert not check.wrong


def test_traced_check_sat_is_dominated_by_the_anneal_kernel():
    tracer = tracing.Tracer()
    with tracer:
        tracing.instrument_layers(tracer)
        result = workloads.check_sat(7, 0.0, AnswerChecker(), limit=3)
    metrics = tracing.layer_metrics(tracer, timed_wall_s=result.wall_s)
    assert metrics["anneal.sample_model.calls"] >= 3
    assert metrics["anneal.sample_model.wall_share"] > 0.9
    assert metrics["anneal.spin_updates"] > 0


# -------------------------------------------------------------------- #
# the bare benchmark directory
# -------------------------------------------------------------------- #


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = run_cli(
        "--workload", "check-sat", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout


def test_checker_binds_the_untraced_parser():
    tracer = tracing.Tracer()
    with tracer:
        tracing.instrument_layers(tracer)
        assert checker_mod.parse_script is sys.modules["repro.smt.parser"].parse_script.__wrapped__
