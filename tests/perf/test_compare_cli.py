"""Baseline comparator and CLI self-tests.

Two layers:

* :func:`compare_results` is pure over data, so synthetic timings prove
  the gate logic (a 3x-slowed benchmark fails, jitter does not) without
  rerunning workloads;
* the CLI smoke runs a real ``update`` → ``compare`` cycle on one tiny
  registered spec in a temp directory, then tampers with the stored
  baseline to demonstrate the non-zero exit on a 3x regression — the
  acceptance-criterion scenario.
"""

import copy
import json

import pytest

from repro.perf.__main__ import main
from repro.perf.baseline import (
    SCHEMA_VERSION,
    baseline_path,
    compare_results,
    load_baseline,
    results_to_baseline,
    write_baseline,
)
from repro.perf.registry import BenchmarkSpec
from repro.perf.runner import BenchmarkResult

pytestmark = pytest.mark.perf


def _result(name="eq-n2", wall=None, workload=None, suite="core"):
    return BenchmarkResult(
        name=name,
        suite=suite,
        kind="solve",
        tolerance=0.5,
        repeats=4,
        warmup=1,
        wall_times=wall if wall is not None else [0.10, 0.11, 0.10, 0.12],
        stage_times={"anneal": [0.08, 0.09, 0.08, 0.09]},
        counters={"kernel.reads": 32},
        workload=workload if workload is not None else {"output": "hi", "ok": True},
        metadata={"num_variables": 14},
        params={"seed": 1},
    )


def _baseline(results=None, suite="core"):
    return results_to_baseline(suite, results or [_result()])


class TestCompareResults:
    def test_identical_is_ok(self):
        report = compare_results(_baseline(), [_result()], "core")
        assert report.ok
        assert [row.status for row in report.rows] == ["ok"]

    def test_three_x_slowdown_fails(self):
        slowed = _result(wall=[0.30, 0.33, 0.30, 0.36])
        report = compare_results(_baseline(), [slowed], "core")
        assert not report.ok
        assert report.rows[0].status == "regression"
        assert report.rows[0].ratio == pytest.approx(3.0, rel=0.1)

    def test_jitter_within_band_is_ok(self):
        jittered = _result(wall=[0.11, 0.12, 0.11, 0.13])
        assert compare_results(_baseline(), [jittered], "core").ok

    def test_improvement_reported_not_failed(self):
        faster = _result(wall=[0.03, 0.035, 0.03, 0.04])
        report = compare_results(_baseline(), [faster], "core")
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_tolerance_scale_widens_band(self):
        slowed = _result(wall=[0.30, 0.33, 0.30, 0.36])
        assert not compare_results(_baseline(), [slowed], "core").ok
        assert compare_results(
            _baseline(), [slowed], "core", tolerance_scale=6.0
        ).ok

    def test_workload_drift_fails(self):
        drifted = _result(workload={"output": "ho", "ok": True})
        report = compare_results(_baseline(), [drifted], "core")
        assert not report.ok
        assert report.rows[0].status == "workload-drift"

    def test_workload_drift_allowed(self):
        drifted = _result(workload={"output": "ho", "ok": True})
        report = compare_results(
            _baseline(), [drifted], "core", allow_workload_drift=True
        )
        assert report.ok

    def test_new_benchmark_informational(self):
        report = compare_results(_baseline(), [_result(), _result("brand-new")],
                                 "core")
        assert report.ok
        assert {row.status for row in report.rows} == {"ok", "new"}

    def test_missing_benchmark_informational(self):
        baseline = _baseline([_result(), _result("retired")])
        report = compare_results(baseline, [_result()], "core")
        assert report.ok
        assert {row.status for row in report.rows} == {"ok", "missing"}

    def test_empty_baseline_all_new(self):
        report = compare_results(None, [_result()], "core")
        assert report.ok
        assert report.rows[0].status == "new"

    def test_text_report_mentions_every_row(self):
        slowed = _result(wall=[0.30, 0.33, 0.30, 0.36])
        text = compare_results(_baseline(), [slowed], "core").text_report()
        assert "eq-n2" in text
        assert "regression" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_results(_baseline(), [_result()], "core", tolerance_scale=0)


class TestBaselineFiles:
    def test_round_trip(self, tmp_path):
        path = write_baseline("core", [_result()], root=str(tmp_path))
        assert path == baseline_path("core", str(tmp_path))
        document = load_baseline("core", root=str(tmp_path))
        assert document["schema"] == SCHEMA_VERSION
        assert "eq-n2" in document["benchmarks"]

    def test_deterministic_bytes(self, tmp_path):
        # No timestamps: rewriting the same results is byte-identical, so
        # `update` diffs stay reviewable.
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(); b.mkdir()
        write_baseline("core", [_result()], root=str(a))
        write_baseline("core", [_result()], root=str(b))
        assert (a / "BENCH_core.json").read_bytes() == (
            b / "BENCH_core.json"
        ).read_bytes()

    def test_missing_file_is_none(self, tmp_path):
        assert load_baseline("core", root=str(tmp_path)) is None

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps({"schema": 999, "benchmarks": {}}))
        with pytest.raises(ValueError):
            load_baseline("core", root=str(tmp_path))

    def test_wrong_suite_rejected(self):
        with pytest.raises(ValueError):
            results_to_baseline("sparse", [_result(suite="core")])


#: The cheapest registered spec — the CLI smoke pipeline runs only this.
_SMOKE_SPEC = "equality-n16"


#: The wall time every CLI smoke repeat reports (seconds).
_FIXED_WALL = 0.1


@pytest.mark.slow
class TestCliSmoke:
    """update → compare on a real registered workload (one tiny spec).

    The workload really runs, but every repeat reports the same fixed
    duration, so the verdicts depend on the gate logic and the stored
    baseline, never on how busy the machine is.
    """

    @pytest.fixture(autouse=True)
    def _fixed_wall_times(self, monkeypatch):
        def measure(fn, *args, **kwargs):
            return _FIXED_WALL, fn(*args, **kwargs)

        monkeypatch.setattr("repro.perf.runner.measure", measure)

    def _update(self, bench_dir):
        return main([
            "update", "--suite", "core", "--spec", _SMOKE_SPEC,
            "--repeats", "2", "--warmup", "0", "--bench-dir", bench_dir,
        ])

    def _compare(self, bench_dir, *extra):
        return main([
            "compare", "--suite", "core", "--spec", _SMOKE_SPEC,
            "--repeats", "2", "--warmup", "0", "--bench-dir", bench_dir,
            *extra,
        ])

    def test_update_then_compare_reports_zero_regressions(self, tmp_path, capsys):
        bench_dir = str(tmp_path)
        assert self._update(bench_dir) == 0
        assert self._compare(bench_dir) == 0
        out = capsys.readouterr().out
        assert "OK: no statistically significant regressions" in out

    def test_tampered_baseline_trips_the_gate(self, tmp_path, capsys):
        # Divide the stored samples by 3: the fresh run now looks 3x
        # slower than its baseline and compare must exit non-zero.
        bench_dir = str(tmp_path)
        assert self._update(bench_dir) == 0
        path = baseline_path("core", bench_dir)
        document = json.loads(open(path).read())
        entry = document["benchmarks"][_SMOKE_SPEC]
        entry["wall_times"] = [t / 3.0 for t in entry["wall_times"]]
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert self._compare(bench_dir) == 1
        captured = capsys.readouterr()
        assert "FAIL: significant perf regression" in captured.err
        assert _SMOKE_SPEC in captured.err

    def test_workload_drift_trips_and_can_be_allowed(self, tmp_path):
        bench_dir = str(tmp_path)
        assert self._update(bench_dir) == 0
        path = baseline_path("core", bench_dir)
        document = json.loads(open(path).read())
        tampered = copy.deepcopy(document)
        tampered["benchmarks"][_SMOKE_SPEC]["workload"]["output"] = "not-it"
        with open(path, "w") as handle:
            json.dump(tampered, handle)
        assert self._compare(bench_dir) == 1
        assert self._compare(bench_dir, "--allow-workload-drift") == 0

    def test_json_report_written(self, tmp_path):
        bench_dir = str(tmp_path)
        assert self._update(bench_dir) == 0
        report_path = tmp_path / "report.json"
        assert self._compare(bench_dir, "--json", str(report_path)) == 0
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["comparisons"][0]["suite"] == "core"


class TestCliList:
    def test_list_shows_specs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("smt-legacy-mix", "kernel-sparse-n64", "batch-warm-serial"):
            assert name in out

    def test_unknown_spec_filter_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--spec", "no-such-benchmark", "--repeats", "1"])
