"""The classical optimality oracle, fuzz campaign, corpus replay, CLI."""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.opt.driver import AnytimeOptimizer
from repro.opt.result import OptimizeResult, OptStatus
from repro.verify.__main__ import main as verify_main
from repro.verify.optimality import (
    OptCampaignConfig,
    OptimalityOracle,
    OptVerdict,
    certificate_violation,
    replay_opt_corpus,
    run_opt_campaign,
)
from repro.smt.parser import parse_script

pytestmark = pytest.mark.opt

CORPUS_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, "corpus", "opt"
)


def _split(text: str):
    script = parse_script(text)
    return list(script.assertions), list(script.soft_assertions)


class TestCertificateViolation:
    def test_valid_certificate_passes(self):
        assert certificate_violation(
            {"hard_scale": 10.0, "hard_gap": 1.0, "soft_budget": 5.0,
             "num_soft_encoded": 2}
        ) is None

    def test_violation_reported(self):
        message = certificate_violation(
            {"hard_scale": 2.0, "hard_gap": 1.0, "soft_budget": 5.0,
             "num_soft_encoded": 2}
        )
        assert message is not None and "violated" in message

    def test_empty_or_soft_free_certificates_vacuous(self):
        assert certificate_violation({}) is None
        assert certificate_violation(
            {"hard_scale": 0.0, "hard_gap": 0.0, "soft_budget": 0.0,
             "num_soft_encoded": 0}
        ) is None


class TestReferenceOptimize:
    def setup_method(self):
        self.oracle = OptimalityOracle()

    def test_small_instance_optimal(self):
        hard, soft = _split(
            "(declare-const x String)"
            "(assert (= (str.len x) 1))"
            '(assert-soft (= x "a") :weight 1)'
            '(assert-soft (= x "b") :weight 3)'
        )
        reference = self.oracle.reference_optimize(hard, soft)
        assert reference.status is OptStatus.OPTIMAL
        assert reference.objective == 1.0
        assert reference.model == {"x": "b"}
        assert reference.complete

    def test_ground_false_hard_infeasible(self):
        hard, soft = _split(
            '(assert (= "a" "b"))'
            "(declare-const x String)"
            '(assert-soft (= x "a"))'
        )
        reference = self.oracle.reference_optimize(hard, soft)
        assert reference.status is OptStatus.INFEASIBLE

    def test_ground_soft_cost_included(self):
        hard, soft = _split(
            '(assert-soft (= "a" "b") :weight 2)'
            '(assert-soft (= "a" "a") :weight 1)'
        )
        reference = self.oracle.reference_optimize(hard, soft)
        assert reference.status is OptStatus.OPTIMAL
        assert reference.objective == 2.0

    def test_node_budget_degrades_to_incomplete(self):
        # Conflicting softs keep the minimum cost above zero, so the
        # enumeration cannot short-circuit and must hit the node budget.
        oracle = OptimalityOracle(node_budget=1)
        hard, soft = _split(
            "(declare-const x String)"
            "(assert (= (str.len x) 2))"
            '(assert-soft (= (str.at x 0) "a") :weight 1)'
            '(assert-soft (= (str.at x 0) "b") :weight 1)'
        )
        reference = oracle.reference_optimize(hard, soft)
        assert not reference.complete
        assert reference.status in (OptStatus.FEASIBLE, OptStatus.UNKNOWN)


class TestClassify:
    INSTANCE = (
        "(declare-const x String)"
        "(assert (= (str.len x) 1))"
        '(assert (= (str.at x 0) "a"))'
        '(assert-soft (= x "b") :weight 2)'
    )

    def setup_method(self):
        self.oracle = OptimalityOracle()
        self.hard, self.soft = _split(self.INSTANCE)
        self.reference = self.oracle.reference_optimize(self.hard, self.soft)

    def _classify(self, result):
        return self.oracle.classify(
            self.hard, self.soft, result, self.reference
        )

    def test_agree_optimal_end_to_end(self):
        result = AnytimeOptimizer(seed=0).optimize(self.hard, self.soft)
        report = self.oracle.check(self.hard, self.soft, result)
        assert report.verdict is OptVerdict.AGREE_OPTIMAL

    def test_hard_violation_is_soundness_bug(self):
        report = self._classify(
            OptimizeResult(
                status=OptStatus.FEASIBLE, model={"x": "b"},
                objective=0.0, lower_bound=0.0, upper_bound=0.0,
            )
        )
        assert report.verdict is OptVerdict.SOUNDNESS_BUG
        assert "hard" in report.reason

    def test_misreported_objective_is_soundness_bug(self):
        report = self._classify(
            OptimizeResult(
                status=OptStatus.FEASIBLE, model={"x": "a"},
                objective=0.0, lower_bound=0.0, upper_bound=0.0,
            )
        )
        assert report.verdict is OptVerdict.SOUNDNESS_BUG
        assert "re-audits" in report.reason

    def test_false_optimality_claim_is_soundness_bug(self):
        # "a" really costs 2; claiming that is optimal is fine — but a
        # lower bound above the reference optimum is not possible here,
        # so fake a higher-cost instance instead: claim optimal while the
        # reference (cost 2) is the same — use a bogus bound bracket.
        report = self._classify(
            OptimizeResult(
                status=OptStatus.FEASIBLE, model={"x": "a"},
                objective=2.0, lower_bound=3.0, upper_bound=2.0,
            )
        )
        assert report.verdict is OptVerdict.SOUNDNESS_BUG
        assert "bracket" in report.reason

    def test_false_infeasibility_is_soundness_bug(self):
        report = self._classify(OptimizeResult(status=OptStatus.INFEASIBLE))
        assert report.verdict is OptVerdict.SOUNDNESS_BUG

    def test_unknown_with_feasible_reference_is_completeness_miss(self):
        report = self._classify(
            OptimizeResult(status=OptStatus.UNKNOWN, reason="budget")
        )
        assert report.verdict is OptVerdict.COMPLETENESS_MISS

    def test_agree_infeasible(self):
        hard, soft = _split('(assert (= "a" "b"))')
        reference = self.oracle.reference_optimize(hard, soft)
        report = self.oracle.classify(
            hard, soft, OptimizeResult(status=OptStatus.INFEASIBLE), reference
        )
        assert report.verdict is OptVerdict.AGREE_INFEASIBLE

    def test_feasible_without_optimality_claim_agrees(self):
        report = self._classify(
            OptimizeResult(
                status=OptStatus.FEASIBLE, model={"x": "a"},
                objective=2.0, lower_bound=0.0, upper_bound=2.0,
            )
        )
        assert report.verdict is OptVerdict.AGREE_FEASIBLE


class TestCampaign:
    CONFIG = dict(
        instances=6, seed=3, soft=2, max_length=2,
        num_reads=16, max_restarts=1,
    )

    def test_small_campaign_clean(self):
        report = run_opt_campaign(OptCampaignConfig(**self.CONFIG))
        assert report.instances_run == 6
        assert report.ok
        assert report.soundness_bugs == 0
        assert report.certificate_violations == 0
        assert sum(report.verdicts.values()) == 6

    def test_campaign_deterministic(self):
        one = run_opt_campaign(OptCampaignConfig(**self.CONFIG)).to_dict()
        two = run_opt_campaign(OptCampaignConfig(**self.CONFIG)).to_dict()
        assert one == two
        # The dict form is JSON-stable (no timings, no inf/nan).
        assert json.loads(json.dumps(one)) == one

    def test_infeasible_ratio_produces_refutations(self):
        report = run_opt_campaign(
            OptCampaignConfig(
                instances=8, seed=1, soft=1, max_length=2,
                infeasible_ratio=1.0, num_reads=16, max_restarts=1,
            )
        )
        assert report.ok
        assert report.verdicts.get("agree_infeasible", 0) >= 1


class TestCorpusReplay:
    def test_committed_corpus_replays_clean(self):
        report = replay_opt_corpus(CORPUS_DIR)
        assert report["total"] >= 7
        assert report["failures"] == 0

    def test_missing_directory_is_empty(self):
        report = replay_opt_corpus("/nonexistent/opt-corpus")
        assert report["total"] == 0
        assert report["failures"] == 0


class TestCli:
    def test_opt_subcommand(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code = verify_main(
            [
                "opt", "--instances", "3", "--seed", "5", "--soft", "1",
                "--max-length", "2", "--num-reads", "16",
                "--max-restarts", "1", "--corpus-dir", CORPUS_DIR,
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "opt campaign: 3 instances" in out
        assert "opt corpus replay" in out
        # With --corpus-dir the JSON payload nests campaign + corpus.
        payload = json.loads(json_path.read_text())
        assert payload["campaign"]["ok"] is True
        assert payload["campaign"]["instances_run"] == 3
        assert payload["corpus"]["failures"] == 0
        assert not any(
            isinstance(v, float) and not math.isfinite(v)
            for v in payload["campaign"]["verdicts"].values()
        )

    def test_corpus_replay_runs_the_campaign_budgets(self, monkeypatch, tmp_path):
        import repro.verify.optimality as optimality

        optimizers = []
        replay = optimality.replay_opt_corpus

        def recording(directory, optimizer=None, oracle=None):
            optimizers.append(optimizer)
            return replay(directory, optimizer=optimizer, oracle=oracle)

        monkeypatch.setattr(optimality, "replay_opt_corpus", recording)
        code = verify_main(
            [
                "opt", "--instances", "1", "--seed", "5", "--soft", "1",
                "--max-length", "2", "--num-reads", "16", "--num-sweeps", "40",
                "--max-restarts", "2", "--exhaustive-bits", "8",
                "--deadline-ms", "5000", "--corpus-dir", str(tmp_path),
            ]
        )
        assert code == 0
        (optimizer,) = optimizers
        assert optimizer.seed == 5
        assert optimizer.num_reads == 16
        assert optimizer.sampler_params == {"num_sweeps": 40}
        assert optimizer.max_restarts == 2
        assert optimizer.exhaustive_bits == 8
        assert optimizer.deadline_ms == 5000.0
