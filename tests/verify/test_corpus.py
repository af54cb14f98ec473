"""Regression corpus: save/load round trips and oracle replay."""

import pytest

from repro.service.spec import SolveSpec
from repro.smt import ast
from repro.smt.status import SolveStatus
from repro.verify import (
    DifferentialOracle,
    load_corpus,
    replay_corpus,
    save_case,
)

X = ast.StrVar("x")
FAST_ORACLE = dict(num_reads=48, sampler_params={"num_sweeps": 300})


def _case_assertions():
    return [
        ast.Eq(ast.Length(X), ast.IntLit(2)),
        ast.PrefixOf(ast.StrLit("a"), X),
    ]


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        path = save_case(
            str(tmp_path),
            "case-0001",
            _case_assertions(),
            expected=SolveStatus.SAT,
            comment="hand-written seed case",
        )
        text = open(path).read()
        assert text.startswith("; expect: sat\n; hand-written seed case\n")
        (case,) = load_corpus(str(tmp_path))
        assert case.name == "case-0001"
        assert case.expected is SolveStatus.SAT
        assert [repr(a) for a in case.assertions] == [
            repr(a) for a in _case_assertions()
        ]

    def test_expected_optional(self, tmp_path):
        save_case(str(tmp_path), "noexpect", _case_assertions())
        (case,) = load_corpus(str(tmp_path))
        assert case.expected is None

    def test_unsafe_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_case(str(tmp_path), "../escape", _case_assertions())

    def test_missing_directory_loads_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

    def test_non_smt2_files_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text("not a case")
        save_case(str(tmp_path), "real", _case_assertions())
        assert [c.name for c in load_corpus(str(tmp_path))] == ["real"]

    def test_cases_sorted_by_name(self, tmp_path):
        save_case(str(tmp_path), "b-case", _case_assertions())
        save_case(str(tmp_path), "a-case", _case_assertions())
        assert [c.name for c in load_corpus(str(tmp_path))] == [
            "a-case",
            "b-case",
        ]


class TestReplay:
    def test_replay_counts_verdicts(self, tmp_path):
        save_case(
            str(tmp_path), "sat-case", _case_assertions(),
            expected=SolveStatus.SAT,
        )
        oracle = DifferentialOracle(SolveSpec(seed=0, **FAST_ORACLE))
        report = replay_corpus(str(tmp_path), oracle)
        assert report.total == 1
        assert sum(report.verdicts.values()) == 1
        assert report.ok  # no soundness bug possible here
        assert report.cases[0]["expected"] == "sat"

    def test_replay_empty_directory(self, tmp_path):
        report = replay_corpus(str(tmp_path))
        assert report.total == 0
        assert report.ok

    def test_checked_in_corpus_replays_clean(self):
        # The repository's own corpus (seeded + shrunk campaign misses)
        # must never produce a soundness bug.
        import pathlib

        corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        oracle = DifferentialOracle(SolveSpec(seed=0, **FAST_ORACLE))
        report = replay_corpus(str(corpus), oracle)
        assert report.total > 0
        assert report.ok, report.text_report()


MULTI_QUERY_TEXT = """\
; expect: sat
; expect: unsat
; expect: sat
(declare-const x String)
(assert (= (str.len x) 2))
(check-sat)
(push 1)
(assert (= x "aa"))
(assert (= x "bb"))
(check-sat)
(pop 1)
(check-sat)
"""


class _StubOracle:
    """Canned per-query reports, recorded calls — no annealing."""

    def __init__(self, reports):
        from collections import deque

        self.reports = deque(reports)
        self.calls = []

    def check(self, assertions, expected=None):
        self.calls.append((list(assertions), expected))
        return self.reports.popleft()


def _report(verdict, quantum="sat", reference="sat"):
    from repro.verify.oracle import OracleReport, Verdict

    return OracleReport(
        verdict=Verdict(verdict),
        quantum_status=SolveStatus.from_value(quantum),
        reference_status=SolveStatus.from_value(reference),
    )


class TestMultiQueryCases:
    def test_load_parses_one_expect_per_query(self, tmp_path):
        (tmp_path / "multi.smt2").write_text(MULTI_QUERY_TEXT)
        (case,) = load_corpus(str(tmp_path))
        assert case.expected is SolveStatus.SAT
        assert case.expected_statuses == [
            SolveStatus.SAT,
            SolveStatus.UNSAT,
            SolveStatus.SAT,
        ]
        # Queries are the flattened stack at each check-sat.
        assert [len(q) for q in case.queries] == [1, 3, 1]
        assert case.queries[0] == case.queries[2]

    def test_replay_walks_every_query_with_its_expectation(self, tmp_path):
        from repro.verify.corpus import _replay_case

        (tmp_path / "multi.smt2").write_text(MULTI_QUERY_TEXT)
        (case,) = load_corpus(str(tmp_path))
        oracle = _StubOracle(
            [
                _report("agree_sat"),
                _report("agree_unsat", quantum="unsat", reference="unsat"),
                _report("agree_sat"),
            ]
        )
        record = _replay_case(case, oracle)
        assert [expected for _a, expected in oracle.calls] == [
            SolveStatus.SAT,
            SolveStatus.UNSAT,
            SolveStatus.SAT,
        ]
        assert oracle.calls[1][0] == case.queries[1]
        # Worst-of ranks agreements below misses; between the two
        # agreements the later severity entry (agree_unsat) wins.
        assert record["verdict"] == "agree_unsat"
        assert [q["verdict"] for q in record["queries"]] == [
            "agree_sat",
            "agree_unsat",
            "agree_sat",
        ]

    def test_case_verdict_is_worst_per_query_verdict(self, tmp_path):
        from repro.verify.corpus import _replay_case

        (tmp_path / "multi.smt2").write_text(MULTI_QUERY_TEXT)
        (case,) = load_corpus(str(tmp_path))
        oracle = _StubOracle(
            [
                _report("agree_sat"),
                _report("soundness_bug", quantum="sat", reference="unsat"),
                _report("unresolved", quantum="unknown"),
            ]
        )
        record = _replay_case(case, oracle)
        assert record["verdict"] == "soundness_bug"

    def test_soundness_bug_at_depth_fails_the_report(self, tmp_path):
        (tmp_path / "multi.smt2").write_text(MULTI_QUERY_TEXT)
        oracle = _StubOracle(
            [
                _report("agree_sat"),
                _report("soundness_bug", quantum="sat", reference="unsat"),
                _report("agree_sat"),
            ]
        )
        report = replay_corpus(str(tmp_path), oracle)
        assert report.total == 1
        assert report.soundness_bugs == 1
        assert not report.ok

    def test_single_query_replay_is_unchanged(self, tmp_path):
        from repro.verify.corpus import _replay_case

        save_case(
            str(tmp_path), "single", _case_assertions(),
            expected=SolveStatus.SAT,
        )
        (case,) = load_corpus(str(tmp_path))
        assert case.expected_statuses == [SolveStatus.SAT]
        assert len(case.queries) == 1
        oracle = _StubOracle([_report("agree_sat")])
        record = _replay_case(case, oracle)
        assert "queries" not in record  # single-query keeps the flat record
        assert oracle.calls == [(case.assertions, SolveStatus.SAT)]

    def test_checked_in_pushpop_seeds_load(self):
        import pathlib

        corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        by_name = {c.name: c for c in load_corpus(str(corpus))}
        case = by_name["seed-pushpop-deep-repush"]
        assert len(case.queries) == 4
        assert [s.value for s in case.expected_statuses] == [
            "sat", "unsat", "sat", "unsat",
        ]
        case = by_name["seed-pushpop-contradict-pop"]
        assert len(case.queries) == 3
        assert case.queries[0] == case.queries[2]
