"""SolveSpec: the one solver configuration every per-item entry point shares."""

import pickle
import random

import numpy as np
import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.server.app import ServerConfig, SolverServer
from repro.service.batch import BatchSolver
from repro.service.cache import CompileCache
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec, execute
from repro.smt import ast
from repro.smt.parser import parse_script
from repro.smt.solver import QuantumSMTSolver

#: Non-default values for every SolveSpec field the boundaries accept by name.
SHARED = dict(
    num_reads=24,
    seed=7,
    sampler_params={"num_sweeps": 50},
    sampler_factory=SimulatedAnnealingSampler,
    penalty_strength=2.0,
    strategy="refine",
    refine_max_rounds=2,
    opt_max_restarts=3,
    opt_exhaustive_bits=8,
)


class TestSolveSpec:
    def test_pickle_round_trip(self):
        spec = SolveSpec(
            policy=RetryPolicy(max_attempts=5, attempt_timeout=2.0),
            opt_deadline_ms=250.0,
            **SHARED,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.policy == RetryPolicy(max_attempts=5, attempt_timeout=2.0)

    def test_defaults(self):
        spec = SolveSpec()
        assert spec.policy == RetryPolicy(max_attempts=3)
        assert spec.sampler_params == {}
        assert spec.sampler() is None

    def test_sampler_params_copied(self):
        params = {"num_sweeps": 10}
        spec = SolveSpec(sampler_params=params)
        params["num_sweeps"] = 99
        assert spec.sampler_params == {"num_sweeps": 10}

    def test_policy_within_clamps_attempt_timeout(self):
        spec = SolveSpec(policy=RetryPolicy(max_attempts=2, attempt_timeout=5.0))
        assert spec.policy_within(None) is spec.policy
        assert spec.policy_within(1.5).attempt_timeout == 1.5
        assert spec.policy_within(9.0).attempt_timeout == 5.0
        assert spec.policy_within(-1.0).attempt_timeout == 1e-3
        assert spec.policy_within(1.5).max_attempts == 2

    def test_solver_carries_every_field(self):
        policy = RetryPolicy(max_attempts=4)
        cache = CompileCache(maxsize=4)
        spec = SolveSpec(policy=policy, **SHARED)
        solver = spec.solver(cache=cache)
        assert solver.retry_policy is policy
        assert solver.strategy == "refine"
        assert solver.refine_max_rounds == 2
        assert solver.compile_cache is cache
        assert solver.penalty_strength == 2.0
        override = RetryPolicy(max_attempts=1)
        assert spec.solver(policy=override).retry_policy is override
        # The direct strategy never hands the cache to the solver.
        assert SolveSpec().solver(cache=cache).compile_cache is None

    def test_optimizer_carries_opt_budgets(self):
        spec = SolveSpec(opt_deadline_ms=300.0, **SHARED)
        optimizer = spec.optimizer()
        assert optimizer.max_restarts == 3
        assert optimizer.exhaustive_bits == 8
        assert optimizer.deadline_ms == 300.0
        assert spec.optimizer(deadline_ms=50.0).deadline_ms == 50.0


class TestOwnersHoldOneSpec:
    def test_server_owners_hold_the_config_spec(self, monkeypatch):
        built = []
        solve_spec = ServerConfig.solve_spec

        def recording(config):
            built.append(solve_spec(config))
            return built[-1]

        monkeypatch.setattr(ServerConfig, "solve_spec", recording)
        for backend in ("thread", "process"):
            config = ServerConfig(port=0, workers=1, backend=backend, **SHARED)
            built.clear()
            server = SolverServer(config)
            try:
                assert len(built) == 1
                assert server.spec is built[0]
                assert server.pool.spec is built[0]
                assert server._new_session().spec is built[0]
            finally:
                server.pool.shutdown()
        assert built[0] == SolveSpec(**SHARED)

    def test_campaign_oracle_holds_the_config_spec(self, monkeypatch):
        from repro.service.batch import BatchSolver as Batch
        from repro.verify import campaign

        built, oracles, batches = [], [], []
        solve_spec = campaign.CampaignConfig.solve_spec
        solve_batch = Batch.solve_batch

        def recording(config):
            built.append(solve_spec(config))
            return built[-1]

        class RecordingOracle(campaign.DifferentialOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                oracles.append(self)

        def recording_batch(batch, items, **params):
            batches.append(batch)
            return solve_batch(batch, items, **params)

        monkeypatch.setattr(campaign.CampaignConfig, "solve_spec", recording)
        monkeypatch.setattr(campaign, "DifferentialOracle", RecordingOracle)
        monkeypatch.setattr(Batch, "solve_batch", recording_batch)
        config = campaign.CampaignConfig(
            instances=2, seed=5, num_reads=8, num_sweeps=32, max_attempts=2,
            num_workers=2, shrink_failures=False,
        )
        campaign.run_campaign(config)
        assert len(built) == 1 and len(oracles) == 1 and len(batches) == 1
        assert oracles[0].spec is built[0]
        assert batches[0].spec is built[0]
        assert built[0] == SolveSpec(
            num_reads=8,
            seed=5,
            sampler_params={"num_sweeps": 32},
            policy=RetryPolicy(max_attempts=2),
        )


class TestCompileCached:
    def test_session_and_oracle_sharing_a_registry(self):
        # Sessions and the oracle compile through compile_cached but keep
        # their own books: a shared registry gains compile timings and
        # oracle verdicts, never cache.* counters.
        from repro.service.metrics import MetricsRegistry
        from repro.smt.session import SolverSession
        from repro.verify.oracle import DifferentialOracle

        spec = SolveSpec(seed=0, num_reads=8, sampler_params={"num_sweeps": 32})
        metrics, cache = MetricsRegistry(), CompileCache(maxsize=16)
        session = SolverSession(spec, cache=cache, metrics=metrics)
        oracle = DifferentialOracle(spec, cache=cache, metrics=metrics)
        x = ast.StrVar("x")
        length = ast.Eq(ast.Length(x), ast.IntLit(2))
        word = ast.Eq(x, ast.StrLit("ab"))
        session.assert_term(length)
        session.check_sat()
        oracle.check([length])
        session.push()
        session.assert_term(word)
        session.check_sat()
        session.pop()
        oracle.check([length, word])
        oracle.check([length])
        export = metrics.export()
        assert export["counters"] == {
            "oracle.agree_sat": 3,
            "oracle.checks": 3,
            "smt.check_sat": 5,
            "smt.sat": 5,
        }
        assert export["histograms"]["compile"]["count"] == 2
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)
        assert (session.stats.compile_hits, session.stats.compile_misses) == (0, 2)


def _owners():
    """``(name, build, accepts opt_*)`` per loose-keyword boundary."""
    return [
        ("BatchSolver", BatchSolver, True),
        ("ServerConfig", ServerConfig, True),
        ("QuantumSMTSolver", QuantumSMTSolver, False),
    ]


VALIDATIONS = [
    (
        {"strategy": "bogus"},
        "strategy must be 'direct' or 'refine', got 'bogus'",
        False,
    ),
    ({"refine_max_rounds": -1}, "refine_max_rounds must be >= 0, got -1", False),
    ({"opt_max_restarts": 0}, "opt_max_restarts must be >= 1, got 0", True),
    ({"opt_exhaustive_bits": -1}, "opt_exhaustive_bits must be >= 0, got -1", True),
]


@pytest.mark.parametrize(
    "kwargs,message,opt_only",
    VALIDATIONS,
    ids=[next(iter(kw)) for kw, _, _ in VALIDATIONS],
)
@pytest.mark.parametrize(
    "name,build,accepts_opt",
    _owners(),
    ids=[owner[0] for owner in _owners()],
)
def test_moved_validation(name, build, accepts_opt, kwargs, message, opt_only):
    if opt_only and not accepts_opt:
        pytest.skip(f"{name} takes no opt_* budget")
    with pytest.raises(ValueError) as info:
        build(**kwargs)
    assert type(info.value) is ValueError
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        SolveSpec(**kwargs)
    assert str(info.value) == message


def _seeded_boundaries():
    """``(name, build from a seed)`` per boundary that builds a SolveSpec."""
    from repro.verify.campaign import CampaignConfig
    from repro.verify.optimality import OptCampaignConfig

    return [
        ("SolveSpec", lambda seed: SolveSpec(seed=seed)),
        ("BatchSolver", lambda seed: BatchSolver(seed=seed)),
        ("ServerConfig", lambda seed: ServerConfig(seed=seed)),
        ("CampaignConfig", lambda seed: CampaignConfig(seed=seed).solve_spec()),
        (
            "OptCampaignConfig",
            lambda seed: OptCampaignConfig(seed=seed).solve_spec(),
        ),
    ]


@pytest.mark.parametrize(
    "name,build",
    _seeded_boundaries(),
    ids=[boundary[0] for boundary in _seeded_boundaries()],
)
def test_live_seed_rejected(name, build):
    with pytest.raises(TypeError, match="reproducible seed"):
        build(np.random.default_rng(0))
    with pytest.raises(TypeError, match="reproducible seed"):
        build(random.Random(0))
    assert build(7) is not None


class TestExecute:
    def test_plain_matches_check_sat(self):
        spec = SolveSpec(seed=3, num_reads=16, sampler_params={"num_sweeps": 100})
        x = ast.StrVar("x")
        assertions = [ast.Eq(ast.Length(x), ast.IntLit(2))]
        outcome = execute(spec, assertions, cache=CompileCache(), metrics=None)
        solver = QuantumSMTSolver(
            seed=3, num_reads=16, sampler_params={"num_sweeps": 100}
        )
        solver.assertions = list(assertions)
        assert outcome.status == solver.check_sat().status
        assert outcome.model == solver.get_model()
        assert outcome.cache_hit is False
        assert outcome.opt_status == ""

    def test_compilation_error_becomes_unknown(self):
        script = parse_script(
            '(declare-const y String)(assert (= (str.++ y "b") "ab"))'
        )
        outcome = execute(
            SolveSpec(seed=0), script.assertions, cache=CompileCache(), metrics=None
        )
        assert outcome.status == "unknown"
        assert outcome.error_type == "CompilationError"
        assert outcome.result.reason.startswith("compilation: ")

    def test_soft_assertions_optimize(self):
        x = ast.StrVar("x")
        outcome = execute(
            SolveSpec(seed=0, num_reads=16),
            [ast.Eq(ast.Length(x), ast.IntLit(1))],
            [ast.SoftAssertion(term=ast.Eq(x, ast.StrLit("b")), weight=2.0)],
            cache=CompileCache(),
            metrics=None,
        )
        assert outcome.status == "sat"
        assert outcome.opt_status == "optimal"
        assert outcome.model == {"x": "b"}
        assert outcome.objective == 0.0
