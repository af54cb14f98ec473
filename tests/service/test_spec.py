"""SolveSpec: the one solver configuration every per-item entry point shares."""

import pickle

import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.server.app import ServerConfig, SolverServer
from repro.server.procpool import ProcessSolverBackend
from repro.server.workers import SolverWorkerPool
from repro.service.batch import BatchSolver
from repro.service.cache import CompileCache
from repro.service.policy import RetryPolicy
from repro.service.spec import SolveSpec, execute
from repro.smt import ast
from repro.smt.parser import parse_script
from repro.smt.session import SessionError, SolverSession
from repro.smt.solver import QuantumSMTSolver
from repro.verify.oracle import DifferentialOracle

#: Non-default values for every SolveSpec field the owners accept by name.
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


class TestOwnersHoldEqualSpecs:
    def test_same_kwargs_same_spec(self):
        batch = BatchSolver(**SHARED)
        pool = SolverWorkerPool(workers=1, **SHARED)
        process = ProcessSolverBackend(workers=1, **SHARED)
        session = SolverSession(**SHARED)
        server = SolverServer(ServerConfig(port=0, workers=1, **SHARED))
        try:
            specs = [
                batch.spec,
                pool.spec,
                process.spec,
                session.spec,
                server.pool.spec,
                server._new_session().spec,
            ]
        finally:
            pool.shutdown()
            process.shutdown()
            server.pool.shutdown()
        assert all(spec == specs[0] for spec in specs[1:])
        assert specs[0] == SolveSpec(**SHARED)


def _owners():
    """``(name, build, exception type, accepts opt_*)`` per constructor."""
    return [
        ("BatchSolver", BatchSolver, ValueError, True),
        ("SolverWorkerPool", SolverWorkerPool, ValueError, True),
        ("ProcessSolverBackend", ProcessSolverBackend, ValueError, True),
        ("SolverSession", SolverSession, SessionError, True),
        ("ServerConfig", ServerConfig, ValueError, True),
        ("DifferentialOracle", DifferentialOracle, ValueError, False),
        ("QuantumSMTSolver", QuantumSMTSolver, ValueError, False),
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
    "name,build,exc_type,accepts_opt",
    _owners(),
    ids=[owner[0] for owner in _owners()],
)
def test_moved_validation(
    name, build, exc_type, accepts_opt, kwargs, message, opt_only
):
    if opt_only and not accepts_opt:
        pytest.skip(f"{name} takes no opt_* budget")
    with pytest.raises(exc_type) as info:
        build(**kwargs)
    assert type(info.value) is exc_type
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        SolveSpec(**kwargs)
    assert str(info.value) == message


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
