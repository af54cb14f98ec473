import numpy as np
import pytest

from repro.anneal.exact import ExactSolver
from repro.anneal.tabu import TabuSampler
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models
from tests.anneal.test_colored_digests import _compiled_models, _digest, _switched_models


def _random_model(seed, n=10):
    rng = np.random.default_rng(seed)
    return QuboModel.from_dense(np.triu(rng.normal(size=(n, n))))


class TestTabuSampler:
    def test_finds_ground_state(self):
        m = _random_model(0, n=12)
        _, ground = ExactSolver().ground_state(m)
        ss = TabuSampler().sample_model(m, num_reads=16, seed=0)
        assert ss.first.energy == pytest.approx(ground, abs=1e-9)

    def test_energies_consistent(self):
        m = _random_model(1)
        ss = TabuSampler().sample_model(m, num_reads=4, num_steps=30, seed=1)
        np.testing.assert_allclose(ss.energies, m.energies(ss.states), atol=1e-9)

    def test_reported_best_not_final(self):
        # Tabu wanders uphill; the reported states must be the best seen,
        # which can only improve with more steps.
        m = _random_model(2)
        short = TabuSampler().sample_model(m, num_reads=8, num_steps=5, seed=2)
        long = TabuSampler().sample_model(m, num_reads=8, num_steps=200, seed=2)
        assert long.first.energy <= short.first.energy + 1e-9

    def test_reproducible(self):
        m = _random_model(3)
        a = TabuSampler().sample_model(m, num_reads=4, seed=5)
        b = TabuSampler().sample_model(m, num_reads=4, seed=5)
        np.testing.assert_array_equal(a.states, b.states)

    def test_diagonal_model(self):
        m = QuboModel(15)
        for i in range(15):
            m.set_linear(i, -1.0 if i % 3 else 1.0)
        ss = TabuSampler().sample_model(m, num_reads=4, seed=0)
        assert ss.first.energy == pytest.approx(-10.0)

    def test_empty_model(self):
        ss = TabuSampler().sample_model(QuboModel(0), num_reads=3)
        assert len(ss) == 3

    def test_zero_tenure_allowed(self):
        m = _random_model(4, n=6)
        ss = TabuSampler().sample_model(m, num_reads=2, tenure=0, seed=0)
        assert len(ss) == 2

    def test_validation(self):
        m = _random_model(5, n=4)
        with pytest.raises(ValueError):
            TabuSampler().sample_model(m, num_reads=0)
        with pytest.raises(ValueError):
            TabuSampler().sample_model(m, num_steps=0)
        with pytest.raises(ValueError):
            TabuSampler().sample_model(m, tenure=4)  # must be < n
        with pytest.raises(TypeError):
            TabuSampler().sample_model(m, nonsense=1)

    def test_info(self):
        ss = TabuSampler().sample_model(_random_model(6, 4), num_reads=2, seed=0)
        assert ss.info["sampler"] == "TabuSampler"
        assert "tenure" in ss.info


class TestSwitchedModelDigests:
    """Fixed-seed digests recorded while models under 64 variables ran
    the dense coupling form, before tabu moved to the CSR flip update."""

    def test_solo_check_sat_model(self):
        ss = TabuSampler().sample_model(_switched_models()[0], num_reads=8, seed=5)
        assert _digest(ss) == (
            "5373159a0211ddbe2de1696ed7c4ffb2904ab107dbb947babd5ea3924eda97ea"
        )

    def test_solo_weighted_model(self):
        ss = TabuSampler().sample_model(_switched_models()[3], num_reads=8, seed=5)
        assert _digest(ss) == (
            "0ecab400698080ae4a6fc425186f7b3051d10bd83b4464498c6d555cc789880f"
        )

    def test_tiled(self):
        models = [_switched_models()[0], _compiled_models([4])[0]]
        results = TabuSampler().sample_tiled(tile_models(models), num_reads=8, seed=5)
        assert _digest(*results) == (
            "0ecdfe7e069a0ced8d6626b197759dd3b468c4d672b155d4714253825158017c"
        )
