import numpy as np
import pytest

from repro.anneal.greedy import SteepestDescentSampler
from repro.anneal.exact import ExactSolver
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models
from tests.anneal.test_colored_digests import _compiled_models, _digest, _switched_models


class TestSteepestDescent:
    def test_reaches_local_minimum(self):
        rng = np.random.default_rng(0)
        m = QuboModel.from_dense(np.triu(rng.normal(size=(12, 12))))
        ss = SteepestDescentSampler().sample_model(m, num_reads=8, seed=0)
        # At a local minimum no single flip improves.
        diag, coupling = m.sampler_form()
        for state in ss.states:
            fields = coupling.matmul_dense(state)
            dx = 1.0 - 2.0 * state
            deltas = dx * (diag + fields)
            assert np.all(deltas >= -1e-9)

    def test_diagonal_model_globally_solved(self):
        m = QuboModel(20)
        rng = np.random.default_rng(1)
        diag = rng.choice([-1.0, 2.0], size=20)
        for i, v in enumerate(diag):
            m.set_linear(i, v)
        ss = SteepestDescentSampler().sample_model(m, num_reads=4, seed=1)
        assert ss.first.energy == pytest.approx(np.minimum(diag, 0).sum())

    def test_descent_never_increases_energy(self):
        rng = np.random.default_rng(2)
        m = QuboModel.from_dense(np.triu(rng.normal(size=(10, 10))))
        starts = rng.integers(0, 2, size=(6, 10), dtype=np.int8)
        start_energies = m.energies(starts)
        ss = SteepestDescentSampler().sample_model(
            m, num_reads=6, initial_states=starts, seed=2
        )
        assert ss.energies.max() <= start_energies.max() + 1e-9

    def test_initial_state_already_minimal(self):
        m = QuboModel(3, {(i, i): 1.0 for i in range(3)})
        zeros = np.zeros(3, dtype=np.int8)
        ss = SteepestDescentSampler().sample_model(
            m, num_reads=2, initial_states=zeros
        )
        np.testing.assert_array_equal(ss.states, np.zeros((2, 3)))
        assert ss.info["total_steps"] == 0

    def test_max_steps_caps_work(self):
        rng = np.random.default_rng(3)
        m = QuboModel.from_dense(np.triu(rng.normal(size=(8, 8))))
        ss = SteepestDescentSampler().sample_model(
            m, num_reads=4, max_steps=1, seed=3
        )
        assert ss.info["total_steps"] <= 4  # one outer iteration, <= R flips

    def test_matches_exact_on_easy_landscape(self):
        # Ferromagnetic chain: descent from any state reaches a ground state.
        m = QuboModel(6)
        for i in range(5):
            m.set_quadratic(i, i + 1, -1.0)
        _, ground = ExactSolver().ground_state(m)
        ss = SteepestDescentSampler().sample_model(m, num_reads=16, seed=4)
        assert ss.first.energy == pytest.approx(ground)

    def test_empty_model(self):
        ss = SteepestDescentSampler().sample_model(QuboModel(0), num_reads=2)
        assert len(ss) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SteepestDescentSampler().sample_model(QuboModel(1), num_reads=0)
        with pytest.raises(TypeError):
            SteepestDescentSampler().sample_model(QuboModel(1), nope=1)
        with pytest.raises(ValueError):
            SteepestDescentSampler().sample_model(
                QuboModel(2), num_reads=1, initial_states=np.zeros((2, 2))
            )


class TestSwitchedModelDigests:
    """Fixed-seed digests recorded while models under 64 variables ran
    the dense coupling form, before descent moved to the CSR flip update."""

    def test_solo_check_sat_model(self):
        ss = SteepestDescentSampler().sample_model(
            _switched_models()[0], num_reads=16, seed=5
        )
        assert _digest(ss) == (
            "3aa56819a27bbf9dc2670edf0f61b11df8dfb80fd771be2697c2c803a2dcaf6f"
        )

    def test_solo_weighted_model(self):
        ss = SteepestDescentSampler().sample_model(
            _switched_models()[3], num_reads=16, seed=5
        )
        assert _digest(ss) == (
            "4e8f03ddf40fbd2297fdbc66aaf71d1f08a90845996cd9ce965e17edfc4f31c8"
        )

    def test_tiled(self):
        models = [_switched_models()[0], _compiled_models([4])[0]]
        results = SteepestDescentSampler().sample_tiled(
            tile_models(models), num_reads=16, seed=5
        )
        assert _digest(*results) == (
            "e4df2597400b0dee11352b4ff6ad6ceb4413af6b732aeb35feaa00d9f0faf355"
        )
