import hashlib

import numpy as np
import pytest

from repro.anneal.exact import ExactSolver
from repro.anneal.simulated import DEFAULT_NUM_SWEEPS, SimulatedAnnealingSampler
from repro.core import PalindromeGeneration
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models


def _random_model(seed, n=10):
    rng = np.random.default_rng(seed)
    return QuboModel.from_dense(np.triu(rng.normal(size=(n, n))))


class TestBasics:
    def test_returns_requested_reads(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _random_model(0), num_reads=7, num_sweeps=10, seed=0
        )
        assert len(ss) == 7

    def test_energies_consistent_with_model(self):
        m = _random_model(1)
        ss = SimulatedAnnealingSampler().sample_model(
            m, num_reads=5, num_sweeps=20, seed=1
        )
        np.testing.assert_allclose(ss.energies, m.energies(ss.states), atol=1e-9)

    def test_states_are_binary(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _random_model(2), num_reads=4, num_sweeps=10, seed=2
        )
        assert np.isin(ss.states, (0, 1)).all()

    def test_reproducible_with_seed(self):
        m = _random_model(3)
        a = SimulatedAnnealingSampler().sample_model(m, num_reads=4, num_sweeps=30, seed=9)
        b = SimulatedAnnealingSampler().sample_model(m, num_reads=4, num_sweeps=30, seed=9)
        np.testing.assert_array_equal(a.states, b.states)

    def test_empty_model(self):
        ss = SimulatedAnnealingSampler().sample_model(QuboModel(0), num_reads=3)
        assert len(ss) == 3
        assert ss.states.shape == (3, 0)

    def test_offset_carried_into_energies(self):
        m = QuboModel(1, {(0, 0): -1.0}, offset=10.0)
        ss = SimulatedAnnealingSampler().sample_model(m, num_reads=2, num_sweeps=50, seed=0)
        assert ss.first.energy == pytest.approx(9.0)

    def test_info_metadata(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _random_model(4), num_reads=2, num_sweeps=5, seed=0
        )
        assert ss.info["sampler"] == "SimulatedAnnealingSampler"
        assert ss.info["num_sweeps"] == 5


class TestParameterValidation:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError):
            SimulatedAnnealingSampler().sample_model(_random_model(0), bogus=1)

    def test_bad_num_reads(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(_random_model(0), num_reads=0)

    def test_bad_sweep_mode(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(
                _random_model(0), sweep_mode="zigzag"
            )

    def test_bad_schedule_name(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(
                _random_model(0), beta_schedule="exponentialish"
            )

    def test_explicit_schedule_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(
                _random_model(0), beta_schedule=[0.5, -1.0]
            )

    def test_initial_states_shape_checked(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(
                _random_model(0), num_reads=2, initial_states=np.zeros((3, 10))
            )

    def test_initial_states_values_checked(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingSampler().sample_model(
                _random_model(0), num_reads=1, initial_states=np.full(10, 2)
            )


class TestQuality:
    @pytest.mark.parametrize("mode", ["random", "sequential", "colored"])
    def test_finds_ground_state_of_random_model(self, mode):
        m = _random_model(5, n=12)
        _, ground = ExactSolver().ground_state(m)
        ss = SimulatedAnnealingSampler().sample_model(
            m, num_reads=24, num_sweeps=300, seed=5, sweep_mode=mode
        )
        assert ss.first.energy == pytest.approx(ground, abs=1e-9)

    def test_diagonal_model_solved_exactly(self):
        # Diagonal models decouple: every bit independently takes its sign.
        m = QuboModel(30)
        rng = np.random.default_rng(6)
        diag = rng.choice([-1.0, 1.0], size=30)
        for i, v in enumerate(diag):
            m.set_linear(i, v)
        ss = SimulatedAnnealingSampler().sample_model(
            m, num_reads=8, num_sweeps=100, seed=6
        )
        assert ss.first.energy == pytest.approx(np.minimum(diag, 0).sum())

    def test_explicit_beta_schedule_used(self):
        m = _random_model(7)
        ss = SimulatedAnnealingSampler().sample_model(
            m, num_reads=2, beta_schedule=np.array([0.5, 1.0, 2.0]), seed=0
        )
        assert ss.info["num_sweeps"] == 3
        assert ss.info["beta_range"] == (0.5, 2.0)

    def test_linear_schedule_accepted(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _random_model(8), num_reads=2, num_sweeps=10,
            beta_schedule="linear", beta_range=(0.1, 5.0), seed=0,
        )
        assert ss.info["beta_range"] == (pytest.approx(0.1), pytest.approx(5.0))

    def test_initial_states_1d_broadcast(self):
        m = QuboModel(4, {(i, i): 1.0 for i in range(4)})
        # Start at the all-ones state; with a cold schedule SA should fall
        # to all-zeros (the unique optimum).
        ss = SimulatedAnnealingSampler().sample_model(
            m,
            num_reads=3,
            initial_states=np.ones(4, dtype=np.int8),
            beta_schedule=np.array([50.0] * 20),
            seed=0,
        )
        assert ss.first.energy == pytest.approx(0.0)

    def test_colored_equals_scan_on_ground_energy(self):
        m = _random_model(9, n=10)
        _, ground = ExactSolver().ground_state(m)
        colored = SimulatedAnnealingSampler().sample_model(
            m, num_reads=16, num_sweeps=300, seed=1, sweep_mode="colored"
        )
        assert colored.first.energy == pytest.approx(ground, abs=1e-9)


def _digest(sampleset):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sampleset.states).tobytes())
    h.update(np.ascontiguousarray(sampleset.energies).tobytes())
    return h.hexdigest()


class TestDefaults:
    def test_sample_model_defaults_to_colored_budget(self):
        ss = SimulatedAnnealingSampler().sample_model(_random_model(4), seed=0)
        assert ss.info["sweep_mode"] == "colored"
        assert ss.info["num_sweeps"] == DEFAULT_NUM_SWEEPS

    def test_sample_tiled_defaults_to_colored_budget(self):
        tiled = tile_models([_random_model(5), _random_model(6, n=4)])
        for ss in SimulatedAnnealingSampler().sample_tiled(tiled, seed=0):
            assert ss.info["sweep_mode"] == "colored"
            assert ss.info["num_sweeps"] == DEFAULT_NUM_SWEEPS

    def test_paper_reference_setting_is_pinned(self):
        # The paper's configuration — random scan, 256 sweeps — on a §4
        # model in the CSR regime. The digest was recorded before the
        # colored kernel became the default; it must never move.
        model = PalindromeGeneration(12).build_model()
        ss = SimulatedAnnealingSampler().sample_model(
            model, sweep_mode="random", num_sweeps=256, seed=0
        )
        assert ss.info["coupling_form"] == "sparse"
        assert _digest(ss) == (
            "30954d82a25915b3e8fbf0946233a068eba9397d98ed6c4df7b159886e69b5cc"
        )

    def test_explicit_colored_is_unchanged(self):
        # Solo colored solves run the fused kernel with one segment per
        # class; the RNG draws and their order are those of the former
        # solo kernel (digest recorded before the kernels were merged).
        model = PalindromeGeneration(12).build_model()
        ss = SimulatedAnnealingSampler().sample_model(
            model, sweep_mode="colored", num_sweeps=64, seed=0
        )
        assert _digest(ss) == (
            "92daf94e214e3fb2a6ade17402b8562fae0df6afabc22db523b95ed90ce315bb"
        )
