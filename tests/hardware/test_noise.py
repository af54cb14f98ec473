import numpy as np
import pytest

from repro.hardware.noise import GaussianNoiseModel


def _ising():
    return {"a": 1.0, "b": -0.5}, {("a", "b"): 0.25}


class TestGaussianNoiseModel:
    def test_input_untouched(self):
        h, j = _ising()
        GaussianNoiseModel(0.5, 0.5).apply(h, j, seed=0)
        assert h["a"] == 1.0
        assert j[("a", "b")] == 0.25

    def test_zero_sigma_is_identity(self):
        h, j = GaussianNoiseModel(0.0, 0.0).apply(*_ising(), seed=0)
        assert h["a"] == 1.0
        assert j[("a", "b")] == 0.25

    def test_perturbation_magnitude(self):
        rng_draws = [
            GaussianNoiseModel(0.1, 0.0).apply(*_ising(), seed=s)[0]["a"]
            for s in range(200)
        ]
        deviations = np.array(rng_draws) - 1.0
        assert abs(deviations.mean()) < 0.05
        assert 0.05 < deviations.std() < 0.2

    def test_coupling_noise(self):
        h, j = GaussianNoiseModel(0.0, 0.5).apply(*_ising(), seed=1)
        assert j[("a", "b")] != 0.25
        assert h["a"] == 1.0

    def test_range_clamping(self):
        model = GaussianNoiseModel(0.0, 0.0, h_range=0.5, j_range=0.1)
        h, j = model.apply(*_ising(), seed=0)
        assert h["a"] == 0.5  # clamped from 1.0
        assert j[("a", "b")] == pytest.approx(0.1)

    def test_reproducible(self):
        a = GaussianNoiseModel(0.2, 0.2).apply(*_ising(), seed=42)
        b = GaussianNoiseModel(0.2, 0.2).apply(*_ising(), seed=42)
        assert a[0]["a"] == b[0]["a"]
        assert a[1][("a", "b")] == b[1][("a", "b")]

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNoiseModel(h_sigma=-0.1)
        with pytest.raises(ValueError):
            GaussianNoiseModel(h_range=0.0)
        with pytest.raises(ValueError):
            GaussianNoiseModel(j_range=-1.0)

    def test_repr(self):
        assert "GaussianNoiseModel" in repr(GaussianNoiseModel())

    def test_seeds_differ(self):
        model = GaussianNoiseModel(0.2, 0.2)
        a = model.apply(*_ising(), seed=1)
        b = model.apply(*_ising(), seed=2)
        assert a[0]["a"] != b[0]["a"]

    def test_structure_preserved(self):
        # Noise perturbs coefficients only: same fields, same couplings.
        h, j = GaussianNoiseModel(0.3, 0.3).apply(*_ising(), seed=5)
        clean_h, clean_j = _ising()
        assert set(h) == set(clean_h)
        assert set(map(frozenset, j)) == set(map(frozenset, clean_j))

    def test_sigma_scales_spread(self):
        def spread(sigma):
            draws = [
                GaussianNoiseModel(sigma, 0.0).apply(*_ising(), seed=s)[0]["a"]
                for s in range(100)
            ]
            return np.std(draws)

        assert spread(0.4) > 2 * spread(0.05)

    def test_empty_model(self):
        h, j = GaussianNoiseModel(0.1, 0.1).apply({}, {}, seed=0)
        assert len(list(h)) == 0
        assert len(j) == 0

    def test_fields_drawn_before_couplings(self):
        # The draw order sets which normal lands on which term: all
        # fields first, then all couplings, each in dict order.
        h, j = GaussianNoiseModel(1.0, 1.0).apply(*_ising(), seed=3)
        draws = np.random.default_rng(3).normal(0.0, 1.0, size=3)
        assert h["a"] == 1.0 + draws[0]
        assert h["b"] == -0.5 + draws[1]
        assert j[("a", "b")] == 0.25 + draws[2]
