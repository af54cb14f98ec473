import numpy as np
import pytest

from repro.anneal.schedule import (
    default_beta_range,
    geometric_schedule,
    linear_schedule,
    transverse_field_schedule,
)
from repro.qubo.sparse import csr_from_coefficients


class TestDefaultBetaRange:
    def test_orders_hot_below_cold(self):
        d = np.array([1.0, -2.0, 0.5])
        w = csr_from_coefficients({}, 3)
        hot, cold = default_beta_range(d, w)
        assert 0 < hot < cold

    def test_couplings_extend_reach(self):
        d = np.ones(2)
        w0 = csr_from_coefficients({}, 2)
        w1 = csr_from_coefficients({(0, 1): 5.0}, 2)
        hot0, _ = default_beta_range(d, w0)
        hot1, _ = default_beta_range(d, w1)
        assert hot1 < hot0  # larger energy scale -> hotter start

    def test_all_zero_model(self):
        hot, cold = default_beta_range(np.zeros(3), csr_from_coefficients({}, 3))
        assert 0 < hot < cold


class TestSchedules:
    def test_geometric_endpoints(self):
        betas = geometric_schedule(0.1, 10.0, 50)
        assert betas[0] == pytest.approx(0.1)
        assert betas[-1] == pytest.approx(10.0)
        assert betas.shape == (50,)

    def test_geometric_monotone(self):
        betas = geometric_schedule(0.1, 10.0, 20)
        assert np.all(np.diff(betas) > 0)

    def test_geometric_ratio_constant(self):
        betas = geometric_schedule(1.0, 8.0, 4)
        ratios = betas[1:] / betas[:-1]
        np.testing.assert_allclose(ratios, ratios[0])

    def test_linear_spacing_constant(self):
        betas = linear_schedule(1.0, 5.0, 5)
        np.testing.assert_allclose(np.diff(betas), 1.0)

    def test_single_sweep_uses_cold(self):
        assert geometric_schedule(0.1, 7.0, 1)[0] == 7.0
        assert linear_schedule(0.1, 7.0, 1)[0] == 7.0

    def test_invalid_endpoints(self):
        with pytest.raises(ValueError):
            geometric_schedule(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            geometric_schedule(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            linear_schedule(1.0, 2.0, 0)


class TestTransverseField:
    def test_decreasing(self):
        gammas = transverse_field_schedule(10.0, 0.1, 30)
        assert np.all(np.diff(gammas) < 0)

    def test_zero_final_clamped_positive(self):
        gammas = transverse_field_schedule(1.0, 0.0, 10)
        assert gammas[-1] > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transverse_field_schedule(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            transverse_field_schedule(1.0, 2.0, 10)
        with pytest.raises(ValueError):
            transverse_field_schedule(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            transverse_field_schedule(1.0, 0.5, 0)
