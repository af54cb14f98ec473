"""Unit tests for the sparse (CSR) QUBO path.

Covers the CSR container itself, the builders, the single-flip field
update, the batched energy kernel, the density diagnostics driving the
energy-kernel choice, and the model-level integration (``sampler_form`` /
``energies`` / read-only ``to_dense`` / cache-free pickling).
"""

import pickle

import numpy as np
import pytest

from repro.core import PalindromeGeneration, StringEquality
from repro.qubo.energy import qubo_energies
from repro.qubo.matrix import split_diagonal
from repro.qubo.model import QuboModel
from repro.qubo.sparse import (
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_VARIABLES,
    CsrMatrix,
    coupling_density,
    csr_from_coefficients,
    flip_update,
    prefers_sparse,
    qubo_energies_csr,
    sparse_sampler_form,
    sparse_stats,
)


def _random_model(seed, n=12, density=0.3):
    rng = np.random.default_rng(seed)
    q = np.triu(rng.normal(size=(n, n)))
    mask = np.triu(rng.random((n, n)) < density, k=1)
    q *= mask | np.eye(n, dtype=bool)
    return QuboModel.from_dense(q, offset=float(rng.normal()))


class TestCsrMatrix:
    def test_round_trips_dense(self):
        model = _random_model(0)
        csr = csr_from_coefficients(model.to_dict(), model.num_variables)
        _, dense_coupling = split_diagonal(model.to_dense())
        np.testing.assert_allclose(csr.to_dense(), dense_coupling)

    def test_symmetric_zero_diagonal(self):
        csr = csr_from_coefficients({(0, 1): 2.0, (2, 2): 5.0}, 3)
        dense = csr.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)
        assert csr.nnz == 2  # both mirror images, diagonal ignored

    def test_row_views(self):
        csr = csr_from_coefficients({(0, 1): 2.0, (0, 2): -1.0}, 3)
        cols, vals = csr.row(0)
        np.testing.assert_array_equal(cols, [1, 2])
        np.testing.assert_allclose(vals, [2.0, -1.0])
        cols, vals = csr.row(1)
        np.testing.assert_array_equal(cols, [0])
        assert len(csr.rows()) == 3

    def test_arrays_are_frozen(self):
        csr = csr_from_coefficients({(0, 1): 1.0}, 2)
        with pytest.raises(ValueError):
            csr.data[0] = 7.0
        with pytest.raises(ValueError):
            csr.indices[0] = 0

    def test_matmul_dense_matches_dense(self):
        model = _random_model(1)
        csr = csr_from_coefficients(model.to_dict(), model.num_variables)
        _, w = split_diagonal(model.to_dense())
        x = np.random.default_rng(2).integers(
            0, 2, size=(5, model.num_variables)
        ).astype(np.float64)
        np.testing.assert_allclose(csr.matmul_dense(x), x @ w, atol=1e-12)

    def test_abs_row_sums(self):
        model = _random_model(3)
        csr = csr_from_coefficients(model.to_dict(), model.num_variables)
        _, w = split_diagonal(model.to_dense())
        np.testing.assert_allclose(
            csr.abs_row_sums(), np.abs(w).sum(axis=1), atol=1e-12
        )

    def test_empty_coupling(self):
        csr = csr_from_coefficients({(0, 0): 1.0, (1, 1): -1.0}, 2)
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.matmul_dense(np.ones((3, 2))), np.zeros((3, 2)))
        np.testing.assert_allclose(csr.to_dense(), np.zeros((2, 2)))
        np.testing.assert_allclose(csr.abs_row_sums(), np.zeros(2))

    def test_pickle_ships_triplet_only(self):
        csr = csr_from_coefficients({(0, 1): 2.0, (1, 2): 3.0}, 3)
        csr._as_scipy()  # populate the lazy cache
        clone = pickle.loads(pickle.dumps(csr))
        assert clone == csr
        assert clone._scipy_cache is None
        # The rebuilt arrays must be frozen again.
        with pytest.raises(ValueError):
            clone.data[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 1))
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0]), np.array([], dtype=int),
                      np.array([]), (1, 1))
        with pytest.raises(ValueError):
            csr_from_coefficients({(0, 5): 1.0}, 3)


class TestEnergiesCsr:
    def test_matches_dense_on_random_model(self):
        model = _random_model(4, n=10)
        diag, csr = sparse_sampler_form(model.to_dict(), model.num_variables)
        states = np.random.default_rng(5).integers(0, 2, size=(32, 10))
        dense = qubo_energies(states, model.to_dense(), model.offset)
        sparse = qubo_energies_csr(states, diag, csr, model.offset)
        np.testing.assert_allclose(sparse, dense, atol=1e-9)

    def test_exact_on_integer_string_model(self):
        model = PalindromeGeneration(6).build_model()
        diag, csr = sparse_sampler_form(model.to_dict(), model.num_variables)
        states = np.random.default_rng(6).integers(
            0, 2, size=(16, model.num_variables)
        )
        dense = qubo_energies(states, model.to_dense(), model.offset)
        sparse = qubo_energies_csr(states, diag, csr, model.offset)
        np.testing.assert_array_equal(sparse, dense)  # bit-identical

    def test_single_state(self):
        model = _random_model(7, n=6)
        diag, csr = sparse_sampler_form(model.to_dict(), 6)
        state = np.array([1, 0, 1, 1, 0, 0])
        assert qubo_energies_csr(state, diag, csr, model.offset) == (
            pytest.approx(model.energy(state), abs=1e-9)
        )

    def test_width_mismatch_raises(self):
        diag, csr = sparse_sampler_form({(0, 1): 1.0}, 2)
        with pytest.raises(ValueError):
            qubo_energies_csr(np.zeros((3, 5)), diag, csr)



class TestFlipUpdate:
    def test_matches_dense_row_updates(self):
        model = _random_model(8, n=8)
        _, csr = sparse_sampler_form(model.to_dict(), 8)
        _, w = split_diagonal(model.to_dense())
        fields = np.random.default_rng(9).normal(size=(5, 8))
        rows = np.array([0, 2, 3, 4])
        cols = np.array([5, 5, 0, 7])
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        expected = fields.copy()
        expected[rows] += signs[:, None] * w[cols]
        flip_update(fields, csr, rows, cols, signs)
        np.testing.assert_array_equal(fields, expected)

    def test_empty_rows_and_no_flips(self):
        csr = csr_from_coefficients({(0, 1): 2.0}, 3)
        fields = np.zeros((2, 3))
        flip_update(fields, csr, np.array([0]), np.array([2]), np.array([1.0]))
        flip_update(fields, csr, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        np.testing.assert_array_equal(fields, np.zeros((2, 3)))
        flip_update(fields, csr, np.array([1]), np.array([0]), np.array([-1.0]))
        np.testing.assert_array_equal(fields, [[0, 0, 0], [0, -2.0, 0]])


class TestAutoSelection:
    def test_string_models_prefer_sparse(self):
        # The acceptance regime: length >= 64 palindromes (448 variables).
        for formulation in (PalindromeGeneration(64), StringEquality("x" * 64)):
            model = formulation.build_model()
            assert model.num_variables >= SPARSE_MIN_VARIABLES
            assert model.coupling_density() <= SPARSE_DENSITY_THRESHOLD
            assert model.prefers_sparse()
            _, coupling = model.sampler_form()
            assert isinstance(coupling, CsrMatrix)

    def test_small_models_stay_dense(self):
        # Small models keep the dense energy kernel; their sampler form is
        # CSR like every other model's.
        model = PalindromeGeneration(4).build_model()  # 28 variables
        assert not model.prefers_sparse()
        _, coupling = model.sampler_form()
        assert isinstance(coupling, CsrMatrix)

    def test_dense_random_models_stay_dense(self):
        n = SPARSE_MIN_VARIABLES + 8
        rng = np.random.default_rng(10)
        model = QuboModel.from_dense(np.triu(rng.normal(size=(n, n))))
        assert model.coupling_density() > SPARSE_DENSITY_THRESHOLD
        assert not model.prefers_sparse()

    def test_sampler_form_matches_dense_split(self):
        model = PalindromeGeneration(4).build_model()
        diag_s, sparse = model.sampler_form()
        assert isinstance(sparse, CsrMatrix)
        diag_d, dense = split_diagonal(model.to_dense())
        np.testing.assert_array_equal(diag_s, diag_d)
        np.testing.assert_allclose(sparse.to_dense(), dense)
        with pytest.raises(TypeError):
            model.sampler_form("sparse")

    def test_prefers_sparse_thresholds(self):
        assert prefers_sparse(SPARSE_MIN_VARIABLES, SPARSE_DENSITY_THRESHOLD)
        assert not prefers_sparse(SPARSE_MIN_VARIABLES - 1, 0.0)
        assert not prefers_sparse(10**6, SPARSE_DENSITY_THRESHOLD * 1.01)

    def test_coupling_density(self):
        assert coupling_density({}, 5) == 0.0
        assert coupling_density({(0, 0): 1.0}, 5) == 0.0  # diagonal only
        assert coupling_density({(0, 1): 1.0}, 2) == pytest.approx(1.0)
        assert coupling_density({(0, 1): 0.0}, 2) == 0.0  # stored zero

    def test_sparse_stats(self):
        model = PalindromeGeneration(64).build_model()
        stats = sparse_stats(model.to_dict(), model.num_variables)
        assert stats.num_variables == 448
        assert stats.auto_sparse
        assert stats.coupling_nnz == 2 * 7 * 32  # mirrored bit pairs
        assert stats.max_degree == 1
        assert stats.memory_ratio >= 5.0  # the acceptance bound
        assert stats.density == pytest.approx(model.coupling_density())


class TestModelIntegration:
    def test_to_dense_is_read_only(self):
        # Regression: to_dense() used to hand out the writable cache, so a
        # caller's in-place edit silently corrupted later evaluations.
        model = _random_model(11)
        dense = model.to_dense()
        with pytest.raises(ValueError):
            dense[0, 0] = 99.0
        assert model.to_dense() is dense  # still the cache

    def test_mutation_invalidates_all_caches(self):
        model = PalindromeGeneration(4).build_model().copy()
        before_dense = model.to_dense()
        before_diag, _ = model.sampler_form()
        model.add_linear(0, 3.0)
        after_dense = model.to_dense()
        after_diag, _ = model.sampler_form()
        assert after_dense[0, 0] == before_dense[0, 0] + 3.0
        assert after_diag[0] == before_diag[0] + 3.0
        assert model.coupling_density() == pytest.approx(
            coupling_density(model.to_dict(), model.num_variables)
        )

    def test_pickle_drops_matrix_caches(self):
        model = _random_model(12)
        model.to_dense()
        model.sampler_form()
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert clone._dense_cache is None
        assert clone._sparse_cache is None
        states = np.random.default_rng(13).integers(
            0, 2, size=(4, model.num_variables)
        )
        np.testing.assert_allclose(
            clone.energies(states), model.energies(states), atol=1e-12
        )

    def test_energies_uses_sparse_path_for_string_models(self):
        model = StringEquality("sparse kernels!" * 5).build_model()
        assert model.prefers_sparse()
        states = np.random.default_rng(14).integers(
            0, 2, size=(8, model.num_variables)
        )
        diag, csr = model.sampler_form()
        np.testing.assert_array_equal(
            model.energies(states),
            qubo_energies_csr(states, diag, csr, model.offset),
        )
