"""Unit tests for the block-diagonal QUBO tiler (repro.qubo.tile)."""

import numpy as np
import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix
from repro.qubo.tile import TiledProblem, model_content_hash, tile_models


def small_models():
    return [
        QuboModel(3, {(0, 0): -1.0, (1, 1): 2.0, (0, 1): -2.0}, offset=0.5),
        QuboModel(1, {(0, 0): -1.0}),
        QuboModel(0, offset=3.0),
        QuboModel(4, {(0, 3): 1.5, (2, 2): -2.0, (1, 2): 0.5}, offset=-1.0),
    ]


class TestContentHash:
    def test_equal_content_equal_hash(self):
        a = QuboModel(2, {(0, 1): 1.0, (0, 0): -1.0}, offset=0.25)
        b = QuboModel(2, {(0, 0): -1.0, (0, 1): 1.0}, offset=0.25)
        assert model_content_hash(a) == model_content_hash(b)

    def test_hash_sensitive_to_coefficients(self):
        a = QuboModel(2, {(0, 1): 1.0})
        b = QuboModel(2, {(0, 1): 2.0})
        assert model_content_hash(a) != model_content_hash(b)

    def test_hash_sensitive_to_size_and_offset(self):
        a = QuboModel(2, {(0, 1): 1.0})
        assert model_content_hash(a) != model_content_hash(
            QuboModel(3, {(0, 1): 1.0})
        )
        assert model_content_hash(a) != model_content_hash(
            QuboModel(2, {(0, 1): 1.0}, offset=1.0)
        )


class TestTiledProblem:
    def test_layout(self):
        tiled = tile_models(small_models())
        assert tiled.num_blocks == 4
        assert tiled.sizes == (3, 1, 0, 4)
        np.testing.assert_array_equal(tiled.starts, [0, 3, 4, 4, 8])
        assert tiled.num_variables == 8
        assert tiled.block_slice(3) == slice(4, 8)

    def test_empty_tile(self):
        tiled = tile_models([])
        assert tiled.num_blocks == 0
        assert tiled.num_variables == 0

    def test_fused_model_energies_sum_blocks(self):
        models = small_models()
        tiled = tile_models(models)
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2, size=(5, tiled.num_variables), dtype=np.int8)
        total = tiled.fused_model.energies(states)
        parts = sum(
            tiled.block_energies(k, states[:, tiled.block_slice(k)])
            for k in range(4)
        )
        np.testing.assert_allclose(total, parts)

    def test_fused_sampler_form_matches_fused_model(self):
        tiled = tile_models(small_models())
        diag, coupling = tiled.fused_sampler_form()
        ref_diag, ref_coupling = tiled.fused_model.sampler_form()
        np.testing.assert_array_equal(diag, ref_diag)
        assert isinstance(coupling, CsrMatrix)
        np.testing.assert_array_equal(coupling.indptr, ref_coupling.indptr)
        np.testing.assert_array_equal(coupling.indices, ref_coupling.indices)
        np.testing.assert_array_equal(coupling.data, ref_coupling.data)

    def test_sparse_rows_identical_to_solo(self):
        # The bit-identity linchpin: each fused CSR row must hold the same
        # entries in the same order as the block's own row.
        models = small_models()
        tiled = tile_models(models)
        _, fused = tiled.fused_sampler_form()
        for k, model in enumerate(models):
            if model.num_variables == 0:
                continue
            _, solo = model.sampler_form()
            start = tiled.starts[k]
            for i in range(model.num_variables):
                fcols, fvals = fused.row(start + i)
                scols, svals = solo.row(i)
                np.testing.assert_array_equal(fcols - start, scols)
                np.testing.assert_array_equal(fvals, svals)

    def test_rng_streams_content_keyed(self):
        m = QuboModel(2, {(0, 1): 1.0})
        tiled_a = tile_models([m, QuboModel(5, {(0, 4): -1.0})])
        tiled_b = tile_models([QuboModel(3), QuboModel(1), m])
        draw_a = tiled_a.block_rngs(42)[0].random(4)
        draw_b = tiled_b.block_rngs(42)[2].random(4)
        np.testing.assert_array_equal(draw_a, draw_b)

    def test_rng_streams_differ_across_blocks_and_seeds(self):
        m1, m2 = QuboModel(2, {(0, 1): 1.0}), QuboModel(2, {(0, 1): 2.0})
        tiled = tile_models([m1, m2])
        r1, r2 = tiled.block_rngs(7)
        assert not np.array_equal(r1.random(4), r2.random(4))
        again = tile_models([m1, m2]).block_rngs(8)[0]
        assert not np.array_equal(
            tile_models([m1, m2]).block_rngs(7)[0].random(4), again.random(4)
        )

    def test_duplicate_blocks_share_streams(self):
        m = QuboModel(2, {(0, 1): 1.0})
        tiled = tile_models([m, m])
        r1, r2 = tiled.block_rngs(3)
        np.testing.assert_array_equal(r1.random(4), r2.random(4))

    def test_split_round_trip(self):
        models = small_models()
        tiled = tile_models(models)
        sampler = SimulatedAnnealingSampler()
        results = sampler.sample_tiled(
            tiled, num_reads=8, num_sweeps=32, seed=11
        )
        assert len(results) == 4
        for k, sampleset in enumerate(results):
            n_k = models[k].num_variables
            assert sampleset.states.shape == (8, n_k)
            np.testing.assert_allclose(
                sampleset.energies, models[k].energies(sampleset.states)
            )
            assert sampleset.info["tile"]["num_blocks"] == 4
            assert sampleset.info["tile"]["block"] == k

    def test_split_fused_sampleset(self):
        models = [QuboModel(2, {(0, 0): -1.0}), QuboModel(1, {(0, 0): 1.0})]
        tiled = tile_models(models)
        fused = tiled.fused_model
        sampler = SimulatedAnnealingSampler()
        sampleset = sampler.sample_model(fused, num_reads=6, num_sweeps=16, seed=5)
        parts = tiled.split(sampleset)
        assert len(parts) == 2
        for k, part in enumerate(parts):
            np.testing.assert_allclose(
                part.energies, models[k].energies(part.states)
            )

    def test_block_energies_empty_block(self):
        tiled = tile_models([QuboModel(0, offset=2.5)])
        energies = tiled.block_energies(0, np.zeros((3, 0), dtype=np.int8))
        np.testing.assert_allclose(energies, np.full(3, 2.5))
