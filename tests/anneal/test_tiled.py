"""Fused tiled kernels: bit-identity to solo solves, batch invariance.

The tiler's contract (DESIGN.md Appendix G): on integer-coefficient
models at a fixed seed, every block of a fused ``sample_tiled`` call
returns **bit-identical** states and energies to a solo ``sample_model``
call seeded with that block's content-keyed stream
(``tiled.block_rngs(seed)[k]``) — independent of which tile-mates it was
fused with.
"""

import numpy as np
import pytest

from repro.anneal.greedy import SteepestDescentSampler
from repro.anneal.random_sampler import RandomSampler
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.anneal.tabu import TabuSampler
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models

SEED = 1234


def mixed_models():
    """Integer-coefficient blocks of assorted shapes (incl. n==0, n==1,
    and a duplicate pair)."""
    rng = np.random.default_rng(99)
    dup = QuboModel(5, {(0, 4): -2.0, (1, 1): 1.0, (2, 3): 3.0}, offset=1.0)
    dense = {
        (i, j): float(rng.integers(-3, 4))
        for i in range(6)
        for j in range(i, 6)
    }
    return [
        dup,
        QuboModel(1, {(0, 0): -1.0}),
        QuboModel(6, dense, offset=-2.0),
        QuboModel(0, offset=4.0),
        QuboModel(3, {(0, 1): 2.0, (1, 2): -1.0, (0, 0): -3.0}),
        dup,
    ]


def solo_kwargs(sampler, tiled, k, seed, **params):
    """The solo call the fused result must reproduce for block k."""
    kwargs = dict(params)
    kwargs["seed"] = tiled.block_rngs(seed)[k]
    return kwargs


def assert_block_identical(fused, solo):
    np.testing.assert_array_equal(fused.states, solo.states)
    np.testing.assert_array_equal(fused.energies, solo.energies)


FUSED_CASES = [
    (
        SimulatedAnnealingSampler,
        {"num_reads": 8, "num_sweeps": 48, "sweep_mode": "colored"},
    ),
    (
        SimulatedAnnealingSampler,
        {"num_reads": 8, "num_sweeps": 48, "sweep_mode": "sequential"},
    ),
    (
        SimulatedAnnealingSampler,
        {"num_reads": 8, "num_sweeps": 48, "sweep_mode": "random"},
    ),
    (TabuSampler, {"num_reads": 6, "num_steps": 40}),
    (SteepestDescentSampler, {"num_reads": 8}),
    (RandomSampler, {"num_reads": 8}),  # base-class per-block fallback
]


@pytest.mark.parametrize(
    "sampler_cls,params", FUSED_CASES, ids=lambda c: getattr(c, "__name__", None)
)
def test_fused_matches_solo(sampler_cls, params):
    models = mixed_models()
    tiled = tile_models(models)
    sampler = sampler_cls()
    kwargs = dict(params)
    results = sampler.sample_tiled(tiled, seed=SEED, **kwargs)
    assert len(results) == len(models)
    for k, model in enumerate(models):
        solo = sampler.sample_model(
            model, **solo_kwargs(sampler, tiled, k, SEED, **kwargs)
        )
        assert_block_identical(results[k], solo)


@pytest.mark.parametrize(
    "sampler_cls,params", FUSED_CASES, ids=lambda c: getattr(c, "__name__", None)
)
def test_batch_invariance(sampler_cls, params):
    """A block's result must not depend on its tile-mates or position."""
    probe = QuboModel(4, {(0, 3): -2.0, (1, 1): 1.0, (2, 3): 2.0}, offset=0.5)
    mates_a = [probe, QuboModel(2, {(0, 1): 1.0}), QuboModel(7, {(0, 6): -1.0})]
    mates_b = [QuboModel(1, {(0, 0): 5.0}), QuboModel(0), probe]
    sampler = sampler_cls()
    res_a = sampler.sample_tiled(tile_models(mates_a), seed=SEED, **params)[0]
    res_b = sampler.sample_tiled(tile_models(mates_b), seed=SEED, **params)[2]
    solo = sampler.sample_tiled(tile_models([probe]), seed=SEED, **params)[0]
    assert_block_identical(res_a, res_b)
    assert_block_identical(res_a, solo)


class TestTiledEdgeCases:
    @pytest.mark.parametrize(
        "sampler_cls,params", FUSED_CASES, ids=lambda c: getattr(c, "__name__", None)
    )
    def test_empty_tile(self, sampler_cls, params):
        assert sampler_cls().sample_tiled(tile_models([]), seed=1, **params) == []

    @pytest.mark.parametrize(
        "sampler_cls,params", FUSED_CASES, ids=lambda c: getattr(c, "__name__", None)
    )
    def test_all_empty_blocks(self, sampler_cls, params):
        tiled = tile_models([QuboModel(0, offset=1.0), QuboModel(0)])
        results = sampler_cls().sample_tiled(tiled, seed=1, **params)
        assert len(results) == 2
        np.testing.assert_allclose(
            results[0].energies, np.full(len(results[0]), 1.0)
        )

    def test_single_block_num_reads_one(self):
        tiled = tile_models([QuboModel(2, {(0, 1): 1.0, (0, 0): -1.0})])
        sampler = SimulatedAnnealingSampler()
        (result,) = sampler.sample_tiled(
            tiled, num_reads=1, num_sweeps=16, seed=3
        )
        assert result.states.shape == (1, 2)

    def test_sa_tiled_initial_states(self):
        models = [QuboModel(2, {(0, 1): 1.0}), QuboModel(3, {(1, 2): -1.0})]
        tiled = tile_models(models)
        inits = [np.zeros((4, 2), dtype=np.int8), None]
        sampler = SimulatedAnnealingSampler()
        results = sampler.sample_tiled(
            tiled, num_reads=4, num_sweeps=8, initial_states=inits, seed=2
        )
        assert len(results) == 2

    def test_sa_tiled_initial_states_wrong_length(self):
        tiled = tile_models([QuboModel(2, {(0, 1): 1.0})])
        with pytest.raises(ValueError, match="one entry per block"):
            SimulatedAnnealingSampler().sample_tiled(
                tiled, num_reads=2, num_sweeps=4, initial_states=[None, None]
            )

    def test_tabu_tiled_explicit_tenure_must_fit_every_block(self):
        tiled = tile_models(
            [QuboModel(5, {(0, 4): 1.0}), QuboModel(2, {(0, 1): 1.0})]
        )
        with pytest.raises(ValueError, match="every block"):
            TabuSampler().sample_tiled(tiled, tenure=3, seed=1)

    def test_unknown_params_rejected(self):
        tiled = tile_models([QuboModel(1, {(0, 0): 1.0})])
        with pytest.raises(TypeError, match="unknown sampler parameters"):
            SimulatedAnnealingSampler().sample_tiled(tiled, bogus=1)
