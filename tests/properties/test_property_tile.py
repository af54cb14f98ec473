"""Property: fused tile solves ≡ solo solves, block by block.

For arbitrary lists of random integer-coefficient QUBOs, every block of a
fused ``sample_tiled`` call must return bit-identical states and energies
to solving that block alone with its content-keyed RNG stream — the
tiler's batch-invariance contract, exercised far beyond the hand-built
cases in ``tests/anneal/test_tiled.py``.

Integer coefficients keep the check exact: with them the fused kernels'
cross-block contributions are exact zeros and every energy update is
reproduced bit-for-bit (see DESIGN.md Appendix G for the float caveat).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anneal.greedy import SteepestDescentSampler
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.anneal.tabu import TabuSampler
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models


@st.composite
def integer_models(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    coeffs = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            st.integers(-4, 4).map(float),
            max_size=10,
        )
        if n
        else st.just({})
    )
    offset = float(draw(st.integers(-3, 3)))
    return QuboModel(n, coeffs, offset=offset)


model_lists = st.lists(integer_models(), min_size=1, max_size=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_tile_matches_solo(sampler, models, seed, **params):
    tiled = tile_models(models)
    fused = sampler.sample_tiled(tiled, seed=seed, **params)
    rngs = tiled.block_rngs(seed)
    for k, model in enumerate(models):
        solo = sampler.sample_model(model, seed=rngs[k], **params)
        np.testing.assert_array_equal(fused[k].states, solo.states)
        np.testing.assert_array_equal(fused[k].energies, solo.energies)


# Both entry points default to "colored" (the mode where fusion batches
# across block boundaries); every sweep mode is drawn explicitly, since
# equivalence holds per sweep mode.
@settings(max_examples=25, deadline=None)
@given(
    models=model_lists,
    seed=seeds,
    sweep_mode=st.sampled_from(["colored", "sequential", "random"]),
)
def test_sa_fused_equals_solo(models, seed, sweep_mode):
    assert_tile_matches_solo(
        SimulatedAnnealingSampler(),
        models,
        seed,
        num_reads=4,
        num_sweeps=24,
        sweep_mode=sweep_mode,
    )

@settings(max_examples=15, deadline=None)
@given(models=model_lists, seed=seeds)
def test_tabu_fused_equals_solo(models, seed):
    assert_tile_matches_solo(TabuSampler(), models, seed, num_reads=3, num_steps=20)


@settings(max_examples=15, deadline=None)
@given(models=model_lists, seed=seeds)
def test_greedy_fused_equals_solo(models, seed):
    assert_tile_matches_solo(SteepestDescentSampler(), models, seed, num_reads=4)


@settings(max_examples=15, deadline=None)
@given(models=model_lists, seed=seeds)
def test_sa_fused_equals_solo_explicit_modes(models, seed):
    assert_tile_matches_solo(
        SimulatedAnnealingSampler(),
        models,
        seed,
        num_reads=3,
        num_sweeps=16,
        sweep_mode="colored",
    )
