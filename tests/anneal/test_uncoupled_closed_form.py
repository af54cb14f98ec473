"""The colored kernel samples uncoupled models in closed form.

On a model without couplings, single-flip Metropolis is one independent
two-state chain per bit, so ``SimulatedAnnealingSampler`` draws each
bit's end-of-schedule state directly instead of running the sweep loop.
The result has the loop's distribution but not its bits. These tests
keep the deleted per-step acceptance-table loop as a reference and
check that:

* the closed-form probabilities equal the per-sweep recurrence;
* per-column frequencies of the closed form and the loop agree at fixed
  seeds, over short and long, geometric and linear schedules, from
  drawn and from given initial states;
* an uncoupled block of a fused tile is still bit-identical to a solo
  solve of it on the block's own stream.
"""

import hashlib

import numpy as np
import pytest

from repro.anneal.base import resolve_initial_states
from repro.anneal.simulated import (
    SimulatedAnnealingSampler,
    _off_preference_probability,
)
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models

# Positive, negative, tiny and exactly zero diagonal entries.
DIAG = np.array([1.5, -2.0, 0.05, 0.0, -0.05, 3.25, -0.7, 0.0, 0.4, -9.0])


def _model(diag=DIAG):
    return QuboModel(diag.size, {(i, i): float(v) for i, v in enumerate(diag)})


def _reference_loop(states, diag, betas, rng):
    """The sweep loop the closed form replaced: one colour class, one block.

    A read is hot (draws) when its bit sits on the lower-energy value;
    every other read flips, since ``exp(clip(..., -700, 0)) > 0``."""
    x = np.array(states, dtype=np.int8)
    pref = np.where(diag > 0, 0, np.where(diag < 0, 1, 2)).astype(np.int8)
    table = np.exp(np.clip(np.outer(-betas, np.abs(diag)), -700.0, 0.0))
    for t in range(betas.shape[0]):
        hot = x == pref
        draws = np.zeros(hot.shape)
        count = np.count_nonzero(hot)
        if count:
            draws[hot] = rng.random(count)
        x ^= draws < table[t]
    return x


def _recurrence(diag, betas, start_off):
    q = np.full(diag.size, float(start_off))
    for beta in betas:
        q = (1.0 - q) * np.exp(np.clip(-beta * np.abs(diag), -700.0, 0.0))
    return q


def _betas(model, schedule, num_sweeps):
    diag, coupling = model.sampler_form()
    return SimulatedAnnealingSampler._resolve_schedule(
        schedule, None, num_sweeps, diag, coupling
    )


class TestProbability:
    @pytest.mark.parametrize("num_sweeps", [1, 2, 5, 64])
    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    def test_matches_recurrence(self, num_sweeps, schedule):
        betas = _betas(_model(), schedule, num_sweeps)
        q = _off_preference_probability(DIAG, betas)
        for start_off in (0, 1):
            np.testing.assert_allclose(
                q[start_off], _recurrence(DIAG, betas, start_off), rtol=0, atol=1e-12
            )

    def test_matches_recurrence_on_random_schedules(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            num_sweeps = int(rng.integers(1, 1001))
            betas = np.sort(rng.uniform(1e-3, 50.0, size=num_sweeps))
            diag = rng.choice([-1, 1], size=12) * 10.0 ** rng.uniform(-4, 2, size=12)
            q = _off_preference_probability(diag, betas)
            for start_off in (0, 1):
                np.testing.assert_allclose(
                    q[start_off], _recurrence(diag, betas, start_off), rtol=0, atol=1e-12
                )

    @pytest.mark.parametrize("num_sweeps", [1, 2, 5, 64])
    def test_zero_diagonal_flips_every_sweep(self, num_sweeps):
        reads = 8
        init = np.random.default_rng(1).integers(0, 2, size=(reads, DIAG.size))
        ss = SimulatedAnnealingSampler().sample_model(
            _model(), num_reads=reads, num_sweeps=num_sweeps, initial_states=init, seed=2
        )
        # Rows come back energy-sorted and zero columns carry no energy,
        # so compare the column multisets.
        zero = DIAG == 0.0
        expected = np.sort(init[:, zero] ^ (num_sweeps & 1), axis=0)
        assert np.array_equal(np.sort(ss.states[:, zero], axis=0), expected)


class TestDistribution:
    @pytest.mark.parametrize("num_sweeps", [1, 2, 5, 64])
    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    @pytest.mark.parametrize("start", [None, 0, 1])
    def test_column_frequencies_match_the_loop(self, num_sweeps, schedule, start):
        reads = 4000
        model = _model()
        betas = _betas(model, schedule, num_sweeps)
        initial = None if start is None else np.full((reads, DIAG.size), start)
        closed = SimulatedAnnealingSampler().sample_model(
            model,
            num_reads=reads,
            num_sweeps=num_sweeps,
            beta_schedule=schedule,
            initial_states=initial,
            seed=31,
        ).states
        rng = np.random.default_rng(47)
        loop = _reference_loop(
            resolve_initial_states(initial, reads, DIAG.size, rng), DIAG, betas, rng
        )
        f_closed, f_loop = closed.mean(axis=0), loop.mean(axis=0)
        pooled = (f_closed + f_loop) / 2
        se = np.sqrt(pooled * (1 - pooled) * 2 / reads)
        assert np.all(np.abs(f_closed - f_loop) <= 5 * se), (f_closed, f_loop)


def _mixed_models():
    chain = QuboModel(
        6, {**{(i, i + 1): -2.0 for i in range(5)}, **{(i, i): 1.0 for i in range(6)}}
    )
    star = QuboModel(5, {**{(i, 4): 1.0 for i in range(4)}, (4, 4): -1.0})
    return [_model(), chain, _model(-0.5 * DIAG[:7]), star, _model(4.0 * DIAG)]


class TestTiledBlocks:
    def test_uncoupled_blocks_match_solo_solves(self):
        reads, seed = 24, 5
        # Hot enough that the end states stay random: a wrong stream shows.
        params = dict(num_reads=reads, num_sweeps=3, beta_range=(0.1, 1.0))
        models = _mixed_models()
        tiled = tile_models(models)
        initial = [None, None, np.ones((reads, 7)), None, None]
        fused = SimulatedAnnealingSampler().sample_tiled(
            tiled, initial_states=initial, seed=seed, **params
        )
        uncoupled = [k for k, m in enumerate(models) if not m.sampler_form()[1].nnz]
        assert uncoupled == [0, 2, 4]
        rngs = tiled.block_rngs(seed)
        for k in uncoupled:
            solo = SimulatedAnnealingSampler().sample_model(
                models[k], initial_states=initial[k], seed=rngs[k], **params
            )
            assert np.array_equal(fused[k].states, solo.states)
            assert np.array_equal(fused[k].energies, solo.energies)

    def test_reference_loop_reproduces_the_recorded_loop(self):
        """The reference is the deleted loop: run per block on the block
        streams, it reproduces the digest the fused uncoupled tile of
        ``test_colored_digests.py`` recorded before the closed form."""

        def uncoupled(n, scale, seed):
            diag = scale * np.random.default_rng(seed).normal(size=n)
            diag[::7] = 0.0
            return _model(diag)

        models = [uncoupled(5 + 3 * k, 1.0 + (k % 4), 100 + k) for k in range(16)]
        reads = 20
        tiled = tile_models(models)
        rngs = tiled.block_rngs(13)
        blocks = []
        for k, m in enumerate(models):
            init = (
                np.random.default_rng(k).integers(0, 2, size=(reads, m.num_variables))
                if k % 5 == 1
                else None
            )
            x = resolve_initial_states(init, reads, m.num_variables, rngs[k])
            blocks.append(
                _reference_loop(x, m.sampler_form()[0], _betas(m, "geometric", 24), rngs[k])
            )
        h = hashlib.sha256()
        for ss in tiled.build_samplesets(np.hstack(blocks)):
            h.update(np.ascontiguousarray(ss.states).tobytes())
            h.update(np.ascontiguousarray(ss.energies).tobytes())
        assert h.hexdigest() == (
            "475390e6674da3f22cb76a4c4a7a3070874a25dcefacdfd047167d0f426bf661"
        )
