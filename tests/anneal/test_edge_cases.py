"""Edge-case matrix across all four samplers.

Covers the degenerate inputs that historically broke individual samplers:
``n == 0`` (no variables), ``n == 1`` (the tabu default-tenure crash),
``num_reads == 1``, explicit initial states (including the non-binary
states the greedy sampler silently accepted), and both coupling modes.
"""

import numpy as np
import pytest

from repro.anneal.base import resolve_initial_states
from repro.anneal.greedy import SteepestDescentSampler
from repro.anneal.random_sampler import RandomSampler
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.anneal.tabu import TabuSampler
from repro.qubo.model import QuboModel

ALL_SAMPLERS = [
    SimulatedAnnealingSampler,
    TabuSampler,
    SteepestDescentSampler,
    RandomSampler,
]

#: A 1-variable model whose minimum (-1 at x=1) any sampler must find
#: structure for without crashing.
ONE_VAR = {(0, 0): -1.0}


def fast_params(sampler_cls):
    if sampler_cls is SimulatedAnnealingSampler:
        return {"num_sweeps": 16}
    if sampler_cls is TabuSampler:
        return {"num_steps": 16}
    return {}


@pytest.mark.parametrize("sampler_cls", ALL_SAMPLERS)
class TestDegenerateSizes:
    def test_empty_model(self, sampler_cls):
        result = sampler_cls().sample_model(
            QuboModel(0, offset=1.5), num_reads=3, seed=1, **fast_params(sampler_cls)
        )
        assert result.states.shape == (3, 0)
        np.testing.assert_allclose(result.energies, np.full(3, 1.5))

    def test_single_variable(self, sampler_cls):
        # Regression: TabuSampler's old default tenure min(20, max(n-1, 1))
        # evaluated to 1 for n == 1 and failed its own `tenure < n` check.
        result = sampler_cls().sample_model(
            QuboModel(1, ONE_VAR), num_reads=4, seed=2, **fast_params(sampler_cls)
        )
        assert result.states.shape == (4, 1)
        assert result.first.energy in (-1.0, 0.0)

    def test_single_read(self, sampler_cls):
        result = sampler_cls().sample_model(
            QuboModel(2, {(0, 1): 1.0, (0, 0): -1.0}),
            num_reads=1,
            seed=3,
            **fast_params(sampler_cls),
        )
        assert result.states.shape == (1, 2)

    def test_zero_reads_rejected(self, sampler_cls):
        with pytest.raises(ValueError, match="num_reads"):
            sampler_cls().sample_model(QuboModel(1, ONE_VAR), num_reads=0)


@pytest.mark.parametrize(
    "sampler_cls", [SimulatedAnnealingSampler, TabuSampler, SteepestDescentSampler]
)
class TestSmallModels:
    def test_single_variable(self, sampler_cls):
        result = sampler_cls().sample_model(
            QuboModel(1, ONE_VAR),
            num_reads=4,
            seed=4,
            **fast_params(sampler_cls),
        )
        assert result.first.energy == -1.0

    def test_diagonal_only_model(self, sampler_cls):
        # No off-diagonal couplings at all: the field-update fast paths
        # must not assume nnz > 0.
        result = sampler_cls().sample_model(
            QuboModel(3, {(0, 0): -1.0, (1, 1): 2.0, (2, 2): -0.5}),
            num_reads=4,
            seed=5,
            **fast_params(sampler_cls),
        )
        assert result.first.energy == -1.5


class TestInitialStates:
    @pytest.mark.parametrize(
        "sampler_cls", [SimulatedAnnealingSampler, SteepestDescentSampler]
    )
    def test_explicit_initial_states(self, sampler_cls):
        model = QuboModel(2, {(0, 1): 2.0, (0, 0): -1.0, (1, 1): -1.0})
        starts = np.array([[1, 1], [0, 0], [1, 0]], dtype=np.int8)
        result = sampler_cls().sample_model(
            model,
            num_reads=3,
            initial_states=starts,
            seed=6,
            **fast_params(sampler_cls),
        )
        assert result.states.shape == (3, 2)

    @pytest.mark.parametrize(
        "sampler_cls", [SimulatedAnnealingSampler, SteepestDescentSampler]
    )
    def test_one_dimensional_broadcast(self, sampler_cls):
        model = QuboModel(2, {(0, 1): 1.0})
        result = sampler_cls().sample_model(
            model,
            num_reads=3,
            initial_states=np.array([1, 0]),
            seed=7,
            **fast_params(sampler_cls),
        )
        assert result.states.shape == (3, 2)

    @pytest.mark.parametrize(
        "sampler_cls", [SimulatedAnnealingSampler, SteepestDescentSampler]
    )
    def test_non_binary_initial_states_rejected(self, sampler_cls):
        # Regression: SteepestDescentSampler used to accept e.g. 3/-2 here;
        # ^= 1 flips then left the {0,1} domain and the reported energies
        # were garbage (observed: energy 20 on a model whose max is 2).
        model = QuboModel(2, {(0, 1): 1.0, (0, 0): 1.0})
        bad = np.array([[3, -2], [0, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="0/1"):
            sampler_cls().sample_model(
                model, num_reads=2, initial_states=bad, **fast_params(sampler_cls)
            )

    @pytest.mark.parametrize(
        "sampler_cls", [SimulatedAnnealingSampler, SteepestDescentSampler]
    )
    def test_wrong_shape_rejected(self, sampler_cls):
        model = QuboModel(3, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            sampler_cls().sample_model(
                model,
                num_reads=2,
                initial_states=np.zeros((2, 2), dtype=np.int8),
                **fast_params(sampler_cls),
            )


class TestSharedValidator:
    def test_draws_when_none(self):
        rng = np.random.default_rng(0)
        states = resolve_initial_states(None, 4, 3, rng)
        assert states.shape == (4, 3)
        assert states.dtype == np.int8
        assert np.isin(states, (0, 1)).all()

    def test_validates_before_cast(self):
        # 256 would silently wrap to 0 under a bare int8 cast; the
        # validator must reject it instead.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="0/1"):
            resolve_initial_states(np.array([[256, 0]]), 1, 2, rng)

    def test_copies_input(self):
        rng = np.random.default_rng(0)
        original = np.array([[1, 0]], dtype=np.int8)
        states = resolve_initial_states(original, 1, 2, rng)
        states[0, 0] = 0
        assert original[0, 0] == 1


class TestTabuTenureRegression:
    def test_default_tenure_single_variable(self):
        # The crash this PR fixes: default tenure for n == 1 must be 0.
        result = TabuSampler().sample_model(
            QuboModel(1, ONE_VAR), num_reads=2, num_steps=8, seed=1
        )
        assert result.info["tenure"] == 0
        assert result.first.energy == -1.0

    def test_default_tenure_small_models(self):
        for n in (2, 3, 21, 25):
            result = TabuSampler().sample_model(
                QuboModel(n, {(0, n - 1): 1.0}), num_reads=1, num_steps=4, seed=1
            )
            assert result.info["tenure"] == min(20, n - 1)

    def test_explicit_tenure_still_validated(self):
        with pytest.raises(ValueError, match="tenure"):
            TabuSampler().sample_model(QuboModel(1, ONE_VAR), tenure=1)
