"""Fixed-seed digests of the colored kernel on every branch it has.

Each digest was recorded with the gather-based kernel (per-step
``states[:, cols]`` gathers and per-step coupling row blocks), before the
kernel moved to a colour-contiguous layout with per-anneal field
operators and an acceptance table for uncoupled models. Together they
pin that the rewrite consumes the RNG in the same order and makes the
same accept decisions on:

* an uncoupled model (the acceptance-table branch);
* a coupled weighted-opt QUBO with non-integer coefficients, in both
  coupling forms;
* a model whose colour classes are not in index order (a non-trivial
  column permutation);
* a fused tile mixing coupled and uncoupled blocks, with initial states
  for some blocks;
* two tiles of at least sixteen blocks (one uncoupled, one coupled in
  both forms) whose merged classes have many segments of unequal width,
  recorded with the per-segment Metropolis loop before the kernel moved
  to a segment-major layout for fused classes.
"""

import hashlib

import numpy as np
import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.opt.weighted import compile_weighted
from repro.qubo.model import QuboModel
from repro.qubo.sparse import has_any_coupling
from repro.qubo.tile import tile_models
from repro.smt.parser import parse_script

WEIGHTED_SCRIPT = """
(declare-const x String)
(assert (= (str.len x) 7))
(assert (str.prefixof "chg" x))
(assert (not (= x "adebbah")))
(assert-soft (= (str.at x 6) "h") :weight 8)
(assert-soft (str.contains x "cd") :weight 5)
(assert-soft (str.contains x "ac") :weight 6)
"""


def _digest(*samplesets):
    h = hashlib.sha256()
    for ss in samplesets:
        h.update(np.ascontiguousarray(ss.states).tobytes())
        h.update(np.ascontiguousarray(ss.energies).tobytes())
    return h.hexdigest()


def _uncoupled_model(n=40, scale=1.0, seed=17):
    """Non-integer diagonal with some exact zeros: never hot there."""
    rng = np.random.default_rng(seed)
    diag = scale * rng.normal(size=n)
    diag[::7] = 0.0
    return QuboModel(n, {(i, i): float(v) for i, v in enumerate(diag)})


def _weighted_opt_model():
    script = parse_script(WEIGHTED_SCRIPT)
    problem = compile_weighted(
        list(script.assertions), list(script.soft_assertions), seed=3
    )
    return problem.formulations["x"].build_model()


def _star_model(n=12):
    """A hub at the last index plus a few leaf edges: the hub is colour 0,
    so the classes interleave instead of following index order."""
    hub = n - 1
    coeffs = {(i, hub): 0.37 * (i + 1) - 1.5 for i in range(hub)}
    coeffs.update({(i, i + 1): -0.625 for i in range(0, hub - 1, 2)})
    coeffs.update({(i, i): 0.1 * i - 0.45 for i in range(n)})
    return QuboModel(n, coeffs)


def _chain_model(n):
    """Integer path couplings: two colour classes of nearly equal size."""
    coeffs = {(i, i + 1): float((i % 3) - 1) * 2.0 for i in range(n - 1)}
    coeffs.update({(i, i): float((i % 5) - 2) for i in range(n)})
    return QuboModel(n, coeffs)


def _wide_uncoupled_models():
    """Sixteen uncoupled blocks of unequal width and energy scale."""
    return [
        _uncoupled_model(5 + 3 * k, scale=1.0 + (k % 4), seed=100 + k)
        for k in range(16)
    ]


def _wide_coupled_models():
    """Seventeen blocks: coupled ones with two or three colour classes of
    unequal sizes, and uncoupled ones that sit out every class but the
    first."""
    models = []
    for k in range(17):
        kind = k % 4
        if kind == 0:
            models.append(_uncoupled_model(6 + k, seed=200 + k))
        elif kind == 1:
            models.append(_star_model(8 + k // 2))
        elif kind == 2:
            models.append(_chain_model(7 + k))
        else:
            models.append(_weighted_opt_model() if k == 3 else _chain_model(4 + k))
    return models


def _multi_segment_widths(models):
    """Per merged class rank, the class widths of the blocks taking part."""
    classes = [m.color_classes() for m in models]
    ranks = max(len(c) for c in classes)
    return [[c[r].size for c in classes if r < len(c)] for r in range(ranks)]


class TestPreconditions:
    """The fixtures really reach the branches the digests are meant to pin."""

    def test_uncoupled_model_has_no_coupling(self):
        model = _uncoupled_model()
        assert not has_any_coupling(model.sampler_form()[1])
        assert len(model.color_classes()) == 1

    def test_weighted_model_is_coupled_and_non_integer(self):
        model = _weighted_opt_model()
        values = np.array(list(model.to_dict().values()))
        assert has_any_coupling(model.sampler_form(mode="sparse")[1])
        assert not np.array_equal(values, np.round(values))

    def test_star_classes_are_out_of_index_order(self):
        classes = _star_model().color_classes()
        order = np.concatenate(classes)
        assert len(classes) >= 2
        assert not np.array_equal(order, np.arange(order.size))


    def test_wide_tiles_have_unequal_multi_segment_classes(self):
        for models in (_wide_uncoupled_models(), _wide_coupled_models()):
            assert len(models) >= 16
            widths = _multi_segment_widths(models)
            assert any(len(w) > 1 and len(set(w)) > 1 for w in widths)

    def test_wide_coupled_tile_mixes_class_counts_and_zero_diagonals(self):
        models = _wide_coupled_models()
        counts = {len(m.color_classes()) for m in models}
        assert {1, 2, 3} <= counts
        widths = _multi_segment_widths(models)
        assert len(widths[0]) == len(models) > len(widths[-1]) > 1
        uncoupled = [m for m in models if not has_any_coupling(m.sampler_form()[1])]
        assert uncoupled and all(
            np.any(m.sampler_form()[0] == 0.0) for m in uncoupled
        )


class TestSoloDigests:
    def test_uncoupled(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _uncoupled_model(), num_reads=32, num_sweeps=64, seed=5
        )
        assert _digest(ss) == (
            "4620278a23602c708507a9776f5329583005de3cc2dc44627bdbfd6dfd95494d"
        )

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_weighted_opt_qubo(self, mode):
        ss = SimulatedAnnealingSampler().sample_model(
            _weighted_opt_model(),
            num_reads=64,
            num_sweeps=64,
            coupling_mode=mode,
            seed=11,
        )
        assert ss.info["coupling_form"] == mode
        assert _digest(ss) == (
            "e07fb56daa201a730ef9a1a820209f94eb99d89bbce00652534dcd7a96360edf"
        )

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_classes_out_of_index_order(self, mode):
        ss = SimulatedAnnealingSampler().sample_model(
            _star_model(), num_reads=16, num_sweeps=48, coupling_mode=mode, seed=2
        )
        assert _digest(ss) == (
            "0dce517854d6c62b0494aa6733a24bda5d4f9b420036c6bec9d43d0f09cdc457"
        )


class TestTiledDigests:
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_mixed_tile_with_initial_states(self, mode):
        reads = 16
        models = [
            _uncoupled_model(9),
            _star_model(),
            _weighted_opt_model(),
            _uncoupled_model(23),
        ]
        weighted_init = np.random.default_rng(4).integers(
            0, 2, size=(reads, models[2].num_variables)
        )
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(models),
            num_reads=reads,
            num_sweeps=40,
            coupling_mode=mode,
            initial_states=[np.ones((reads, 9)), None, weighted_init, None],
            seed=8,
        )
        assert _digest(*results) == (
            "54f6da1ed9e57ec5806892455f3981b08b98f44028c3b796c54077befa3ef498"
        )

    def test_uncoupled_tile_uses_each_blocks_schedule(self):
        # Blocks on different energy scales get different default beta
        # schedules; the acceptance table must use each column's own.
        models = [_uncoupled_model(9), _uncoupled_model(30, scale=25.0)]
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(models),
            num_reads=24,
            num_sweeps=32,
            initial_states=[None, np.zeros(30)],
            seed=6,
        )
        assert results[0].info["beta_range"] != results[1].info["beta_range"]
        assert _digest(*results) == (
            "67b93f6bfbb140f66c1bfc8fba210255d8bfff74057a90496719fb74b9ce9b64"
        )

    def test_wide_uncoupled_tile(self):
        models = _wide_uncoupled_models()
        reads = 20
        initial = [
            np.random.default_rng(k).integers(0, 2, size=(reads, m.num_variables))
            if k % 5 == 1
            else None
            for k, m in enumerate(models)
        ]
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(models),
            num_reads=reads,
            num_sweeps=24,
            initial_states=initial,
            seed=13,
        )
        assert _digest(*results) == (
            "475390e6674da3f22cb76a4c4a7a3070874a25dcefacdfd047167d0f426bf661"
        )

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_wide_coupled_tile(self, mode):
        models = _wide_coupled_models()
        reads = 12
        initial = [
            np.random.default_rng(k).integers(0, 2, size=(reads, m.num_variables))
            if k % 3 == 2
            else None
            for k, m in enumerate(models)
        ]
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(models),
            num_reads=reads,
            num_sweeps=24,
            coupling_mode=mode,
            initial_states=initial,
            seed=21,
        )
        assert _digest(*results) == (
            "b66c09fdea1f6c83c71d6b72feb6b3e58baf4a01e58b396258aea57920674b67"
        )
