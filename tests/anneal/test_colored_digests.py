"""Fixed-seed digests of the colored kernel on every branch it has.

Each digest was recorded with the gather-based kernel (per-step
``states[:, cols]`` gathers and per-step coupling row blocks), before the
kernel moved to a colour-contiguous layout with per-anneal field
operators. Together they pin that the rewrite consumes the RNG in the
same order and makes the same accept decisions on:

* an uncoupled model;
* a coupled weighted-opt QUBO with non-integer coefficients;
* a model whose colour classes are not in index order (a non-trivial
  column permutation);
* a fused tile mixing coupled and uncoupled blocks, with initial states
  for some blocks;
* two tiles of at least sixteen blocks (one uncoupled, one coupled)
  whose merged classes have many segments of unequal width,
  recorded with the per-segment Metropolis loop before the kernel moved
  to a segment-major layout for fused classes;
* compiled check-sat and weighted-opt models with couplings and fewer
  than 64 variables, and tiles of them, at the library defaults. These
  were recorded while such models still ran the dense ``(n, n)``
  coupling form (the old size heuristic's choice below 64 variables),
  before every kernel moved to CSR.

Models and tile blocks without couplings no longer run the sweep loop:
they are sampled in closed form from the loop's end-of-schedule
distribution (``test_uncoupled_closed_form.py`` checks the two agree).
The uncoupled digests recorded with the loop still pass where every read
ends at the same state either way. ``test_wide_uncoupled_tile`` (24
sweeps, so some reads end excited) was re-recorded for the closed form;
``test_uncoupled_closed_form.py`` keeps its loop-era value as the pin of
its reference loop.
"""

import hashlib

import numpy as np
import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.opt.weighted import compile_weighted
from repro.qubo.model import QuboModel
from repro.qubo.tile import tile_models
from repro.smt.compiler import compile_assertions
from repro.smt.generator import InstanceGenerator
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


def _compiled_models(indices, soft=None):
    """The check-sat models of ``InstanceGenerator(ops="all", ...,
    seed=3)`` at the given draw indices, each compiled at its index."""
    gen = InstanceGenerator(ops="all", min_length=3, max_length=5, seed=3, soft=soft)
    instances = [gen.generate() for _ in range(max(indices) + 1)]
    if soft:
        return [
            compile_weighted(
                list(instances[i].assertions),
                list(instances[i].soft_assertions),
                seed=i,
            ).formulations["x"].build_model()
            for i in indices
        ]
    return [
        compile_assertions(list(instances[i].assertions), seed=i)
        .formulations["x"]
        .build_model()
        for i in indices
    ]


def _switched_models():
    """Three coupled check-sat models (41, 41 and 55 variables) and one
    coupled weighted-opt model (55 variables)."""
    return _compiled_models([10, 38, 74]) + _compiled_models([10], soft=2)


def _multi_segment_widths(models):
    """Per merged class rank, the class widths of the blocks taking part."""
    classes = [m.color_classes() for m in models]
    ranks = max(len(c) for c in classes)
    return [[c[r].size for c in classes if r < len(c)] for r in range(ranks)]


class TestPreconditions:
    """The fixtures really reach the branches the digests are meant to pin."""

    def test_uncoupled_model_has_no_coupling(self):
        model = _uncoupled_model()
        assert model.sampler_form()[1].nnz == 0
        assert len(model.color_classes()) == 1

    def test_weighted_model_is_coupled_and_non_integer(self):
        model = _weighted_opt_model()
        values = np.array(list(model.to_dict().values()))
        assert model.sampler_form()[1].nnz
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
        uncoupled = [m for m in models if not m.sampler_form()[1].nnz]
        assert uncoupled and all(
            np.any(m.sampler_form()[0] == 0.0) for m in uncoupled
        )


    def test_switched_models_are_small_and_coupled(self):
        models = _switched_models() + _compiled_models([4])
        assert [m.num_variables for m in models] == [41, 41, 55, 55, 21]
        assert all(m.num_interactions for m in models[:4])
        assert models[4].num_interactions == 0


class TestSoloDigests:
    def test_uncoupled(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _uncoupled_model(), num_reads=32, num_sweeps=64, seed=5
        )
        assert _digest(ss) == (
            "4620278a23602c708507a9776f5329583005de3cc2dc44627bdbfd6dfd95494d"
        )

    def test_weighted_opt_qubo(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _weighted_opt_model(), num_reads=64, num_sweeps=64, seed=11
        )
        assert _digest(ss) == (
            "e07fb56daa201a730ef9a1a820209f94eb99d89bbce00652534dcd7a96360edf"
        )

    def test_classes_out_of_index_order(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _star_model(), num_reads=16, num_sweeps=48, seed=2
        )
        assert _digest(ss) == (
            "0dce517854d6c62b0494aa6733a24bda5d4f9b420036c6bec9d43d0f09cdc457"
        )


class TestTiledDigests:
    def test_mixed_tile_with_initial_states(self):
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
            "4633196317ea14ba27763f0d90263a4639d3426bea81dca3139153a4a163faf9"
        )

    def test_wide_coupled_tile(self):
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
            initial_states=initial,
            seed=21,
        )
        assert _digest(*results) == (
            "b66c09fdea1f6c83c71d6b72feb6b3e58baf4a01e58b396258aea57920674b67"
        )


class TestSwitchedModelDigests:
    """Models that ran the dense coupling form under the old auto default."""

    @pytest.mark.parametrize(
        "index, expected",
        [
            (0, "62258a9719d048887613b6548590ceb6c3d3eb47344de4c6dbbf8799f267501f"),
            (1, "16df38edd541512efad32f0d9ff9860dc264f5a9c9ebdf08a7decbec35c8f3da"),
            (2, "2dae7c760c0b8ab22ff1e029e96b298e87c524aa8cc72362003fcf15361be830"),
            (3, "14b9e985c177a89e752782a941c38575902c16d4554ad10be06ee5ca0e2befa0"),
        ],
        ids=["check_sat_10", "check_sat_38", "check_sat_74", "weighted_10"],
    )
    def test_solo(self, index, expected):
        ss = SimulatedAnnealingSampler().sample_model(
            _switched_models()[index], num_reads=32, num_sweeps=64, seed=9
        )
        assert _digest(ss) == expected

    def test_solo_random_scan(self):
        ss = SimulatedAnnealingSampler().sample_model(
            _switched_models()[0],
            num_reads=16,
            num_sweeps=256,
            sweep_mode="random",
            seed=9,
        )
        assert _digest(ss) == (
            "ec6d66f3fd15365a8d2c4325eea66682bd473ad9bc51edcaef24cd644ceab4a1"
        )

    def test_tile_of_all_four(self):
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(_switched_models()), num_reads=16, num_sweeps=32, seed=4
        )
        assert _digest(*results) == (
            "d838bb6208329deb2cce281af555f6c67a1371f2ca80e8a3a32ff931c608bb37"
        )

    def test_tile_mixing_coupled_and_uncoupled(self):
        # 41 + 21 variables: small enough that the fused form was dense.
        models = [_switched_models()[0], _compiled_models([4])[0]]
        results = SimulatedAnnealingSampler().sample_tiled(
            tile_models(models), num_reads=16, num_sweeps=32, seed=4
        )
        assert _digest(*results) == (
            "7e81ac65e612085f0b02be00f66960b116d9ceeb5e3f02ce82bda53ca08c4e79"
        )
