"""Fixed-seed digests of the hardware path (embed -> anneal -> unembed).

Each pin hashes the states, the energies and the occurrence counts a
fixed-seed hardware solve returns, so a change to embedding, chain
strength, physical-model construction, noise draws or chain-break
resolution that moves one read fails here. Energies are rounded to 9
decimals before hashing: the clean rescoring is a sum over the model's
terms whose evaluation order is not part of the contract.
"""

import hashlib

import numpy as np
import pytest

from repro.core import StringEquality, StringQuboSolver
from repro.hardware import (
    EmbeddingComposite,
    GaussianNoiseModel,
    SimulatedQPU,
    chimera_graph,
)
from repro.qubo.model import QuboModel


def _digest(ss) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ss.states, dtype=np.int8).tobytes())
    h.update((np.round(ss.energies, 9) + 0.0).tobytes())
    h.update(np.ascontiguousarray(ss.num_occurrences, dtype=np.int64).tobytes())
    return h.hexdigest()


def _dense_model() -> QuboModel:
    """The Ext-E dense 8-variable model (benchmarks/bench_embedding.py)."""
    rng = np.random.default_rng(0)
    return QuboModel.from_dense(np.triu(rng.normal(size=(8, 8))))


def _native_model() -> QuboModel:
    """Non-integer fields and couplings on every qubit and coupler of C(2)."""
    topology = chimera_graph(2)
    rng = np.random.default_rng(11)
    model = QuboModel(topology.number_of_nodes())
    for q in topology.nodes():
        model.set_linear(q, float(rng.normal()))
    for a, b in topology.edges():
        model.set_quadratic(a, b, float(rng.normal()))
    return model


class TestHardwareDigests:
    @pytest.mark.parametrize(
        "strength, expected",
        [
            (0.2, "cb121d34ee3edd26a805eab0cc58a986d5af44f486268fda7ec2beaef1b39a47"),
            (4.0, "9cb19b699ab3d9d27523db333b1cf0a2020f8841c72b495a48b25520fbd4f1f4"),
        ],
        ids=["strength-0.2", "strength-4.0"],
    )
    def test_composite_dense_model(self, strength, expected):
        comp = EmbeddingComposite(
            SimulatedQPU(topology=chimera_graph(4)), chain_strength=strength
        )
        ss = comp.sample_model(_dense_model(), num_reads=32, num_sweeps=300, seed=2)
        assert _digest(ss) == expected

    def test_composite_noisy_dense_model(self):
        # Torque-compensated chains on a non-integer model, with noise
        # large enough that every field and coupler draw moves reads.
        comp = EmbeddingComposite(
            SimulatedQPU(
                topology=chimera_graph(4), noise=GaussianNoiseModel(0.2, 0.1)
            )
        )
        ss = comp.sample_model(_dense_model(), num_reads=32, num_sweeps=300, seed=5)
        assert _digest(ss) == (
            "60357909db9b7cdf8bc73dadb56ea59e87162ba40fe4b1367d3f3d0d2cec3a74"
        )

    def test_noisy_string_solve(self):
        # The "hi" model has no couplings, so the device's colored anneal
        # samples it in closed form; re-recorded when that replaced the
        # sweep loop on uncoupled models.
        qpu = SimulatedQPU(
            topology=chimera_graph(6), noise=GaussianNoiseModel(0.05, 0.025)
        )
        solver = StringQuboSolver(
            sampler=EmbeddingComposite(qpu),
            num_reads=32,
            seed=3,
            sampler_params={"num_sweeps": 400},
        )
        result = solver.solve(StringEquality("hi"))
        assert _digest(result.sampleset) == (
            "96f98efdff7808d6645caf28a589a6f95964aa6a577dcf4d4a4964343a96b62e"
        )

    def test_native_noise_free(self):
        qpu = SimulatedQPU(topology=chimera_graph(2))
        ss = qpu.sample_model(_native_model(), num_reads=16, num_sweeps=100, seed=7)
        assert _digest(ss) == (
            "bea12214a6ab54c14091f83412e6c377f8ef6ea8e4689cd6f7a70e334219e78e"
        )
