import numpy as np
import pytest

from repro.anneal.exact import ExactSolver
from repro.anneal.sqa import PathIntegralAnnealer
from repro.hardware.chimera import chimera_graph
from repro.hardware.noise import GaussianNoiseModel
from repro.hardware.qpu import SimulatedQPU
from repro.qubo.ising import qubo_to_ising
from repro.qubo.model import QuboModel


def _native_model():
    """A model living directly on Chimera cell (0,0)."""
    return QuboModel(5, {(0, 0): -1.0, (4, 4): 0.5, (0, 4): -2.0})


class TestSimulatedQPU:
    def test_counts(self):
        qpu = SimulatedQPU(topology=chimera_graph(2))
        assert qpu.num_qubits == 32
        assert qpu.num_couplers == chimera_graph(2).number_of_edges()

    def test_native_model_sampled(self):
        qpu = SimulatedQPU(topology=chimera_graph(1))
        ss = qpu.sample_model(_native_model(), num_reads=16, num_sweeps=100, seed=0)
        # Ground state of -x0 + 0.5 x4 - 2 x0 x4 is x0=x4=1 with E=-2.5.
        assert ss.first.energy == pytest.approx(-2.5)

    def test_non_native_variable_rejected(self):
        qpu = SimulatedQPU(topology=chimera_graph(1))
        model = QuboModel(9, {(8, 8): 1.0})  # C(1) has qubits 0..7
        with pytest.raises(ValueError, match="not a qubit"):
            qpu.sample_model(model)

    def test_non_native_coupler_rejected(self):
        qpu = SimulatedQPU(topology=chimera_graph(1))
        model = QuboModel(2, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="no coupler"):
            qpu.sample_model(model)

    def test_energies_scored_against_clean_model(self):
        qpu = SimulatedQPU(
            topology=chimera_graph(1), noise=GaussianNoiseModel(0.3, 0.3)
        )
        model = _native_model()
        ss = qpu.sample_model(model, num_reads=8, num_sweeps=100, seed=1)
        recomputed = model.energies(ss.states)
        np.testing.assert_allclose(ss.energies, recomputed, atol=1e-9)

    def test_noise_degrades_success(self):
        # With huge noise the annealer optimizes the wrong Hamiltonian.
        clean = SimulatedQPU(topology=chimera_graph(1))
        noisy = SimulatedQPU(
            topology=chimera_graph(1), noise=GaussianNoiseModel(5.0, 5.0)
        )
        model = _native_model()
        hits_clean = 0
        hits_noisy = 0
        for seed in range(10):
            c = clean.sample_model(model, num_reads=4, num_sweeps=100, seed=seed)
            n = noisy.sample_model(model, num_reads=4, num_sweeps=100, seed=seed)
            hits_clean += c.first.energy == pytest.approx(-2.5)
            hits_noisy += n.first.energy == pytest.approx(-2.5)
        assert hits_clean > hits_noisy

    def test_sqa_backend(self):
        qpu = SimulatedQPU(
            topology=chimera_graph(1), backend=PathIntegralAnnealer()
        )
        ss = qpu.sample_model(_native_model(), num_reads=4, num_sweeps=64, seed=2)
        assert ss.first.energy == pytest.approx(-2.5)

    def test_sample_model_uses_indices_as_qubits(self):
        qpu = SimulatedQPU(topology=chimera_graph(1))
        m = QuboModel(2, {(0, 0): -1.0})  # variables 0 and 1 are real qubits
        ss = qpu.sample_model(m, num_reads=4, num_sweeps=50, seed=0)
        assert ss.first.energy == pytest.approx(-1.0)

    def test_info(self):
        qpu = SimulatedQPU(topology=chimera_graph(1), name="test-qpu")
        ss = qpu.sample_model(_native_model(), num_reads=2, num_sweeps=10, seed=0)
        assert ss.info["device"] == "test-qpu"
        assert ss.info["noisy"] is False

    def test_native_noise_acts_on_ising_form(self):
        # The noise model perturbs the programmed (h, J): with h_sigma=0
        # every programmed field keeps its value on the native path too.
        backend = _Recording()
        qpu = SimulatedQPU(
            topology=chimera_graph(1),
            noise=GaussianNoiseModel(h_sigma=0.0, j_sigma=0.5),
            backend=backend,
        )
        model = QuboModel(5, {(0, 4): -2.0})
        qpu.sample_model(model, seed=0)
        clean_h, clean_j, _ = qubo_to_ising(model.to_dict())
        programmed_h, programmed_j, _ = qubo_to_ising(backend.models[0].to_dict())
        assert programmed_h == pytest.approx(clean_h, abs=1e-12)
        assert programmed_j[(0, 4)] != clean_j[(0, 4)]

    def test_repr(self):
        assert "SimulatedQPU" in repr(SimulatedQPU())


class _Recording(ExactSolver):
    """Exact backend that keeps every model the device programs."""

    parameters = {"seed": "ignored"}

    def __init__(self):
        self.models = []

    def sample_model(self, model, *, seed=None, **params):
        self.models.append(model)
        return super().sample_model(model, **params)
