"""The simulated quantum processing unit.

:class:`SimulatedQPU` models a physical annealer as seen from software:

* it only accepts models *native* to its qubit topology (use
  :class:`~repro.hardware.embedding.EmbeddingComposite` for anything else);
* it is programmed with an Ising model ``(h, J)`` over qubits, and its
  control-noise model perturbs those fields and couplings before
  annealing;
* it anneals with a configurable backend — classical SA by default, or
  :class:`~repro.anneal.sqa.PathIntegralAnnealer` for transverse-field
  dynamics;
* reported energies are always those of the **clean** (noise-free) model,
  because that is what a user of real hardware observes: the device anneals
  the noisy Hamiltonian but states are scored against the submitted problem.
"""

from __future__ import annotations

from typing import Any, Optional

import networkx as nx

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.hardware.chimera import chimera_graph
from repro.hardware.noise import GaussianNoiseModel
from repro.qubo.ising import Couplings, Fields, ising_to_qubo, model_to_ising
from repro.qubo.model import QuboModel
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SimulatedQPU"]


class SimulatedQPU(Sampler):
    """Topology-restricted, noisy annealer.

    Parameters
    ----------
    topology:
        Hardware graph (default: Chimera ``C(4, 4, 4)``, 128 qubits).
    noise:
        A :class:`~repro.hardware.noise.GaussianNoiseModel`, or ``None``
        for an ideal device.
    backend:
        The annealing engine; default
        :class:`~repro.anneal.simulated.SimulatedAnnealingSampler`.
    name:
        Device name for reporting.
    """

    def __init__(
        self,
        topology: Optional[nx.Graph] = None,
        noise: Optional[GaussianNoiseModel] = None,
        backend: Optional[Sampler] = None,
        name: str = "simulated-qpu",
    ) -> None:
        self.topology = topology if topology is not None else chimera_graph(4)
        self.noise = noise
        self.backend = backend if backend is not None else SimulatedAnnealingSampler()
        self.name = name

    @property
    def num_qubits(self) -> int:
        return self.topology.number_of_nodes()

    @property
    def num_couplers(self) -> int:
        return self.topology.number_of_edges()

    def __repr__(self) -> str:
        return (
            f"SimulatedQPU({self.name!r}, {self.num_qubits} qubits, "
            f"{self.num_couplers} couplers, noise={self.noise!r})"
        )

    # ------------------------------------------------------------------ #

    def sample_model(
        self, model: QuboModel, *, seed: SeedLike = None, **params: Any
    ) -> SampleSet:
        """Anneal a native model: variable ``i`` is qubit ``i``."""
        return self._anneal(*model_to_ising(model), model, seed, params)

    def anneal_ising(
        self,
        h: Fields,
        j: Couplings,
        offset: float = 0.0,
        *,
        seed: SeedLike = None,
        **params: Any,
    ) -> SampleSet:
        """Anneal fields *h* and couplings *j* programmed over qubits.

        Column ``c`` of the returned BINARY states is the ``c``-th qubit
        of *h*.
        """
        return self._anneal(h, j, offset, _qubo_form(h, j, offset), seed, params)

    def _anneal(
        self, h: Fields, j: Couplings, offset: float, clean: QuboModel, seed, params
    ) -> SampleSet:
        """Program ``(h, j)`` through the noise model, anneal its QUBO form,
        and score the reads against *clean*, the noise-free problem."""
        for q in h:
            if q not in self.topology:
                raise ValueError(f"variable {q!r} is not a qubit of {self.name}")
        for u, v in j:
            if not self.topology.has_edge(u, v):
                raise ValueError(
                    f"interaction ({u!r}, {v!r}) has no coupler on {self.name}; "
                    "use EmbeddingComposite for non-native models"
                )
        rng = ensure_rng(seed)
        programmed = clean
        if self.noise is not None:
            programmed = _qubo_form(*self.noise.apply(h, j, seed=rng), offset)
        result = self.backend.sample_model(
            programmed, seed=int(rng.integers(0, 2**63 - 1)), **params
        )
        out = SampleSet(
            result.states,
            clean.energies(result.states),
            num_occurrences=result.num_occurrences,
            info=result.info,
        )
        out.info.update({"device": self.name, "noisy": self.noise is not None})
        return out


def _qubo_form(h: Fields, j: Couplings, offset: float) -> QuboModel:
    """The QUBO the backend anneals: qubits become columns in *h* order."""
    column = {q: c for c, q in enumerate(h)}
    coefficients, qubo_offset = ising_to_qubo(
        {column[q]: bias for q, bias in h.items()},
        {(column[u], column[v]): coupling for (u, v), coupling in j.items()},
        offset,
    )
    return QuboModel(len(h), coefficients, qubo_offset)
