import networkx as nx
import numpy as np
import pytest

from repro.anneal.exact import ExactSolver
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import (
    EmbeddingComposite,
    EmbeddingError,
    embed_ising,
    find_embedding,
    verify_embedding,
)
from repro.hardware.qpu import SimulatedQPU
from repro.qubo.model import QuboModel


def _energy(ising, sample):
    """Energy of a ``{variable: spin}`` sample under Ising ``(h, J, offset)``."""
    h, j, offset = ising
    return (
        offset
        + sum(bias * sample[v] for v, bias in h.items())
        + sum(c * sample[u] * sample[v] for (u, v), c in j.items())
    )


class TestFindEmbedding:
    def test_path_graph_trivially_embeds(self):
        source = nx.path_graph(5)
        target = chimera_graph(2)
        emb = find_embedding(source, target, seed=0)
        verify_embedding(emb, source, target)

    def test_cycle_embeds(self):
        source = nx.cycle_graph(6)
        target = chimera_graph(2)
        emb = find_embedding(source, target, seed=1)
        verify_embedding(emb, source, target)

    def test_k5_embeds_with_chains(self):
        source = nx.complete_graph(5)
        target = chimera_graph(3)
        emb = find_embedding(source, target, seed=2)
        verify_embedding(emb, source, target)
        # K5 is not a subgraph of Chimera: some chain must be longer than 1.
        assert max(len(chain) for chain in emb.values()) >= 2

    def test_dense_source_falls_back_to_clique_embedding(self):
        source = nx.complete_graph(12)
        target = chimera_graph(4)
        emb = find_embedding(source, target, seed=3)
        verify_embedding(emb, source, target)

    def test_empty_source(self):
        assert find_embedding(nx.Graph(), chimera_graph(1)) == {}

    def test_source_larger_than_target_rejected(self):
        with pytest.raises(EmbeddingError):
            find_embedding(nx.complete_graph(40), chimera_graph(1, 1, 4))

    def test_impossible_embedding_raises(self):
        # K5 cannot embed into a 4-qubit path.
        with pytest.raises(EmbeddingError):
            find_embedding(nx.complete_graph(5), nx.path_graph(5), tries=4)

    def test_reproducible_with_seed(self):
        source = nx.cycle_graph(5)
        target = chimera_graph(2)
        a = find_embedding(source, target, seed=11)
        b = find_embedding(source, target, seed=11)
        assert a == b

    def test_isolated_source_nodes(self):
        source = nx.Graph()
        source.add_nodes_from(["a", "b", "c"])
        target = chimera_graph(1)
        emb = find_embedding(source, target, seed=0)
        verify_embedding(emb, source, target)
        assert all(len(chain) == 1 for chain in emb.values())


class TestVerifyEmbedding:
    def _setup(self):
        source = nx.path_graph(3)
        target = chimera_graph(2)
        emb = find_embedding(source, target, seed=0)
        return source, target, emb

    def test_overlapping_chains_rejected(self):
        source, target, emb = self._setup()
        keys = list(emb)
        emb[keys[0]] = list(emb[keys[1]])  # duplicate a chain
        with pytest.raises(ValueError, match="shared"):
            verify_embedding(emb, source, target)

    def test_missing_node_rejected(self):
        source, target, emb = self._setup()
        emb.pop(list(emb)[0])
        with pytest.raises(ValueError, match="misses"):
            verify_embedding(emb, source, target)

    def test_disconnected_chain_rejected(self):
        source = nx.Graph()
        source.add_node("x")
        target = chimera_graph(2)
        # Two qubits in different cells with no edge between them.
        with pytest.raises(ValueError, match="not connected"):
            verify_embedding({"x": [0, 9]}, source, target)

    def test_uncoupled_edge_rejected(self):
        source = nx.path_graph(2)
        target = chimera_graph(2)
        # Two shore-0 qubits of the same cell are not adjacent.
        with pytest.raises(ValueError, match="no physical coupler"):
            verify_embedding({0: [0], 1: [1]}, source, target)

    def test_empty_chain_rejected(self):
        source = nx.Graph()
        source.add_node("x")
        with pytest.raises(ValueError, match="empty chain"):
            verify_embedding({"x": []}, source, chimera_graph(1))

    def test_unknown_qubit_rejected(self):
        source = nx.Graph()
        source.add_node("x")
        with pytest.raises(ValueError, match="unknown qubit"):
            verify_embedding({"x": [999]}, source, chimera_graph(1))


class TestEmbedIsing:
    def test_unbroken_chain_energy_matches_logical(self):
        target = chimera_graph(2)
        logical = ({0: 0.5, 1: -1.0}, {(0, 1): 0.75}, 0.0)
        emb = find_embedding(nx.Graph([(0, 1)]), target, seed=0)
        physical = embed_ising(*logical, emb, target, chain_strength=2.0)
        # Build a physical state where every chain agrees.
        for sa in (-1, 1):
            for sb in (-1, 1):
                sample = {}
                for q in emb[0]:
                    sample[q] = sa
                for q in emb[1]:
                    sample[q] = sb
                assert _energy(physical, sample) == pytest.approx(
                    _energy(logical, {0: sa, 1: sb})
                )

    def test_chain_break_costs_energy(self):
        target = chimera_graph(2)
        source = nx.complete_graph(3)
        logical = (
            {0: 0.0, 1: 0.0, 2: 0.0},
            {(0, 1): 0.1, (1, 2): 0.1, (0, 2): 0.1},
            0.0,
        )
        emb = find_embedding(source, target, seed=1)
        long_chains = {v: c for v, c in emb.items() if len(c) > 1}
        if not long_chains:
            pytest.skip("embedding found with unit chains")
        physical = embed_ising(*logical, emb, target, chain_strength=5.0)
        aligned = {q: 1 for chain in emb.values() for q in chain}
        broken = dict(aligned)
        v, chain = next(iter(long_chains.items()))
        broken[chain[0]] = -1
        assert _energy(physical, broken) > _energy(physical, aligned)

    def test_bad_chain_strength(self):
        with pytest.raises(ValueError):
            embed_ising({0: 1.0}, {}, 0.0, {0: [0]}, chimera_graph(1), chain_strength=0.0)


class TestEmbeddingComposite:
    def test_end_to_end_ground_state(self):
        rng = np.random.default_rng(0)
        m = QuboModel.from_dense(np.triu(rng.normal(size=(6, 6))))
        _, ground = ExactSolver().ground_state(m)
        comp = EmbeddingComposite(SimulatedQPU(topology=chimera_graph(4)))
        ss = comp.sample_model(m, num_reads=24, num_sweeps=300, seed=4)
        assert ss.first.energy == pytest.approx(ground, abs=1e-9)

    def test_info_contains_embedding_stats(self):
        m = QuboModel(3, {(0, 1): -1.0, (1, 2): -1.0})
        comp = EmbeddingComposite(SimulatedQPU(topology=chimera_graph(2)))
        ss = comp.sample_model(m, num_reads=4, num_sweeps=50, seed=0)
        assert ss.info["max_chain_length"] >= 1
        assert 0.0 <= ss.info["chain_break_fraction"] <= 1.0
        assert ss.info["chain_strength"] > 0

    def test_discard_resolution(self):
        m = QuboModel(3, {(0, 1): -1.0, (1, 2): -1.0, (0, 0): -0.5})
        comp = EmbeddingComposite(
            SimulatedQPU(topology=chimera_graph(2)), resolve="discard"
        )
        ss = comp.sample_model(m, num_reads=8, num_sweeps=100, seed=1)
        # Discarding may drop rows, never add.
        assert len(ss) <= 8

    def test_fixed_chain_strength_respected(self):
        m = QuboModel(2, {(0, 1): -1.0})
        comp = EmbeddingComposite(
            SimulatedQPU(topology=chimera_graph(2)), chain_strength=3.5
        )
        ss = comp.sample_model(m, num_reads=2, num_sweeps=20, seed=0)
        assert ss.info["chain_strength"] == 3.5

    def test_requires_topology(self):
        with pytest.raises(TypeError):
            EmbeddingComposite(object())
