"""Property-based tests for the hardware layer: any embedding the
heuristic returns must be a valid minor embedding, and unembedding must
invert embedding on chain-consistent states."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.chains import majority_vote
from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import EmbeddingError, find_embedding, verify_embedding


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    p = draw(st.floats(0.2, 0.9))
    seed = draw(st.integers(0, 2**31 - 1))
    g = nx.gnp_random_graph(n, p, seed=seed)
    return g


class TestEmbeddingProperties:
    @given(small_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_returned_embeddings_always_verify(self, source, seed):
        target = chimera_graph(4)
        try:
            embedding = find_embedding(source, target, seed=seed, tries=8)
        except EmbeddingError:
            return  # failing to embed is allowed; returning junk is not
        verify_embedding(embedding, source, target)

    @given(small_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_chains_cover_exactly_the_source(self, source, seed):
        target = chimera_graph(4)
        try:
            embedding = find_embedding(source, target, seed=seed, tries=8)
        except EmbeddingError:
            return
        assert set(embedding) == set(source.nodes())
        used = [q for chain in embedding.values() for q in chain]
        assert len(used) == len(set(used))  # disjoint

    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_unembed_inverts_embed_on_consistent_states(
        self, num_logical, chain_len, seed
    ):
        rng = np.random.default_rng(seed)
        # Build a synthetic chain map over distinct physical columns.
        chains = {}
        qubit = 0
        for v in range(num_logical):
            chains[v] = list(range(qubit, qubit + chain_len))
            qubit += chain_len
        logical_truth = rng.integers(0, 2, size=num_logical)
        physical = np.concatenate(
            [np.full(chain_len, bit, dtype=np.int8) for bit in logical_truth]
        )[None, :]
        decoded, order = majority_vote(physical, chains)
        recovered = [decoded[0][order.index(v)] for v in range(num_logical)]
        np.testing.assert_array_equal(recovered, logical_truth)
