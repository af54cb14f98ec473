"""Minor embedding: mapping logical models onto hardware topologies.

A QUBO's interaction graph is rarely a subgraph of the hardware topology;
it must be embedded as a *graph minor*: each logical variable maps to a
connected chain of physical qubits, chains are disjoint, and every logical
interaction is carried by at least one physical coupler between the
corresponding chains.

:func:`find_embedding` implements a randomized Steiner-growth heuristic in
the spirit of ``minorminer``: logical variables are embedded one at a time
(highest degree first); each new variable's chain is grown from the free
qubit minimizing the total shortest-path distance to all already-embedded
neighbour chains, taking the union of those paths.

:func:`embed_ising` spreads a logical Ising model ``(h, J)`` over the
chains, and :class:`EmbeddingComposite` runs the whole path on a
:class:`~repro.qubo.model.QuboModel`: its interaction graph is embedded,
its Ising form is programmed into the device, and the physical reads are
unembedded through the chains' column indices.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.hardware.chains import (
    chain_break_fraction,
    resolve_chain_breaks,
    uniform_torque_compensation,
)
from repro.qubo.ising import Couplings, Fields, model_to_ising
from repro.qubo.model import QuboModel
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "EmbeddingError",
    "find_embedding",
    "verify_embedding",
    "embed_ising",
    "EmbeddingComposite",
]

Embedding = Dict[Hashable, List[Hashable]]


class EmbeddingError(RuntimeError):
    """Raised when no embedding can be found within the retry budget."""


# --------------------------------------------------------------------- #
# the heuristic
# --------------------------------------------------------------------- #


def find_embedding(
    source: nx.Graph,
    target: nx.Graph,
    seed: SeedLike = None,
    tries: int = 16,
) -> Embedding:
    """Embed *source* as a minor of *target*.

    Returns ``{logical: [physical, ...]}`` with connected, disjoint chains
    covering every source node. Raises :class:`EmbeddingError` when *tries*
    randomized attempts all fail.
    """
    if source.number_of_nodes() == 0:
        return {}
    if source.number_of_nodes() > target.number_of_nodes():
        raise EmbeddingError(
            f"source has {source.number_of_nodes()} nodes but target only "
            f"{target.number_of_nodes()} qubits"
        )
    rng = ensure_rng(seed)
    for _ in range(max(tries, 1)):
        embedding = _attempt(source, target, rng)
        if embedding is not None:
            return embedding
    # Dense sources defeat greedy Steiner growth; on Chimera-family
    # topologies fall back to the deterministic clique embedding, which
    # accommodates any source of up to min(rows, cols) * tile variables.
    if target.graph.get("family") in ("chimera", "pegasus-like", "zephyr-like"):
        embedding = _clique_embedding(list(source.nodes()), target)
        if embedding is not None:
            return embedding
    raise EmbeddingError(
        f"no embedding found in {tries} tries "
        "(chain growth ran out of free qubits); try a larger topology"
    )


def _clique_embedding(
    variables: Sequence[Hashable], target: nx.Graph
) -> Optional[Embedding]:
    """Canonical Chimera clique embedding with cross-shaped chains.

    Variable ``i = (a, b)`` occupies the vertical shore-``b`` qubits of the
    whole column ``a`` plus the horizontal shore-``b`` qubits of the whole
    row ``a``; the two arms meet (and couple) in the diagonal cell
    ``(a, a)``, and any two chains intersect in exactly one cell where a
    ``K_{t,t}`` edge couples them. Supports ``K_{s*t}`` with chain length
    ``rows + cols`` on an ``s = min(rows, cols)`` square.
    """
    from repro.hardware.chimera import chimera_index

    rows = target.graph.get("rows")
    cols = target.graph.get("cols")
    tile = target.graph.get("tile")
    if not all(isinstance(x, int) for x in (rows, cols, tile)):
        return None
    side = min(rows, cols)
    if len(variables) > side * tile:
        return None
    embedding: Embedding = {}
    for i, v in enumerate(variables):
        a, b = divmod(i, tile)
        chain = [chimera_index(r, a, 0, b, cols, tile) for r in range(side)]
        chain += [chimera_index(a, c, 1, b, cols, tile) for c in range(side)]
        if not all(target.has_node(q) for q in chain):
            return None
        embedding[v] = chain
    return embedding


def _attempt(
    source: nx.Graph, target: nx.Graph, rng: np.random.Generator
) -> Optional[Embedding]:
    nodes = list(source.nodes())
    # Degree-descending order with randomized tie-break.
    jitter = dict(zip(nodes, rng.random(len(nodes))))
    nodes.sort(key=lambda v: (-source.degree(v), jitter[v]))
    free = set(target.nodes())
    chains: Embedding = {}
    target_degree = dict(target.degree())

    for v in nodes:
        embedded_nbrs = [u for u in source[v] if u in chains]
        if not embedded_nbrs:
            root = _pick_seed_qubit(free, target_degree, rng)
            if root is None:
                return None
            chains[v] = [root]
            free.discard(root)
            continue
        grown = _grow_chain(target, free, [chains[u] for u in embedded_nbrs], rng)
        if grown is None:
            return None
        chains[v] = grown
        free.difference_update(grown)
    return chains


def _pick_seed_qubit(free: set, degree: Mapping, rng: np.random.Generator):
    """A random free qubit, degree-weighted to keep well-connected regions open."""
    if not free:
        return None
    candidates = list(free)
    weights = np.array([degree[q] + 1.0 for q in candidates])
    weights /= weights.sum()
    return candidates[int(rng.choice(len(candidates), p=weights))]


def _grow_chain(
    target: nx.Graph,
    free: set,
    neighbour_chains: Sequence[Sequence[Hashable]],
    rng: np.random.Generator,
) -> Optional[List[Hashable]]:
    """Pick the free root minimizing total distance to all neighbour chains,
    then take the union of the shortest paths from the root to each chain."""
    distance_maps = []
    parent_maps = []
    for chain in neighbour_chains:
        dist, parent = _multi_source_bfs(target, chain, free)
        distance_maps.append(dist)
        parent_maps.append(parent)

    # Candidate roots: free qubits reachable from every neighbour chain.
    candidates = set(distance_maps[0])
    for dist in distance_maps[1:]:
        candidates &= set(dist)
    candidates &= free
    if not candidates:
        return None
    totals = {q: sum(dist[q] for dist in distance_maps) for q in candidates}
    best_total = min(totals.values())
    best = [q for q, t in totals.items() if t == best_total]
    root = best[int(rng.integers(0, len(best)))]

    chain = {root}
    for dist, parent in zip(distance_maps, parent_maps):
        # Walk from the root back toward the neighbour chain (dist 0 nodes
        # are the chain's own qubits and are excluded).
        node = root
        while dist[node] > 0:
            node = parent[node]
            if dist[node] > 0:
                chain.add(node)
    if not all(q in free for q in chain):
        return None
    return sorted(chain, key=str)


def _multi_source_bfs(
    target: nx.Graph, sources: Sequence[Hashable], free: set
) -> Tuple[Dict[Hashable, int], Dict[Hashable, Hashable]]:
    """BFS from a chain through free qubits only.

    Chain qubits get distance 0; every other visited node is free. Returns
    ``(distance, parent)`` maps over visited nodes.
    """
    dist: Dict[Hashable, int] = {q: 0 for q in sources}
    parent: Dict[Hashable, Hashable] = {}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for nbr in target[node]:
            if nbr in dist or nbr not in free:
                continue
            dist[nbr] = dist[node] + 1
            parent[nbr] = node
            queue.append(nbr)
    return dist, parent


# --------------------------------------------------------------------- #
# validation & model embedding
# --------------------------------------------------------------------- #


def verify_embedding(
    embedding: Mapping[Hashable, Sequence[Hashable]],
    source: nx.Graph,
    target: nx.Graph,
) -> None:
    """Raise ``ValueError`` unless *embedding* is a valid minor embedding."""
    seen: Dict[Hashable, Hashable] = {}
    for logical, chain in embedding.items():
        if not chain:
            raise ValueError(f"empty chain for {logical!r}")
        for q in chain:
            if q not in target:
                raise ValueError(f"chain of {logical!r} uses unknown qubit {q!r}")
            if q in seen:
                raise ValueError(
                    f"qubit {q!r} shared by chains of {seen[q]!r} and {logical!r}"
                )
            seen[q] = logical
        if len(chain) > 1 and not nx.is_connected(target.subgraph(chain)):
            raise ValueError(f"chain of {logical!r} is not connected: {list(chain)}")
    missing = set(source.nodes()) - set(embedding)
    if missing:
        raise ValueError(f"embedding misses source nodes: {sorted(missing, key=str)}")
    for u, v in source.edges():
        if not _chains_coupled(embedding[u], embedding[v], target):
            raise ValueError(f"no physical coupler for source edge ({u!r}, {v!r})")


def _chains_coupled(
    chain_u: Sequence[Hashable], chain_v: Sequence[Hashable], target: nx.Graph
) -> bool:
    set_v = set(chain_v)
    return any(nbr in set_v for q in chain_u for nbr in target[q])


def embed_ising(
    h: Fields,
    j: Couplings,
    offset: float,
    embedding: Mapping[Hashable, Sequence[Hashable]],
    target: nx.Graph,
    chain_strength: float,
) -> Tuple[Dict, Dict, float]:
    """The physical Ising ``(h, J, offset)`` realizing ``(h, j, offset)``.

    Fields are split evenly over chain qubits; each logical coupling is
    split evenly over all available physical couplers between the two
    chains; intra-chain couplers get the ferromagnetic ``-chain_strength``.
    Qubits are listed chain by chain in *embedding* order. Each coupler is
    listed under its first-listed qubit, in the order it was added. The
    device draws its control noise in this order, so the order fixes
    which draw each field and coupler gets.
    """
    if chain_strength <= 0:
        raise ValueError(f"chain_strength must be positive, got {chain_strength}")
    physical_h: Dict[Hashable, float] = {}
    couplers: Dict[Tuple[Hashable, Hashable], float] = {}
    for logical, chain in embedding.items():
        bias = h[logical] / len(chain)
        for q in chain:
            physical_h[q] = bias
        # Ferromagnetic chain bonds on every induced edge, offset-corrected
        # so an unbroken chain contributes zero energy.
        chain_edges = list(target.subgraph(chain).edges())
        for edge in chain_edges:
            couplers[edge] = -chain_strength
        offset += chain_strength * len(chain_edges)

    for (u, v), coupling in j.items():
        shared = [
            (a, b) for a in embedding[u] for b in embedding[v] if target.has_edge(a, b)
        ]
        if not shared:
            raise ValueError(f"no physical coupler available for edge ({u!r}, {v!r})")
        for edge in shared:
            couplers[edge] = coupling / len(shared)
    column = {q: c for c, q in enumerate(physical_h)}
    physical_j = dict(
        sorted(couplers.items(), key=lambda item: min(map(column.get, item[0])))
    )
    return physical_h, physical_j, offset


# --------------------------------------------------------------------- #
# the composite
# --------------------------------------------------------------------- #


class EmbeddingComposite(Sampler):
    """Make a topology-restricted device accept arbitrary models.

    Wraps a :class:`~repro.hardware.qpu.SimulatedQPU` (or any device
    exposing a ``topology`` graph and ``anneal_ising``): finds a minor
    embedding, programs the physical Ising model, resolves chain breaks,
    and rescores the logical states against the **original** model.

    Parameters
    ----------
    qpu:
        The wrapped device sampler.
    chain_strength:
        Fixed chain strength, or ``None`` for uniform torque compensation.
    resolve:
        Chain-break resolution: ``"majority"`` (default) or ``"discard"``.
    embedding_tries:
        Retry budget for the embedding heuristic.
    """

    def __init__(
        self,
        qpu,
        chain_strength: Optional[float] = None,
        resolve: str = "majority",
        embedding_tries: int = 16,
    ) -> None:
        if not hasattr(qpu, "topology"):
            raise TypeError("qpu must expose a `topology` graph")
        self.qpu = qpu
        self.chain_strength = chain_strength
        self.resolve = resolve
        self.embedding_tries = embedding_tries

    def sample_model(
        self, model: QuboModel, *, seed: SeedLike = None, **params: Any
    ) -> SampleSet:
        rng = ensure_rng(seed)
        source = model.interaction_graph()
        embedding = find_embedding(
            source,
            self.qpu.topology,
            seed=rng,
            tries=self.embedding_tries,
        )
        verify_embedding(embedding, source, self.qpu.topology)

        h, j, offset = model_to_ising(model)
        strength = (
            self.chain_strength
            if self.chain_strength is not None
            else uniform_torque_compensation(h, j)
        )
        physical = embed_ising(h, j, offset, embedding, self.qpu.topology, strength)
        raw = self.qpu.anneal_ising(
            *physical, seed=int(rng.integers(0, 2**63 - 1)), **params
        )

        column = {q: c for c, q in enumerate(physical[0])}
        chains = {v: [column[q] for q in chain] for v, chain in embedding.items()}
        fractions = chain_break_fraction(raw.states, chains)
        logical, order, kept = resolve_chain_breaks(
            raw.states, chains, method=self.resolve, seed=rng
        )
        # Columns back in index order 0..n-1.
        states = logical[:, np.argsort(order)]
        out = SampleSet(
            states,
            model.energies(states),
            num_occurrences=raw.num_occurrences[kept],
        )
        out.info.update(
            {
                "sampler": f"EmbeddingComposite({type(self.qpu).__name__})",
                "embedding": {k: list(v) for k, v in embedding.items()},
                "chain_strength": float(strength),
                "chain_break_fraction": float(fractions.mean()) if len(fractions) else 0.0,
                "max_chain_length": max((len(c) for c in embedding.values()), default=0),
                "num_physical_qubits": int(sum(len(c) for c in embedding.values())),
                "resolve": self.resolve,
            }
        )
        return out
