"""Sampler interface.

Every solver in the library — simulated annealing, SQA, exact enumeration,
tabu, the simulated QPU and its embedding composite — implements
:class:`Sampler.sample_model` on the index-based
:class:`~repro.qubo.model.QuboModel`, and inherits
:meth:`Sampler.sample_tiled` for the blocks of a tiled problem.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional

import numpy as np

from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel

__all__ = ["Sampler", "resolve_initial_states"]


def resolve_initial_states(
    initial_states: Optional[np.ndarray],
    num_reads: int,
    num_variables: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Validated ``(num_reads, n)`` int8 {0,1} starting states.

    ``None`` draws uniform random states from *rng*; a 1-d array is
    broadcast to every read. Shared by every sampler that accepts
    ``initial_states`` so they all enforce the same contract — non-binary
    values are rejected here rather than silently escaping the {0,1}
    domain through the kernels' ``^= 1`` flips.
    """
    if initial_states is None:
        return rng.integers(0, 2, size=(num_reads, num_variables), dtype=np.int8)
    arr = np.asarray(initial_states)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("initial_states must be 0/1 valued")
    arr = np.array(arr, dtype=np.int8, copy=True)
    if arr.ndim == 1:
        arr = np.broadcast_to(arr, (num_reads, num_variables)).copy()
    if arr.shape != (num_reads, num_variables):
        raise ValueError(
            f"initial_states shape {arr.shape} != ({num_reads}, {num_variables})"
        )
    return arr


class Sampler(abc.ABC):
    """Abstract base for everything that turns a QUBO into a SampleSet."""

    #: Human-readable parameter documentation, for introspection.
    parameters: Dict[str, str] = {}

    @abc.abstractmethod
    def sample_model(self, model: QuboModel, **params: Any) -> SampleSet:
        """Sample an index-based QUBO; columns are labelled ``0..n-1``."""

    def sample_tiled(self, tiled: Any, *, seed: Any = None, **params: Any) -> List[SampleSet]:
        """Solve the blocks of a :class:`~repro.qubo.tile.TiledProblem`.

        Returns one :class:`SampleSet` per block, under the tiler's
        batch-invariance contract: block *k* is sampled with the RNG
        stream ``tiled.block_rngs(seed)[k]``, keyed by ``(base_seed,
        block content hash)``, so its result never depends on its
        tile-mates. This default solves each block with a separate
        ``sample_model`` call — correct for every sampler but with no
        fusion speedup; simulated annealing overrides it with a fused
        kernel that reproduces this fallback bit-for-bit.

        Samplers that consume a seed must list ``"seed"`` in their
        :attr:`parameters` dict; deterministic samplers (e.g. the exact
        solver) are run without one.
        """
        rngs = tiled.block_rngs(seed)
        takes_seed = "seed" in type(self).parameters
        out: List[SampleSet] = []
        for k, model in enumerate(tiled.models):
            kwargs = dict(params)
            if takes_seed:
                kwargs["seed"] = rngs[k]
            result = self.sample_model(model, **kwargs)
            result.info.setdefault(
                "tile", {"num_blocks": tiled.num_blocks, "block": k}
            )
            out.append(result)
        return out
