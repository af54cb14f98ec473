"""Parallel sampling: split reads across workers, or race samplers.

Two composition patterns:

* :class:`ParallelSampler` — split one sampler's ``num_reads`` across
  processes (or threads, or serial chunks). Each worker gets an independent
  RNG stream spawned from the parent seed, so results are reproducible and
  independent of scheduling order — the SPMD pattern from the MPI guides,
  realized with the standard library because the execution substrate here is
  a single node.
* :class:`PortfolioSampler` — run *different* samplers on the same model and
  merge their sample sets (an algorithm portfolio; the winner is recorded in
  ``info["portfolio_best"]``).

Workers receive the model as its ``i <= j`` coefficient dict — never a
dense matrix (``QuboModel.__getstate__`` likewise drops cached matrix
views, so even a directly-pickled model ships O(nnz) bytes). Each worker
rebuilds the model locally and builds its CSR sampler form there.
"""

from __future__ import annotations

import concurrent.futures as cf
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel
from repro.utils.rng import SeedLike, spawn_rngs

__all__ = ["ParallelSampler", "PortfolioSampler", "split_evenly"]


def split_evenly(total: int, parts: int) -> List[int]:
    """Partition *total* units into at most *parts* non-empty, near-equal chunks.

    The chunking primitive behind :class:`ParallelSampler` (splitting
    ``num_reads`` across workers) and the batch service (sharding work items
    into waves). Invariants, for all valid inputs:

    * ``sum(split_evenly(total, parts)) == total``;
    * no chunk is empty: ``total == 0`` yields ``[]``, and fewer units than
      parts yields ``total`` chunks of one;
    * chunk sizes differ by at most one and are non-increasing.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if total == 0:
        return []
    workers = min(parts, total)
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_chunk(
    sampler: Sampler,
    coefficients: Dict[Tuple[int, int], float],
    num_variables: int,
    offset: float,
    reads: int,
    seed: int,
    params: Dict[str, Any],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-level worker body (must be picklable for process pools)."""
    model = QuboModel(num_variables, coefficients, offset=offset)
    result = sampler.sample_model(model, num_reads=reads, seed=seed, **params)
    return result.states, result.energies, result.num_occurrences


class ParallelSampler(Sampler):
    """Split a child sampler's reads across a worker pool.

    Parameters
    ----------
    child:
        Any sampler accepting ``num_reads`` and ``seed`` parameters.
    num_workers:
        Pool size (default 4).
    executor:
        ``"process"`` (default), ``"thread"``, or ``"serial"``. The serial
        mode runs the same chunking without a pool — useful for debugging
        and as the reproducibility reference (all three modes produce
        identical sample sets for a given seed).
    """

    def __init__(
        self, child: Sampler, num_workers: int = 4, executor: str = "process"
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if executor not in ("process", "thread", "serial"):
            raise ValueError(
                f"executor must be 'process', 'thread' or 'serial', got {executor!r}"
            )
        self.child = child
        self.num_workers = num_workers
        self.executor = executor

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 32,
        seed: SeedLike = None,
        **params: Any,
    ) -> SampleSet:
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        chunks = self._split_reads(num_reads, self.num_workers)
        rngs = spawn_rngs(seed, len(chunks))
        child_seeds = [int(r.integers(0, 2**63 - 1)) for r in rngs]
        coefficients = model.to_dict()
        args = [
            (
                self.child,
                coefficients,
                model.num_variables,
                model.offset,
                reads,
                child_seed,
                params,
            )
            for reads, child_seed in zip(chunks, child_seeds)
        ]

        if self.executor == "serial":
            raw = [_run_chunk(*a) for a in args]
        else:
            pool_cls = (
                cf.ProcessPoolExecutor
                if self.executor == "process"
                else cf.ThreadPoolExecutor
            )
            with pool_cls(max_workers=self.num_workers) as pool:
                futures = [pool.submit(_run_chunk, *a) for a in args]
                raw = [f.result() for f in futures]

        sets = [
            SampleSet(states, energies, num_occurrences=occurrences)
            for states, energies, occurrences in raw
        ]
        merged = SampleSet.concatenate(sets)
        merged.info.update(
            {
                "sampler": f"ParallelSampler({type(self.child).__name__})",
                "executor": self.executor,
                "num_workers": self.num_workers,
                "chunk_reads": chunks,
            }
        )
        return merged

    @staticmethod
    def _split_reads(num_reads: int, num_workers: int) -> List[int]:
        """Evenly partition reads; never emits empty chunks.

        Delegates to :func:`split_evenly`; ``num_reads == 0`` yields no
        chunks (the historical implementation raised ``ZeroDivisionError``)
        and ``num_reads < num_workers`` yields ``num_reads`` single-read
        chunks.
        """
        if num_reads < 0:
            raise ValueError(f"num_reads must be non-negative, got {num_reads}")
        return split_evenly(num_reads, num_workers)


class PortfolioSampler(Sampler):
    """Race heterogeneous samplers on the same model and merge the results."""

    def __init__(
        self,
        samplers: Sequence[Tuple[str, Sampler, Dict[str, Any]]],
        executor: str = "thread",
    ) -> None:
        """``samplers`` is a list of ``(name, sampler, fixed_params)``."""
        if not samplers:
            raise ValueError("portfolio needs at least one sampler")
        if executor not in ("thread", "serial"):
            raise ValueError(f"executor must be 'thread' or 'serial', got {executor!r}")
        names = [name for name, _, _ in samplers]
        if len(set(names)) != len(names):
            raise ValueError("portfolio entries must have unique names")
        self.entries = list(samplers)
        self.executor = executor

    def sample_model(
        self, model: QuboModel, *, seed: SeedLike = None, **shared: Any
    ) -> SampleSet:
        rngs = spawn_rngs(seed, len(self.entries))
        seeds = [int(r.integers(0, 2**63 - 1)) for r in rngs]

        def run(entry, child_seed):
            name, sampler, fixed = entry
            params = {**shared, **fixed}
            return name, sampler.sample_model(model, seed=child_seed, **params)

        if self.executor == "serial":
            results = [run(e, s) for e, s in zip(self.entries, seeds)]
        else:
            with cf.ThreadPoolExecutor(max_workers=len(self.entries)) as pool:
                futures = [
                    pool.submit(run, e, s) for e, s in zip(self.entries, seeds)
                ]
                results = [f.result() for f in futures]

        # A child may legitimately return an empty sample set (e.g. a
        # truncating/filtering composite that dropped every read); picking
        # the winner over all results used to crash on ``.first``. Skip
        # empty sets and only fail when *no* child produced samples.
        non_empty = [(name, res) for name, res in results if len(res)]
        if not non_empty:
            raise ValueError(
                "all portfolio samplers returned empty sample sets; "
                "nothing to merge"
            )
        best_name = min(non_empty, key=lambda pair: pair[1].first.energy)[0]
        per_sampler_best = {
            name: float(res.first.energy) for name, res in non_empty
        }
        merged = SampleSet.concatenate([res for _, res in non_empty])
        merged.info.update(
            {
                "sampler": "PortfolioSampler",
                "portfolio_best": best_name,
                "portfolio_energies": per_sampler_best,
            }
        )
        return merged
