"""Steepest-descent sampler.

Deterministic local search: every read repeatedly takes the single flip with
the largest energy decrease until no flip improves. Useful standalone as a
baseline and as a cheap post-processing pass after annealing (the role of
D-Wave's ``greedy`` package).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.anneal.base import Sampler, resolve_initial_states
from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix, flip_update
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SteepestDescentSampler"]


class SteepestDescentSampler(Sampler):
    """Vectorized best-improvement descent from random (or given) starts.

    Runs on the CSR coupling form: each step's flips (one per read)
    update the local fields through the flipped variables' CSR row slices
    in one :func:`~repro.qubo.sparse.flip_update`.
    """

    parameters = {
        "num_reads": "independent descents",
        "initial_states": "optional (R, n) starting states",
        "max_steps": "safety cap on flips per read (default 16 n)",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 32,
        initial_states: Optional[np.ndarray] = None,
        max_steps: Optional[int] = None,
        seed: SeedLike = None,
        **unknown: Any,
    ) -> SampleSet:
        if unknown:
            raise TypeError(f"unknown sampler parameters: {sorted(unknown)}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        rng = ensure_rng(seed)
        n = model.num_variables
        if n == 0:
            return SampleSet(
                np.zeros((num_reads, 0), dtype=np.int8),
                np.full(num_reads, model.offset),
            )
        diag, coupling = model.sampler_form()
        # Shared validator (also used by SA): rejects non-binary starting
        # states, which would otherwise leave the {0,1} domain through the
        # kernel's ^= 1 flips and score as garbage energies.
        states = resolve_initial_states(initial_states, num_reads, n, rng)
        cap = max_steps if max_steps is not None else 16 * n
        steps = self._descend(states, diag, coupling, cap)
        energies = model.energies(states)
        return SampleSet(
            states,
            energies,
            info={"sampler": "SteepestDescentSampler", "total_steps": steps},
        )

    def sample_tiled(
        self,
        tiled: Any,
        *,
        num_reads: int = 32,
        initial_states: Optional[list] = None,
        max_steps: Optional[int] = None,
        seed: Any = None,
        **unknown: Any,
    ) -> list:
        """Descend all blocks of a tiled problem on one fused state matrix.

        Shared ``(R, Σn)`` state/field matrices and one lockstep loop;
        each block keeps its own step cap (default ``16 n_k``) and
        convergence tracking, and draws its starting states from its own
        content-keyed stream — per-block results are bit-identical to
        solo solves at ``seed=tiled.block_rngs(seed)[k]`` for
        integer-coefficient models. ``initial_states``, when given, is a
        length-K sequence of per-block arrays (entries may be None).
        """
        if unknown:
            raise TypeError(f"unknown sampler parameters: {sorted(unknown)}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if tiled.num_blocks == 0:
            return []
        if initial_states is not None and len(initial_states) != tiled.num_blocks:
            raise ValueError(
                f"initial_states must have one entry per block "
                f"({tiled.num_blocks}), got {len(initial_states)}"
            )
        rngs = tiled.block_rngs(seed)

        caps = [0] * tiled.num_blocks
        block_states = []
        nonempty = []
        for k, model in enumerate(tiled.models):
            n_k = model.num_variables
            if n_k == 0:
                block_states.append(np.zeros((num_reads, 0), dtype=np.int8))
                continue
            init = initial_states[k] if initial_states is not None else None
            block_states.append(resolve_initial_states(init, num_reads, n_k, rngs[k]))
            caps[k] = max_steps if max_steps is not None else 16 * n_k
            nonempty.append(k)
        states = np.hstack(block_states)
        totals = [0] * tiled.num_blocks

        if nonempty:
            diag, coupling = tiled.fused_sampler_form()
            fields = coupling.matmul_dense(states)
            rows_all = np.arange(num_reads)
            converged = [False] * tiled.num_blocks
            for step in range(max(caps)):
                live = [
                    k for k in nonempty if not converged[k] and step < caps[k]
                ]
                if not live:
                    break
                dx = 1.0 - 2.0 * states
                delta_e = dx * (diag[None, :] + fields)
                for k in live:
                    sl = tiled.block_slice(k)
                    sub = delta_e[:, sl]
                    best_var = np.argmin(sub, axis=1)
                    best_delta = sub[rows_all, best_var]
                    active = best_delta < -1e-12
                    if not active.any():
                        converged[k] = True
                        continue
                    rows = np.nonzero(active)[0]
                    cols = best_var[rows] + sl.start
                    dxa = dx[rows, cols]
                    states[rows, cols] ^= 1
                    flip_update(fields, coupling, rows, cols, dxa)
                    totals[k] += rows.size

        per_block_info = [
            {"sampler": "SteepestDescentSampler", "total_steps": totals[k]}
            if tiled.models[k].num_variables
            else {}
            for k in range(tiled.num_blocks)
        ]
        return tiled.build_samplesets(states, per_block_info=per_block_info)

    @staticmethod
    def _descend(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: CsrMatrix,
        max_steps: int,
    ) -> int:
        """Flip the best variable per read until all reads are local minima.

        Each outer iteration flips at most one variable in every still-active
        read — all reads progress in lockstep, vectorized.
        """
        num_reads, n = states.shape
        fields = coupling.matmul_dense(states)
        active = np.ones(num_reads, dtype=bool)
        total = 0
        for _ in range(max_steps):
            dx = 1.0 - 2.0 * states
            delta_e = dx * (diag[None, :] + fields)
            best_var = np.argmin(delta_e, axis=1)
            best_delta = delta_e[np.arange(num_reads), best_var]
            active = best_delta < -1e-12
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            cols = best_var[rows]
            dxa = dx[rows, cols]
            states[rows, cols] ^= 1
            flip_update(fields, coupling, rows, cols, dxa)
            total += rows.size
        return total
