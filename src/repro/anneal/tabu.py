"""Tabu search sampler — the strongest classical baseline in the suite.

Best-admissible-move local search with a recency-based tabu list and a
standard aspiration criterion (a tabu move is allowed when it would improve
on the best energy seen by that read). All reads advance in lockstep so each
search step is a handful of vectorized array operations.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.anneal.base import Sampler
from repro.anneal.sampleset import SampleSet
from repro.qubo.model import QuboModel
from repro.qubo.sparse import flip_update
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["TabuSampler"]


class TabuSampler(Sampler):
    """Multi-start tabu search over the QUBO.

    Runs on the CSR coupling form: each step's accepted moves (one per
    read) update the local fields through the flipped variables' CSR row
    slices in one :func:`~repro.qubo.sparse.flip_update`.
    """

    parameters = {
        "num_reads": "independent searches",
        "num_steps": "moves per search (default 8 n)",
        "tenure": "tabu tenure in moves (default min(20, n-1), 0 when n == 1)",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 16,
        num_steps: Optional[int] = None,
        tenure: Optional[int] = None,
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
        steps = num_steps if num_steps is not None else 8 * n
        if steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {steps}")
        if tenure is None:
            # n == 1 admits only tenure 0 (the [0, n) check below): with a
            # single variable there is nothing to forbid without
            # deadlocking the search, so the degenerate default is 0.
            tenure = max(min(20, n - 1), 0)
        if not (0 <= tenure < max(n, 1)):
            raise ValueError(f"tenure must lie in [0, n), got {tenure}")

        diag, coupling = model.sampler_form()
        states = rng.integers(0, 2, size=(num_reads, n), dtype=np.int8)
        fields = coupling.matmul_dense(states)
        energies = model.energies(states)

        best_states = states.copy()
        best_energies = energies.copy()
        # expire[r, i] = step index at which variable i stops being tabu for read r.
        expire = np.zeros((num_reads, n), dtype=np.int64)
        rows = np.arange(num_reads)

        for step in range(steps):
            dx = 1.0 - 2.0 * states
            delta_e = dx * (diag[None, :] + fields)
            candidate = energies[:, None] + delta_e
            # Aspiration: tabu moves stay admissible if they beat the best.
            blocked = (expire > step) & (candidate >= best_energies[:, None] - 1e-12)
            masked = np.where(blocked, np.inf, delta_e)
            move = np.argmin(masked, axis=1)
            move_delta = masked[rows, move]
            # A read where everything is blocked skips this step.
            ok = np.isfinite(move_delta)
            if ok.any():
                r = rows[ok]
                c = move[ok]
                dxa = dx[r, c]
                states[r, c] ^= 1
                energies[r] += move_delta[ok]
                flip_update(fields, coupling, r, c, dxa)
                expire[r, c] = step + 1 + tenure
                improved = energies[r] < best_energies[r] - 1e-12
                if improved.any():
                    ri = r[improved]
                    best_states[ri] = states[ri]
                    best_energies[ri] = energies[ri]

        # Report the best state each read visited, not where it ended.
        final_energies = model.energies(best_states)
        return SampleSet(
            best_states,
            final_energies,
            info={
                "sampler": "TabuSampler",
                "num_steps": steps,
                "tenure": tenure,
            },
        )

    def sample_tiled(
        self,
        tiled: Any,
        *,
        num_reads: int = 16,
        num_steps: Optional[int] = None,
        tenure: Optional[int] = None,
        seed: Any = None,
        **unknown: Any,
    ) -> list:
        """Run all blocks of a tiled problem as one fused tabu search.

        One ``(R, Σn)`` state/field matrix and one step loop; each block
        keeps its own move budget (default ``8 n_k``), tenure (default
        ``min(20, n_k - 1)``), best-state tracking, and — the only RNG
        use — its own content-keyed initial-state draw, so per-block
        results are bit-identical to solo solves at
        ``seed=tiled.block_rngs(seed)[k]`` for integer-coefficient
        models. An explicit ``tenure`` must be admissible for every
        block (``tenure < min_k n_k``).
        """
        if unknown:
            raise TypeError(f"unknown sampler parameters: {sorted(unknown)}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if tiled.num_blocks == 0:
            return []
        rngs = tiled.block_rngs(seed)
        sizes = np.asarray(tiled.sizes, dtype=np.int64)
        num_blocks = tiled.num_blocks

        steps_per_block = [0] * num_blocks
        tenure_per_block = [0] * num_blocks
        block_states = []
        nonempty = []
        for k, model in enumerate(tiled.models):
            n_k = model.num_variables
            if n_k == 0:
                block_states.append(np.zeros((num_reads, 0), dtype=np.int8))
                continue
            steps_k = num_steps if num_steps is not None else 8 * n_k
            if steps_k < 1:
                raise ValueError(f"num_steps must be >= 1, got {steps_k}")
            tenure_k = tenure if tenure is not None else max(min(20, n_k - 1), 0)
            if not (0 <= tenure_k < n_k):
                raise ValueError(
                    f"tenure must lie in [0, n) for every block, "
                    f"got {tenure_k} for block {k} (n={n_k})"
                )
            steps_per_block[k] = steps_k
            tenure_per_block[k] = tenure_k
            block_states.append(
                rngs[k].integers(0, 2, size=(num_reads, n_k), dtype=np.int8)
            )
            nonempty.append(k)
        states = np.hstack(block_states)

        per_block_info = [
            {
                "sampler": "TabuSampler",
                "num_steps": steps_per_block[k],
                "tenure": tenure_per_block[k],
            }
            if tiled.models[k].num_variables
            else {}
            for k in range(num_blocks)
        ]
        if not nonempty:
            return tiled.build_samplesets(states, per_block_info=per_block_info)

        diag, coupling = tiled.fused_sampler_form()
        n_total = tiled.num_variables
        fields = coupling.matmul_dense(states)
        # Per-read, per-block running and best energies: the repeat() below
        # broadcasts them back to fused column space each step.
        energies_rb = np.zeros((num_reads, num_blocks))
        for k in nonempty:
            energies_rb[:, k] = tiled.models[k].energies(
                states[:, tiled.block_slice(k)]
            )
        best_states = states.copy()
        best_rb = energies_rb.copy()
        expire = np.zeros((num_reads, n_total), dtype=np.int64)
        rows = np.arange(num_reads)

        for step in range(max(steps_per_block)):
            dx = 1.0 - 2.0 * states
            delta_e = dx * (diag[None, :] + fields)
            candidate = np.repeat(energies_rb, sizes, axis=1) + delta_e
            blocked = (expire > step) & (
                candidate >= np.repeat(best_rb, sizes, axis=1) - 1e-12
            )
            masked = np.where(blocked, np.inf, delta_e)
            for k in nonempty:
                if step >= steps_per_block[k]:
                    continue
                sl = tiled.block_slice(k)
                sub = masked[:, sl]
                move = np.argmin(sub, axis=1)
                move_delta = sub[rows, move]
                ok = np.isfinite(move_delta)
                if not ok.any():
                    continue
                r = rows[ok]
                c = move[ok] + sl.start
                dxa = dx[r, c]
                states[r, c] ^= 1
                energies_rb[r, k] += move_delta[ok]
                flip_update(fields, coupling, r, c, dxa)
                expire[r, c] = step + 1 + tenure_per_block[k]
                improved = energies_rb[r, k] < best_rb[r, k] - 1e-12
                if improved.any():
                    ri = r[improved]
                    best_states[ri, sl] = states[ri, sl]
                    best_rb[ri, k] = energies_rb[ri, k]

        return tiled.build_samplesets(best_states, per_block_info=per_block_info)

