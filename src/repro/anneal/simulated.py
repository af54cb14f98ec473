"""Simulated annealing over QUBOs — the paper's solver.

The paper's experiments run on D-Wave's *simulated* annealer, which is
classical single-spin-flip Metropolis annealing with a geometric inverse-
temperature schedule. This module implements the same algorithm with the
NumPy idioms from the HPC guides:

* All reads anneal **simultaneously**: the state is an ``(R, n)`` matrix and
  every Metropolis decision is made for all R reads in one vectorized step.
* Local fields are maintained **incrementally** (rank-1 updates on accepted
  flips) instead of being recomputed, making a sweep ``O(R·n)`` for
  diagonal-dominated models and ``O(R·n·deg)`` in general.
* The default *graph-colored* sweep updates whole independent sets of
  variables in single vectorized steps — an exactness-preserving batching
  strategy (no two simultaneously-updated variables interact). Solo and
  tiled solves share this one kernel; a solo model is a single block.
  It holds its columns in colour order, so each class is a contiguous
  slice, builds each class's field-update operator once per anneal, and
  on models without couplings replaces the per-step energy arithmetic
  with a precomputed ``(sweep, column)`` acceptance table.
* The paper's per-variable random scan (``sweep_mode="random"``) stays
  available as the reference setting: with ``num_sweeps=256`` it is the
  configuration the paper's experiments ran.
* Both kernels run against either the dense ``(n, n)`` coupling matrix or
  the CSR form (:class:`~repro.qubo.sparse.CsrMatrix`): the sparse path
  replaces each full-row rank-1 update with a row-slice update over the
  CSR indices, cutting the per-flip cost from ``O(R·n)`` to ``O(R·deg)``
  while preserving the exact flip/accept order — results are bit-identical
  to the dense path at a fixed seed for integer-coefficient models.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.anneal.base import Sampler, resolve_initial_states
from repro.anneal.sampleset import SampleSet
from repro.anneal.schedule import (
    default_beta_range,
    geometric_schedule,
    linear_schedule,
)
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix, has_any_coupling, initial_local_fields
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["DEFAULT_NUM_SWEEPS", "SimulatedAnnealingSampler"]

#: Default sweeps per anneal for both ``sample_model`` and
#: ``sample_tiled``: the budget with the lowest time-to-solution (TTS99)
#: on the benchmark inputs at unchanged per-read success (EXPERIMENTS.md
#: §sweep-budget).
DEFAULT_NUM_SWEEPS = 64

#: Exponent clamp: below it the acceptance probability is negligible, and
#: exp(-700) is still positive, which the colored kernel's acceptance
#: table relies on.
_EXP_CLIP = 700.0


class SimulatedAnnealingSampler(Sampler):
    """Multi-read, vectorized single-flip Metropolis annealer.

    Parameters (per ``sample_model`` call)
    --------------------------------------
    num_reads:
        Number of independent anneals (default 32).
    num_sweeps:
        Sweeps per anneal; each sweep proposes one flip per variable
        (default :data:`DEFAULT_NUM_SWEEPS`).
    beta_range:
        ``(beta_hot, beta_cold)``; default derived from the model's energy
        scales (see :func:`~repro.anneal.schedule.default_beta_range`).
    beta_schedule:
        ``"geometric"`` (default), ``"linear"``, or an explicit array of
        per-sweep betas (overrides *beta_range*/*num_sweeps*).
    sweep_mode:
        ``"colored"`` (default; greedy-coloring batched updates),
        ``"random"`` (fresh variable permutation per sweep — the paper's
        scan; ``num_sweeps=256`` is its reference setting) or
        ``"sequential"``.
    coupling_mode:
        ``"auto"`` (default), ``"dense"``, or ``"sparse"`` — forwarded to
        :meth:`~repro.qubo.model.QuboModel.sampler_form`. Auto picks the
        CSR kernels for large sparse models (every §4 string QUBO); the
        forced modes exist for benchmarking and the bit-identity tests.
    initial_states:
        Optional ``(num_reads, n)`` array of {0,1} starting points.
    seed:
        RNG seed / Generator.
    """

    parameters = {
        "num_reads": "independent anneals",
        "num_sweeps": "sweeps per anneal",
        "beta_range": "(hot, cold) inverse temperatures",
        "beta_schedule": "'geometric' | 'linear' | explicit array",
        "sweep_mode": "'colored' | 'random' | 'sequential'",
        "coupling_mode": "'auto' | 'dense' | 'sparse' matrix form",
        "initial_states": "optional (R, n) starting states",
        "seed": "RNG seed",
    }

    def sample_model(
        self,
        model: QuboModel,
        *,
        num_reads: int = 32,
        num_sweeps: int = DEFAULT_NUM_SWEEPS,
        beta_range: Optional[Tuple[float, float]] = None,
        beta_schedule: Union[str, Sequence[float], np.ndarray] = "geometric",
        sweep_mode: str = "colored",
        coupling_mode: str = "auto",
        initial_states: Optional[np.ndarray] = None,
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
            states = np.zeros((num_reads, 0), dtype=np.int8)
            return SampleSet(states, np.full(num_reads, model.offset))

        diag, coupling = model.sampler_form(mode=coupling_mode)
        betas = self._resolve_schedule(
            beta_schedule, beta_range, num_sweeps, diag, coupling
        )

        states = resolve_initial_states(initial_states, num_reads, n, rng)
        has_coupling = has_any_coupling(coupling)

        if sweep_mode == "colored":
            # One block: every class is a single segment on the one stream.
            merged = [(cls, ((0, 0, cls.size),)) for cls in model.color_classes()]
            self._anneal_classes(
                states, diag, coupling, [betas], merged, [rng], has_coupling
            )
        elif sweep_mode in ("random", "sequential"):
            self._anneal_scan(
                states, diag, coupling, betas, rng, has_coupling, sweep_mode == "random"
            )
        else:
            raise ValueError(
                f"sweep_mode must be 'random', 'sequential' or 'colored', got {sweep_mode!r}"
            )

        energies = model.energies(states)
        return SampleSet(
            states,
            energies,
            info={
                "sampler": "SimulatedAnnealingSampler",
                "num_sweeps": int(betas.shape[0]),
                "beta_range": (float(betas[0]), float(betas[-1])),
                "sweep_mode": sweep_mode,
                "coupling_form": (
                    "sparse" if isinstance(coupling, CsrMatrix) else "dense"
                ),
            },
        )

    def sample_tiled(
        self,
        tiled: Any,
        *,
        num_reads: int = 32,
        num_sweeps: int = DEFAULT_NUM_SWEEPS,
        beta_range: Optional[Tuple[float, float]] = None,
        beta_schedule: Union[str, Sequence[float], np.ndarray] = "geometric",
        sweep_mode: str = "colored",
        coupling_mode: str = "auto",
        initial_states: Optional[Sequence[Optional[np.ndarray]]] = None,
        seed: SeedLike = None,
        **unknown: Any,
    ) -> list:
        """Anneal all blocks of a :class:`~repro.qubo.tile.TiledProblem` fused.

        One ``(R, Σn)`` state matrix, one fused coupling operator, one
        sweep loop. In the default ``"colored"`` mode the per-block color
        classes are *merged by rank* — class *c* of every block flips in
        one vectorized step (blocks never interact, so the union of
        independent sets is independent) — keeping the per-sweep Python
        step count at ``max_k C_k`` instead of ``Σ_k C_k``. This is where
        the fusion throughput comes from on small tiled models.

        Batch invariance: each block draws only from its own
        content-keyed stream (initial states first, then its segment's
        Metropolis uniforms per class), uses its own beta schedule
        (derived from its own coefficients unless an explicit
        ``beta_range``/array is given), and its per-block result is
        bit-identical to ``sample_model(block,
        seed=tiled.block_rngs(seed)[k], sweep_mode="colored", ...)`` for
        integer-coefficient models. The scan modes (``"random"`` /
        ``"sequential"``) run per-block on column views — trivially
        equivalent, no fusion win.

        ``initial_states``, when given, is a length-K sequence of
        per-block arrays (entries may be None).
        """
        if unknown:
            raise TypeError(f"unknown sampler parameters: {sorted(unknown)}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if sweep_mode not in ("random", "sequential", "colored"):
            raise ValueError(
                f"sweep_mode must be 'random', 'sequential' or 'colored', got {sweep_mode!r}"
            )
        if tiled.num_blocks == 0:
            return []
        if initial_states is not None and len(initial_states) != tiled.num_blocks:
            raise ValueError(
                f"initial_states must have one entry per block "
                f"({tiled.num_blocks}), got {len(initial_states)}"
            )
        rngs = tiled.block_rngs(seed)
        mode = tiled.resolve_coupling_mode(coupling_mode)

        block_states = []
        betas: list = [None] * tiled.num_blocks
        nonempty = []
        for k, model in enumerate(tiled.models):
            n_k = model.num_variables
            if n_k == 0:
                block_states.append(np.zeros((num_reads, 0), dtype=np.int8))
                continue
            diag_k, coup_k = model.sampler_form(mode=mode)
            betas[k] = self._resolve_schedule(
                beta_schedule, beta_range, num_sweeps, diag_k, coup_k
            )
            init = initial_states[k] if initial_states is not None else None
            block_states.append(resolve_initial_states(init, num_reads, n_k, rngs[k]))
            nonempty.append(k)
        states = np.hstack(block_states)

        if nonempty:
            if sweep_mode == "colored":
                classes = {k: tiled.models[k].color_classes() for k in nonempty}
                merged = self._merge_classes(tiled, classes, nonempty)
                diag, coupling = tiled.fused_sampler_form(mode)
                self._anneal_classes(
                    states, diag, coupling, betas, merged, rngs,
                    has_any_coupling(coupling),
                )
            else:
                for k in nonempty:
                    diag_k, coup_k = tiled.models[k].sampler_form(mode=mode)
                    # Column views: the scan kernel mutates the fused matrix
                    # in place through them.
                    self._anneal_scan(
                        states[:, tiled.block_slice(k)],
                        diag_k,
                        coup_k,
                        betas[k],
                        rngs[k],
                        has_any_coupling(coup_k),
                        sweep_mode == "random",
                    )

        per_block_info = []
        for k, model in enumerate(tiled.models):
            if model.num_variables == 0:
                per_block_info.append({})
                continue
            b = betas[k]
            per_block_info.append(
                {
                    "sampler": "SimulatedAnnealingSampler",
                    "num_sweeps": int(b.shape[0]),
                    "beta_range": (float(b[0]), float(b[-1])),
                    "sweep_mode": sweep_mode,
                    "coupling_form": mode,
                }
            )
        return tiled.build_samplesets(states, per_block_info=per_block_info)

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #

    @staticmethod
    def _merge_classes(tiled: Any, classes: dict, nonempty: Sequence[int]) -> list:
        """Merge per-block color classes by rank into fused column sets.

        Returns ``[(columns, segments), ...]`` — one entry per merged
        class, where ``columns`` concatenates class *c* of every block
        (shifted into fused index space) and ``segments`` lists
        ``(block, lo, hi)`` half-open ranges into ``columns``. Blocks
        with fewer than *c* classes simply sit out class *c* (and draw
        nothing from their stream for it), exactly as a solo colored
        anneal of that block would.
        """
        num_classes = max(len(classes[k]) for k in nonempty)
        merged = []
        for c in range(num_classes):
            cols_parts = []
            segments = []
            pos = 0
            for k in nonempty:
                if c < len(classes[k]):
                    cols = classes[k][c] + int(tiled.starts[k])
                    cols_parts.append(cols)
                    segments.append((k, pos, pos + cols.size))
                    pos += cols.size
            merged.append((np.concatenate(cols_parts), segments))
        return merged

    @staticmethod
    def _anneal_classes(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: Union[np.ndarray, CsrMatrix],
        betas: Sequence[Optional[np.ndarray]],
        merged: Sequence[Tuple[np.ndarray, Sequence[Tuple[int, int, int]]]],
        rngs: Sequence[np.random.Generator],
        has_coupling: bool,
    ) -> None:
        """The colored kernel: independent-set batched updates. Mutates *states*.

        Within one color class no two variables interact, so flipping them
        simultaneously is exactly equivalent to flipping them one at a
        time. Each entry of *merged* is one class over the (possibly
        fused) state matrix, split into ``(block, lo, hi)`` segments; the
        only per-block work in the inner loop is the Metropolis draw on
        each segment (its own stream, its own beta). A solo model is one
        block with one segment per class.

        The anneal runs in a **colour-contiguous** column order: ``perm``
        concatenates the classes (each keeping its own column order), so
        class *c* covers the contiguous range ``[a_c, b_c)`` and every
        per-step read or write of the state, the diagonal and the fields
        is a slice, not a gather. The state is written back through
        ``perm`` once at the end.

        * **Coupled models.** The field update is one rank-k product per
          class through an operator built once per anneal: the class's
          row block of ``W[perm][:, perm]``, held as a contiguous dense
          block or as a pre-transposed CSR applied as ``(op @ delta.T).T``
          (the product SciPy's ``delta @ block`` computes, minus the
          per-call transpose), ``O(R · nnz(class))``. In a fused matrix
          the block-diagonal structure makes cross-block contributions
          structurally absent (CSR) or exact zeros (dense), so per-block
          results match a solo anneal bit-for-bit on integer-coefficient
          models.
        * **Uncoupled models** (no nonzero coupling). ``ΔE = ±d_j``: a
          read is *hot* (needs a draw) exactly when ``x_j`` sits on the
          lower-energy side of ``d_j``, and its acceptance probability
          depends only on the sweep and the column. One table
          ``P[t, j] = exp(clip(-β_t |d_j|, -700, 0))``, each column on its
          own block's schedule, replaces the per-step energy arithmetic:
          the draws for the hot reads are scattered into a zeroed buffer
          and ``buffer < P[t]`` is the flip mask (every ``P > 0``, so a
          read that is not hot always flips, as ``ΔE <= 0`` requires).

        Both branches draw the same uniforms in the same order and compare
        them against the same float64 values as a per-class gather would,
        so results are bit-identical to it.
        """
        perm = np.concatenate([cols for cols, _ in merged])
        ends = np.cumsum([cols.size for cols, _ in merged]).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        x = states[:, perm]
        d = diag[perm]
        num_sweeps = next(b.shape[0] for b in betas if b is not None)

        if not has_coupling:
            # The value of x_j at which a flip costs energy; 2 (never
            # matched) where d_j == 0, since those flips always accept.
            pref = np.where(d > 0, 0, np.where(d < 0, 1, 2)).astype(np.int8)
            table = np.empty((num_sweeps, perm.size))
            for (_, segments), (a, _) in zip(merged, spans):
                for k, lo, hi in segments:
                    cols = slice(a + lo, a + hi)
                    table[:, cols] = np.outer(-betas[k], np.abs(d[cols]))
            np.exp(np.clip(table, -_EXP_CLIP, 0.0, out=table), out=table)
            for t in range(num_sweeps):
                for (_, segments), (a, b) in zip(merged, spans):
                    xc = x[:, a:b]
                    hot = xc == pref[a:b]
                    draws = np.zeros(hot.shape)
                    for k, lo, hi in segments:
                        seg = hot[:, lo:hi]
                        count = np.count_nonzero(seg)
                        if count:
                            draws[:, lo:hi][seg] = rngs[k].random(count)
                    xc ^= draws < table[t, a:b]
            states[:, perm] = x
            return

        fields = initial_local_fields(states, coupling)[:, perm]
        sparse = isinstance(coupling, CsrMatrix)
        if sparse:
            import scipy.sparse as sp

            w = sp.csr_array(
                (coupling.data, coupling.indices, coupling.indptr), shape=coupling.shape
            )[perm][:, perm]
            # CSC -> CSR sorts each row's indices, so every field sums its
            # class terms in the order ``delta @ block`` did. The products
            # come out transposed: column-major fields make the update a
            # contiguous add.
            ops = [sp.csr_array(w[a:b].T) for a, b in spans]
            fields = np.asfortranarray(fields)
        else:
            w = coupling[np.ix_(perm, perm)]
            ops = [w[a:b] for a, b in spans]
        for t in range(num_sweeps):
            for (_, segments), (a, b), op in zip(merged, spans, ops):
                xc = x[:, a:b]
                dx = 1.0 - 2.0 * xc
                delta_e = dx * (d[a:b] + fields[:, a:b])
                accept = delta_e <= 0.0
                for k, lo, hi in segments:
                    seg = accept[:, lo:hi]
                    hot = ~seg
                    count = np.count_nonzero(hot)
                    if count:
                        # No upper clamp: a hot read has ΔE > 0 and every β
                        # is positive, so -β·ΔE is already below 0.
                        p = delta_e[:, lo:hi][hot]
                        p *= -betas[k][t]
                        np.exp(np.maximum(p, -_EXP_CLIP, out=p), out=p)
                        seg[hot] = rngs[k].random(count) < p
                if not accept.any():
                    continue
                xc ^= accept
                delta = dx * accept
                if sparse:
                    fields += (op @ delta.T).T
                else:
                    fields += delta @ op
        states[:, perm] = x

    @staticmethod
    def _anneal_scan(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: Union[np.ndarray, CsrMatrix],
        betas: np.ndarray,
        rng: np.random.Generator,
        has_coupling: bool,
        randomize: bool,
    ) -> None:
        """Per-variable scan, vectorized across reads. Mutates *states*.

        Accepts either coupling form. The sparse branch performs the same
        rank-1 field update restricted to the CSR row slice of the flipped
        variable — identical RNG consumption and accept decisions, so at a
        fixed seed it reproduces the dense kernel bit-for-bit on
        integer-coefficient models.
        """
        num_reads, n = states.shape
        fields = initial_local_fields(states, coupling) if has_coupling else None
        sparse = isinstance(coupling, CsrMatrix)
        # Precompute the CSR row slices once: ~n tuple lookups per sweep
        # would otherwise dominate the sparse inner loop.
        rows = coupling.rows() if (sparse and has_coupling) else None
        order = np.arange(n)
        for beta in betas:
            if randomize:
                rng.shuffle(order)
            # Draw the whole sweep's uniforms at once: one RNG call per sweep.
            uniforms = rng.random((n, num_reads))
            for rank, i in enumerate(order):
                xi = states[:, i]
                dx = 1.0 - 2.0 * xi  # +1 when flipping 0 -> 1
                local = diag[i] + (fields[:, i] if has_coupling else 0.0)
                delta_e = dx * local
                accept = delta_e <= 0.0
                hot = ~accept
                if hot.any():
                    log_p = np.clip(-beta * delta_e[hot], -_EXP_CLIP, 0.0)
                    accept[hot] = uniforms[rank, hot] < np.exp(log_p)
                if not accept.any():
                    continue
                states[accept, i] ^= 1
                if has_coupling:
                    if sparse:
                        cols, vals = rows[i]
                        if cols.size:
                            fields[np.ix_(accept, cols)] += (
                                dx[accept, None] * vals[None, :]
                            )
                    else:
                        fields[accept] += dx[accept, None] * coupling[i][None, :]

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_schedule(
        beta_schedule: Union[str, Sequence[float], np.ndarray],
        beta_range: Optional[Tuple[float, float]],
        num_sweeps: int,
        diag: np.ndarray,
        coupling: np.ndarray,
    ) -> np.ndarray:
        if isinstance(beta_schedule, str):
            hot, cold = (
                beta_range if beta_range is not None else default_beta_range(diag, coupling)
            )
            if beta_schedule == "geometric":
                return geometric_schedule(hot, cold, num_sweeps)
            if beta_schedule == "linear":
                return linear_schedule(hot, cold, num_sweeps)
            raise ValueError(
                f"beta_schedule must be 'geometric', 'linear' or an array, got {beta_schedule!r}"
            )
        betas = np.asarray(beta_schedule, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("explicit beta schedule must be a non-empty 1-d array")
        if np.any(betas <= 0):
            raise ValueError("explicit beta schedule must be positive")
        return betas
