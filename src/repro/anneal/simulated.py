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
  with a precomputed ``(sweep, column)`` acceptance table. A class of a
  fused tile (one segment per block) is held segment-major, so a single
  flat draw order serves all its blocks: one count, scatter and compare
  per class step however many blocks it spans, and only the per-block
  ``random`` calls left in Python.
* The paper's per-variable random scan (``sweep_mode="random"``) stays
  available as the reference setting: with ``num_sweeps=256`` it is the
  configuration the paper's experiments ran. It does not fuse: a tiled
  scan is one solo anneal per block on the block's own stream.
* Both kernels run on the CSR coupling form
  (:class:`~repro.qubo.sparse.CsrMatrix`), the one every §4 QUBO suits:
  a flip updates only its row's ``deg`` fields, ``O(R·deg)`` per flip.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.anneal.base import Sampler, resolve_initial_states
from repro.anneal.sampleset import SampleSet
from repro.anneal.schedule import (
    default_beta_range,
    geometric_schedule,
    linear_schedule,
)
from repro.qubo.model import QuboModel
from repro.qubo.sparse import CsrMatrix
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

        diag, coupling = model.sampler_form()
        betas = self._resolve_schedule(
            beta_schedule, beta_range, num_sweeps, diag, coupling
        )

        states = resolve_initial_states(initial_states, num_reads, n, rng)

        if sweep_mode == "colored":
            # One block: every class is a single segment on the one stream.
            merged = [(cls, ((0, 0, cls.size),)) for cls in model.color_classes()]
            self._anneal_classes(states, diag, coupling, [betas], merged, [rng])
        elif sweep_mode in ("random", "sequential"):
            self._anneal_scan(
                states, diag, coupling, betas, rng, sweep_mode == "random"
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
                "coupling_form": "sparse",
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
        ``"sequential"``) do not fuse: they run exactly that solo call
        for each block.

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
        inits: Sequence[Optional[np.ndarray]] = (
            initial_states if initial_states is not None else [None] * tiled.num_blocks
        )
        if sweep_mode != "colored":
            out: List[SampleSet] = []
            for k, model in enumerate(tiled.models):
                ss = self.sample_model(
                    model,
                    num_reads=num_reads,
                    num_sweeps=num_sweeps,
                    beta_range=beta_range,
                    beta_schedule=beta_schedule,
                    sweep_mode=sweep_mode,
                    initial_states=inits[k],
                    seed=rngs[k],
                )
                ss.info["tile"] = {"num_blocks": tiled.num_blocks, "block": k}
                out.append(ss)
            return out

        block_states = []
        betas: list = [None] * tiled.num_blocks
        nonempty = []
        for k, model in enumerate(tiled.models):
            n_k = model.num_variables
            if n_k == 0:
                block_states.append(np.zeros((num_reads, 0), dtype=np.int8))
                continue
            diag_k, coup_k = model.sampler_form()
            betas[k] = self._resolve_schedule(
                beta_schedule, beta_range, num_sweeps, diag_k, coup_k
            )
            block_states.append(
                resolve_initial_states(inits[k], num_reads, n_k, rngs[k])
            )
            nonempty.append(k)
        states = np.hstack(block_states)

        if nonempty:
            classes = {k: tiled.models[k].color_classes() for k in nonempty}
            merged = self._merge_classes(tiled, classes, nonempty)
            diag, coupling = tiled.fused_sampler_form()
            self._anneal_classes(states, diag, coupling, betas, merged, rngs)

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
                    "coupling_form": "sparse",
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
        coupling: CsrMatrix,
        betas: Sequence[Optional[np.ndarray]],
        merged: Sequence[Tuple[np.ndarray, Sequence[Tuple[int, int, int]]]],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """The colored kernel: independent-set batched updates. Mutates *states*.

        Within one color class no two variables interact, so flipping them
        simultaneously is exactly equivalent to flipping them one at a
        time. Each entry of *merged* is one class over the (possibly
        fused) state matrix, split into ``(block, lo, hi)`` segments; each
        segment draws its Metropolis uniforms from its own block's stream
        and uses its own block's beta. A solo model is one block with one
        segment per class.

        The anneal runs in a **colour-contiguous** column order: ``perm``
        concatenates the classes (each keeping its own column order), so
        class *c* covers the contiguous range ``[a_c, b_c)`` and every
        per-step read or write of the state, the diagonal and the fields
        is a slice, not a gather. The state is written back through
        ``perm`` once at the end.

        The Metropolis step depends only on a class's segment count:

        * **One segment** (every class of a solo model): the hot reads of
          the ``(R, w)`` slice are selected with a boolean mask and draw
          ``rng.random(count)`` in row-major order.
        * **Several segments** (a fused tile): the class's state is held
          **segment-major** for the whole anneal (:class:`_SegmentMajor`),
          a ``(segments, R, width)`` array padded to the widest segment.
          Its flat index order is the draw order (block by block, then
          row-major inside each block), so one ``flatnonzero``, one
          ``searchsorted`` over the segment boundaries and one
          integer-index store place every block's draws; the only
          per-block work is ``rngs[k].random(out=...)``. The flip mask is
          one compare against a ``(segments, 1, width)`` table slice.

        * **Coupled models.** The field update is one rank-k product per
          class through an operator built once per anneal: the class's
          row block of ``W[perm][:, perm]``, held as a pre-transposed CSR
          applied as ``(op @ delta.T).T`` (the product SciPy's
          ``delta @ block`` computes, minus the per-call transpose),
          ``O(R · nnz(class))``. Fields stay in the ``(R, n)`` layout: a
          fused class gathers its fields into the segment-major layout
          and scatters its ``delta`` back, so the products are the same
          ones a solo anneal computes. In a fused matrix the
          block-diagonal structure makes cross-block contributions
          structurally absent, so per-block results match a solo anneal
          bit-for-bit on integer-coefficient models. A fused class evaluates
          ``exp(clip(-β·ΔE, -700, 0))`` on every cell, each segment at its
          own ``β``; on the hot cells that is the value a solo anneal
          computes, and on the other real cells it is 1, which their zero
          draws stay below (``ΔE <= 0`` always accepts).
        * **Uncoupled models** (no nonzero coupling). ``ΔE = ±d_j``: a
          read is *hot* (needs a draw) exactly when ``x_j`` sits on the
          lower-energy side of ``d_j``, and its acceptance probability
          depends only on the sweep and the column. One table per class,
          ``P[t, j] = exp(clip(-β_t |d_j|, -700, 0))`` on each segment's
          own schedule, replaces the per-step energy arithmetic: the
          draws for the hot reads are scattered into a zeroed buffer and
          ``buffer < P[t]`` is the flip mask (every ``P > 0``, so a read
          that is not hot always flips, as ``ΔE <= 0`` requires).

        Every step draws the same uniforms in the same order and compares
        them against the same float64 values as a per-segment loop over
        a per-class gather would, so results are bit-identical to it.
        """
        perm = np.concatenate([cols for cols, _ in merged])
        ends = np.cumsum([cols.size for cols, _ in merged]).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        x = states[:, perm]
        d = diag[perm]
        num_sweeps = next(b.shape[0] for b in betas if b is not None)
        # Per class: its range, its one block (solo) or its segment-major
        # layout (fused).
        plans = [
            (a, b, segments[0][0], None)
            if len(segments) == 1
            else (a, b, None, _SegmentMajor(segments, a, x, betas))
            for (_, segments), (a, b) in zip(merged, spans)
        ]

        if not coupling.nnz:
            # The value of x_j at which a flip costs energy; 2 (never
            # matched) where d_j == 0, since those flips always accept.
            pref = np.where(d > 0, 0, np.where(d < 0, 1, 2)).astype(np.int8)
            tables = [
                np.exp(np.clip(np.outer(-betas[k], np.abs(d[a:b])), -_EXP_CLIP, 0.0))
                if fused is None
                else fused.acceptance_table(d, pref)
                for a, b, k, fused in plans
            ]
            for t in range(num_sweeps):
                for (a, b, k, fused), table in zip(plans, tables):
                    if fused is not None:
                        fused.flip_uncoupled(table[t], rngs)
                        continue
                    xc = x[:, a:b]
                    hot = xc == pref[a:b]
                    draws = np.zeros(hot.shape)
                    count = np.count_nonzero(hot)
                    if count:
                        draws[hot] = rngs[k].random(count)
                    xc ^= draws < table[t]
            for _, _, _, fused in plans:
                if fused is not None:
                    fused.write_back(x)
            states[:, perm] = x
            return

        import scipy.sparse as sp

        w = sp.csr_array(
            (coupling.data, coupling.indices, coupling.indptr), shape=coupling.shape
        )[perm][:, perm]
        # CSC -> CSR sorts each row's indices, so every field sums its
        # class terms in the order ``delta @ block`` did. The products
        # come out transposed: column-major fields make the update a
        # contiguous add.
        ops = [sp.csr_array(w[a:b].T) for a, b in spans]
        fields = np.asfortranarray(coupling.matmul_dense(states)[:, perm])
        for _, _, _, fused in plans:
            if fused is not None:
                fused.bind_fields(fields, d)
        for t in range(num_sweeps):
            for (a, b, k, fused), op in zip(plans, ops):
                if fused is None:
                    xc = x[:, a:b]
                    dx = 1.0 - 2.0 * xc
                    delta_e = dx * (d[a:b] + fields[:, a:b])
                    accept = delta_e <= 0.0
                    hot = ~accept
                    count = np.count_nonzero(hot)
                    if count:
                        # No upper clamp: a hot read has ΔE > 0 and every β
                        # is positive, so -β·ΔE is already below 0.
                        p = delta_e[hot]
                        p *= -betas[k][t]
                        np.exp(np.maximum(p, -_EXP_CLIP, out=p), out=p)
                        accept[hot] = rngs[k].random(count) < p
                    if not accept.any():
                        continue
                    xc ^= accept
                    delta = dx * accept
                else:
                    delta = fused.flip_coupled(t, rngs)
                    if delta is None:
                        continue
                fields += (op @ delta.T).T
        for _, _, _, fused in plans:
            if fused is not None:
                fused.write_back(x)
        states[:, perm] = x

    @staticmethod
    def _anneal_scan(
        states: np.ndarray,
        diag: np.ndarray,
        coupling: CsrMatrix,
        betas: np.ndarray,
        rng: np.random.Generator,
        randomize: bool,
    ) -> None:
        """Per-variable scan, vectorized across reads. Mutates *states*.

        An accepted flip updates the fields of its CSR row slice only.
        """
        num_reads, n = states.shape
        has_coupling = coupling.nnz > 0
        fields = coupling.matmul_dense(states) if has_coupling else None
        # Precompute the CSR row slices once: ~n tuple lookups per sweep
        # would otherwise dominate the inner loop.
        rows = coupling.rows() if has_coupling else None
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
                    cols, vals = rows[i]
                    if cols.size:
                        fields[np.ix_(accept, cols)] += dx[accept, None] * vals[None, :]

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_schedule(
        beta_schedule: Union[str, Sequence[float], np.ndarray],
        beta_range: Optional[Tuple[float, float]],
        num_sweeps: int,
        diag: np.ndarray,
        coupling: CsrMatrix,
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


class _SegmentMajor:
    """One fused colour class of :meth:`SimulatedAnnealingSampler._anneal_classes`,
    held segment-major for the whole anneal.

    ``x`` is a ``(segments, R, width)`` array: segment *s* holds the class
    columns of block ``blocks[s]``, padded to the widest segment by
    repeating the segment's first column. Padding cells are kept out of
    every hot set (so they never draw) and are never written back. The
    flat index order of ``x`` is the draw order — block by block, then
    row-major inside each block, exactly as a boolean mask over each
    segment's ``(R, w)`` slice visits them.

    Every per-step array of the class's size is a buffer that lives for
    the whole anneal: fresh class-sized temporaries on every step cost
    more in page faults than the arithmetic they hold.
    """

    def __init__(
        self,
        segments: Sequence[Tuple[int, int, int]],
        start: int,
        x: np.ndarray,
        betas: Sequence[Optional[np.ndarray]],
    ) -> None:
        self.blocks = [k for k, _, _ in segments]
        widths = np.array([hi - lo for _, lo, hi in segments])
        firsts = np.array([start + lo for _, lo, _ in segments])
        width = int(widths.max())
        offsets = np.arange(width)
        #: ``(segments, width)``: the real cells, and each cell's column of x.
        self.valid = offsets < widths[:, None]
        self.cols = firsts[:, None] + np.where(self.valid, offsets, 0)
        self.x = np.ascontiguousarray(x[:, self.cols].transpose(1, 0, 2))
        self.start = start
        cells = x.shape[0] * width
        #: Flat end of each segment's cells, for the per-block draw counts.
        self.ends = np.arange(1, len(segments) + 1) * cells
        #: ``(sweeps, segments, 1)``: each segment's own ``-β_t``.
        self.neg_betas = -np.stack([betas[k] for k in self.blocks], axis=1)[:, :, None]
        self.hot = np.empty(self.x.shape, dtype=bool)
        self.flip = np.empty(self.x.shape, dtype=bool)
        self._draws = np.empty(self.x.shape)
        self._pool = np.empty(self.x.size)

    def draws(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Zeros, with each block's uniforms at its ``hot`` cells in draw
        order: one ``flatnonzero``, one ``searchsorted`` and one store for
        the class, and one ``random`` call per block with any hot cell."""
        idx = np.flatnonzero(self.hot)
        pool = self._pool[: idx.size]
        lo = 0
        for k, hi in zip(self.blocks, idx.searchsorted(self.ends).tolist()):
            if hi > lo:
                rngs[k].random(out=pool[lo:hi])
                lo = hi
        draws = self._draws
        draws.fill(0.0)
        draws.ravel()[idx] = pool
        return draws

    def acceptance_table(self, diag: np.ndarray, pref: np.ndarray) -> np.ndarray:
        """Uncoupled models: the class's ``(sweeps, segments, 1, width)``
        table ``exp(clip(-β_t |d_j|, -700, 0))``. Also keeps ``pref``
        per cell, with 2 (never matched) on the padding."""
        self.pref = np.where(self.valid, pref[self.cols], 2)[:, None, :]
        table = self.neg_betas[:, :, :, None] * np.abs(diag[self.cols])[:, None, :]
        return np.exp(np.clip(table, -_EXP_CLIP, 0.0, out=table), out=table)

    def flip_uncoupled(self, table: np.ndarray, rngs: Sequence[np.random.Generator]) -> None:
        """One Metropolis step of an uncoupled class against ``table[t]``."""
        np.equal(self.x, self.pref, out=self.hot)
        self.x ^= np.less(self.draws(rngs), table, out=self.flip)

    def bind_fields(self, fields: np.ndarray, diag: np.ndarray) -> None:
        """Index maps between the ``(R, n)`` fields and this layout.

        ``fields[fidx]`` (over the memory-order flat view of *fields*,
        which the in-place field updates keep current) gathers the class's
        fields segment-major; ``back`` maps the class's ``(R, w)`` cells to
        their flat positions here, for the ``delta`` of the field update.
        The diagonal and the real-cell mask are spelled out to the full
        ``(segments, R, width)`` shape: broadcasting them over a short
        ``width`` axis costs more than the memory.
        """
        segs, reads, width = self.x.shape
        rows, cols = (stride // fields.itemsize for stride in fields.strides)
        self.fields = fields.ravel(order="K")
        self.fidx = np.arange(reads)[None, :, None] * rows + self.cols[:, None, :] * cols
        shape = self.x.shape
        self.diag = np.ascontiguousarray(np.broadcast_to(diag[self.cols][:, None, :], shape))
        self.real = np.ascontiguousarray(np.broadcast_to(self.valid[:, None, :], shape))
        flat = np.arange(segs)[:, None] * (reads * width) + np.arange(width)
        self.back = np.empty((reads, int(self.valid.sum())), dtype=np.intp)
        self.back[:, self.cols[self.valid] - self.start] = (
            flat[self.valid] + (np.arange(reads) * width)[:, None]
        )
        self.dx = np.empty(shape)
        self.delta_e = np.empty(shape)
        self.p = np.empty(shape)
        self.delta = np.empty(self.back.shape)

    def flip_coupled(
        self, t: int, rngs: Sequence[np.random.Generator]
    ) -> Optional[np.ndarray]:
        """One Metropolis step of a coupled class at sweep *t*.

        Returns the class's ``(R, w)`` field-update ``delta`` (a buffer
        the next call overwrites), or None when no read flipped.
        """
        segs = self.x.shape[0]
        dx = np.multiply(self.x, 2.0, out=self.dx)
        np.subtract(1.0, dx, out=dx)
        # mode="clip" (every index is in range) writes straight into the
        # buffer; the default mode would stage the result in a temporary.
        delta_e = np.take(self.fields, self.fidx, out=self.delta_e, mode="clip")
        delta_e += self.diag
        delta_e *= dx
        np.greater(delta_e, 0.0, out=self.hot)
        self.hot &= self.real
        draws = self.draws(rngs)
        # exp(clip(-β·ΔE)): the solo value on hot cells, and 1 on the other
        # real cells, so their zero draws accept. -β·ΔE runs over rows of
        # R·width cells per segment: a broadcast over the short width axis
        # is several times slower.
        p = self.p
        np.multiply(delta_e.reshape(segs, -1), self.neg_betas[t], out=p.reshape(segs, -1))
        np.exp(np.clip(p, -_EXP_CLIP, 0.0, out=p), out=p)
        accept = np.less(draws, p, out=self.flip)
        self.x ^= accept
        delta = np.multiply(dx, accept, out=dx).ravel()
        np.take(delta, self.back, out=self.delta, mode="clip")
        return self.delta if self.delta.any() else None

    def write_back(self, x: np.ndarray) -> None:
        x[:, self.cols[self.valid]] = self.x.transpose(1, 0, 2)[:, self.valid]
