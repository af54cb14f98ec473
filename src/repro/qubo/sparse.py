"""Sparse (CSR) QUBO kernels.

The paper's §4 formulations are *bit-local*: a length-*n* string becomes
``7 n`` binary variables whose couplings are diagonal ±A patterns, mirrored
palindrome pairs, or small one-hot indicator cliques. The resulting QUBOs
have O(n) nonzeros, so every sampler kernel runs on the CSR form of the
coupling matrix. This module provides it:

* :class:`CsrMatrix` — a lightweight, picklable CSR container for the
  symmetric zero-diagonal coupling matrix ``W`` (the same object every
  incremental-field kernel consumes);
* :func:`sparse_sampler_form` — build ``(diagonal, CsrMatrix)`` straight
  from the ``i <= j`` coefficient dict, never materializing ``n × n``;
* :func:`flip_update` — the field update of the tabu and descent
  samplers, which flip one variable per read per step;
* :func:`qubo_energies_csr` — batched energies in ``O(R · nnz)``;
* :func:`sparse_stats` / :func:`coupling_density` — density diagnostics
  driving :meth:`repro.qubo.model.QuboModel.energies`' choice between this
  energy kernel and the dense einsum one.

Exactness contract
------------------
Every field update adds each coupling term once, as ``±W[i, j]``, so for
models whose coefficients and partial sums are exactly representable
(every §4 string formulation with integer A — the paper fixes A = 1) the
fields hold the same float64 values in whatever order the terms arrive.
The fixed-seed digest suites (``tests/anneal/test_colored_digests.py`` and
the fused≡solo suites) pin the kernels' results, including on models that
ran the former dense ``(n, n)`` form. The two energy kernels agree exactly
on integer-coefficient models and up to floating-point associativity
otherwise (see the property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.qubo.matrix import to_upper_triangular

__all__ = [
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_VARIABLES",
    "CsrMatrix",
    "SparseStats",
    "coupling_density",
    "csr_from_coefficients",
    "flip_update",
    "prefers_sparse",
    "qubo_energies_csr",
    "sparse_sampler_form",
    "sparse_stats",
]

PairDict = Mapping[Tuple[int, int], float]

#: Score energies with the CSR kernel when the symmetric off-diagonal
#: density is at most this fraction of the full ``n (n-1)`` coupling slots.
#: String QUBOs sit far below it (a length-64 palindrome is ~0.2% dense);
#: random dense test models sit far above.
SPARSE_DENSITY_THRESHOLD = 0.1

#: ... and when the model has at least this many variables. Below it the
#: einsum energy kernel is used; the two round differently on non-integer
#: models, and recorded digests hash energies.
SPARSE_MIN_VARIABLES = 64


class CsrMatrix:
    """A read-only CSR matrix: ``(indptr, indices, data)`` over ``shape``.

    Used for the symmetric zero-diagonal coupling matrix ``W`` consumed by
    the annealing kernels. The three arrays are the classic CSR triplet —
    row *i* owns ``indices[indptr[i]:indptr[i+1]]`` / the matching ``data``
    slice — and are frozen (``writeable=False``) because the matrix is
    shared through the model's sampler-form cache.

    A SciPy view is built lazily for matrix products and is **not**
    pickled: worker payloads ship only the triplet.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_scipy_cache")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.ndim != 1 or self.indptr.size != self.shape[0] + 1:
            raise ValueError(
                f"indptr must have length {self.shape[0] + 1}, "
                f"got {self.indptr.size}"
            )
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise ValueError("indices and data must be matching 1-d arrays")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr does not span the index array")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column index out of range")
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)
        self._scipy_cache = None

    # -------------------------------------------------------------- #
    # basic properties
    # -------------------------------------------------------------- #

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Payload size of the CSR triplet in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)

    @property
    def density(self) -> float:
        """Stored-entry fraction of the full ``rows × cols`` matrix."""
        slots = self.shape[0] * self.shape[1]
        return self.nnz / slots if slots else 0.0

    def __repr__(self) -> str:
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    # -------------------------------------------------------------- #
    # pickling — ship the triplet, never the SciPy view
    # -------------------------------------------------------------- #

    def __reduce__(self):
        return (CsrMatrix, (self.indptr, self.indices, self.data, self.shape))

    # -------------------------------------------------------------- #
    # row access
    # -------------------------------------------------------------- #

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, values)`` views of row *i* — the rank-1 update slice."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def rows(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """All ``(columns, values)`` row views, precomputed for sweep loops."""
        return [self.row(i) for i in range(self.shape[0])]

    # -------------------------------------------------------------- #
    # numeric kernels
    # -------------------------------------------------------------- #

    def _as_scipy(self):
        if self._scipy_cache is None:
            import scipy.sparse as sp

            self._scipy_cache = sp.csr_array(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy_cache

    def matmul_dense(self, x: np.ndarray) -> np.ndarray:
        """``x @ W`` for a dense batch ``x`` of shape ``(R, rows)``.

        An empty matrix gives zeros without loading SciPy.
        """
        x = np.asarray(x, dtype=np.float64)
        if not self.nnz:
            return np.zeros(x.shape[:-1] + (self.shape[1],))
        return np.asarray(x @ self._as_scipy())

    def abs_row_sums(self) -> np.ndarray:
        """``sum_j |W[i, j]|`` per row — the schedule heuristic's reach."""
        out = np.zeros(self.shape[0], dtype=np.float64)
        if self.nnz:
            counts = np.diff(self.indptr)
            row_ids = np.repeat(np.arange(self.shape[0], dtype=np.int64), counts)
            np.add.at(out, row_ids, np.abs(self.data))
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize the dense ``(rows, cols)`` matrix (tests/debugging)."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            counts = np.diff(self.indptr)
            row_ids = np.repeat(np.arange(self.shape[0], dtype=np.int64), counts)
            out[row_ids, self.indices] = self.data
        return out


# ------------------------------------------------------------------ #
# builders
# ------------------------------------------------------------------ #


def _symmetric_csr_from_upper(
    upper: Dict[Tuple[int, int], float], num_variables: int
) -> CsrMatrix:
    """Symmetric zero-diagonal CSR from an already-folded ``i <= j`` dict."""
    n = int(num_variables)
    off = [(i, j, v) for (i, j), v in upper.items() if i != j]
    if not off:
        return CsrMatrix(
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            (n, n),
        )
    i_arr = np.fromiter((t[0] for t in off), dtype=np.int64, count=len(off))
    j_arr = np.fromiter((t[1] for t in off), dtype=np.int64, count=len(off))
    v_arr = np.fromiter((t[2] for t in off), dtype=np.float64, count=len(off))
    if i_arr.min() < 0 or max(int(i_arr.max()), int(j_arr.max())) >= n:
        raise ValueError(f"coefficient index out of range for {n} variables")
    rows = np.concatenate([i_arr, j_arr])
    cols = np.concatenate([j_arr, i_arr])
    vals = np.concatenate([v_arr, v_arr])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrMatrix(indptr, cols, vals, (n, n))


def csr_from_coefficients(
    coefficients: PairDict, num_variables: int
) -> CsrMatrix:
    """Symmetric zero-diagonal coupling CSR from an ``(i, j) -> value`` dict.

    Any triangle convention is accepted (entries are folded and summed, as
    in :func:`repro.qubo.matrix.to_upper_triangular`); diagonal entries are
    ignored — pair with :func:`sparse_sampler_form` for the full
    ``(diagonal, coupling)`` sampler form.
    """
    return _symmetric_csr_from_upper(
        to_upper_triangular(coefficients), num_variables
    )


def sparse_sampler_form(
    coefficients: PairDict, num_variables: int
) -> Tuple[np.ndarray, CsrMatrix]:
    """``(diagonal, CsrMatrix)`` sampler form straight from the dict.

    The sparse analogue of ``split_diagonal(dense_from_dict(...))`` — same
    semantics, O(nnz) memory instead of O(n²). The diagonal vector is
    frozen because it is shared through the model's cache.
    """
    n = int(num_variables)
    upper = to_upper_triangular(coefficients)
    diag = np.zeros(n, dtype=np.float64)
    for (i, j), value in upper.items():
        if i == j:
            if not 0 <= i < n:
                raise ValueError(
                    f"coefficient index out of range for {n} variables"
                )
            diag[i] = value
    diag.setflags(write=False)
    return diag, _symmetric_csr_from_upper(upper, n)


# ------------------------------------------------------------------ #
# energies
# ------------------------------------------------------------------ #


def qubo_energies_csr(
    states: np.ndarray,
    diagonal: np.ndarray,
    coupling: CsrMatrix,
    offset: float = 0.0,
) -> np.ndarray:
    """Batched energies from the sparse sampler form, in ``O(R · nnz)``.

    ``E(x) = x · d + ½ x^T W x + offset`` with ``W`` the symmetric
    zero-diagonal coupling — numerically identical (exact for integer
    coefficient models) to the dense ``x^T Q x + offset``.
    """
    x = np.asarray(states, dtype=np.float64)
    diagonal = np.asarray(diagonal, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != diagonal.shape[0] or x.shape[1] != coupling.shape[0]:
        raise ValueError(
            f"state width {x.shape[1]} does not match model size "
            f"{diagonal.shape[0]}"
        )
    energies = x @ diagonal
    if coupling.nnz:
        energies = energies + 0.5 * np.einsum(
            "ri,ri->r", coupling.matmul_dense(x), x
        )
    energies = energies + float(offset)
    return energies[0] if single else energies


# ------------------------------------------------------------------ #
# single-flip field updates (shared by the tabu / descent samplers)
# ------------------------------------------------------------------ #


def flip_update(
    fields: np.ndarray,
    coupling: CsrMatrix,
    rows: np.ndarray,
    cols: np.ndarray,
    signs: np.ndarray,
) -> None:
    """``fields[r] += s · W[c]`` for each flip ``(r, c, s)``, in place.

    ``rows`` must be distinct — one flipped variable per read, as in tabu
    and steepest descent — so no ``(read, column)`` cell is written twice
    and one fancy-index add is exact. Each flipped row's CSR slice is
    gathered with ``repeat``/``arange``; every cell receives the single
    product ``s · W[c, j]`` a per-read loop over the row slices would add.
    """
    if not coupling.nnz:
        return
    starts = coupling.indptr[cols]
    counts = coupling.indptr[cols + 1] - starts
    total = int(counts.sum())
    if not total:
        return
    # Position of every gathered entry in indices/data: each row's start,
    # plus its offset within the row.
    ends = np.cumsum(counts)
    pos = np.arange(total) + np.repeat(starts - (ends - counts), counts)
    fields[np.repeat(rows, counts), coupling.indices[pos]] += (
        np.repeat(signs, counts) * coupling.data[pos]
    )


# ------------------------------------------------------------------ #
# density diagnostics & auto-selection
# ------------------------------------------------------------------ #


def coupling_density(coefficients: PairDict, num_variables: int) -> float:
    """Fraction of the ``n (n-1)`` off-diagonal slots that are nonzero.

    Counts both mirror images of each stored ``i < j`` coupling, matching
    the symmetric matrix the samplers actually consume.
    """
    n = int(num_variables)
    if n < 2:
        return 0.0
    nnz = sum(
        1 for (i, j), v in coefficients.items() if i != j and v != 0.0
    )
    return 2.0 * nnz / (n * (n - 1))


def prefers_sparse(num_variables: int, density: float) -> bool:
    """Whether energies use the CSR kernel: big enough *and* sparse enough."""
    return (
        num_variables >= SPARSE_MIN_VARIABLES
        and density <= SPARSE_DENSITY_THRESHOLD
    )


@dataclass(frozen=True)
class SparseStats:
    """Density diagnostics for one QUBO coefficient dict."""

    num_variables: int
    diagonal_nnz: int
    coupling_nnz: int  # stored symmetric entries (2 per i<j pair)
    density: float  # off-diagonal density in [0, 1]
    max_degree: int
    dense_nbytes: int  # (n, n) float64 coupling + (n,) diagonal
    sparse_nbytes: int  # CSR triplet + diagonal
    auto_sparse: bool  # energies use the CSR kernel

    @property
    def memory_ratio(self) -> float:
        """Dense-form bytes per sparse-form byte (≥ 1 when sparse wins)."""
        return self.dense_nbytes / max(self.sparse_nbytes, 1)


def sparse_stats(coefficients: PairDict, num_variables: int) -> SparseStats:
    """Compute :class:`SparseStats` for a coefficient dict."""
    n = int(num_variables)
    upper = to_upper_triangular(coefficients)
    diagonal_nnz = sum(1 for (i, j) in upper if i == j)
    degree: Dict[int, int] = {}
    coupling_nnz = 0
    for (i, j) in upper:
        if i != j:
            coupling_nnz += 2
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
    density = coupling_density(upper, n)
    dense_nbytes = n * n * 8 + n * 8
    sparse_nbytes = (n + 1) * 8 + coupling_nnz * (8 + 8) + n * 8
    return SparseStats(
        num_variables=n,
        diagonal_nnz=diagonal_nnz,
        coupling_nnz=coupling_nnz,
        density=density,
        max_degree=max(degree.values(), default=0),
        dense_nbytes=dense_nbytes,
        sparse_nbytes=sparse_nbytes,
        auto_sparse=prefers_sparse(n, density),
    )
