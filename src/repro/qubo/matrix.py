"""Matrix normal forms for QUBO coefficient storage.

A QUBO is fully described by an upper-triangular matrix ``Q`` with the
objective ``E(x) = x^T Q x`` for ``x ∈ {0,1}^n``; because ``x_i^2 = x_i`` the
diagonal doubles as the linear term. Samplers prefer the *symmetric*
zero-diagonal form ``W = Q_offdiag + Q_offdiag^T`` plus a separate diagonal
vector, because local-field updates become plain matrix rows.

This module converts between the dict-of-pairs form used by model builders
and the dense forms used by the numeric kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "dense_from_dict",
    "dict_from_dense",
    "to_upper_triangular",
    "to_symmetric",
    "coo_from_dict",
    "split_diagonal",
]

PairDict = Mapping[Tuple[int, int], float]


def to_upper_triangular(coefficients: PairDict) -> Dict[Tuple[int, int], float]:
    """Fold arbitrary ``(i, j) -> value`` entries into ``i <= j`` normal form.

    Entries ``(i, j)`` and ``(j, i)`` are summed — QUBO semantics are
    insensitive to which triangle holds a coupling as long as the total is
    preserved. Zero-sum entries are dropped.
    """
    out: Dict[Tuple[int, int], float] = {}
    for (i, j), value in coefficients.items():
        if i < 0 or j < 0:
            raise ValueError(f"variable indices must be non-negative, got ({i}, {j})")
        key = (i, j) if i <= j else (j, i)
        out[key] = out.get(key, 0.0) + float(value)
    return {k: v for k, v in out.items() if v != 0.0}


def dense_from_dict(coefficients: PairDict, num_variables: int) -> np.ndarray:
    """Build the dense upper-triangular ``(n, n)`` float64 matrix."""
    upper = to_upper_triangular(coefficients)
    q = np.zeros((num_variables, num_variables), dtype=np.float64)
    if upper:
        rows, cols, vals = _unzip(upper)
        if rows.size and (rows.max() >= num_variables or cols.max() >= num_variables):
            raise ValueError(
                f"coefficient index out of range for {num_variables} variables"
            )
        q[rows, cols] = vals
    return q


def coo_from_dict(coefficients: PairDict, num_variables: int) -> sp.coo_matrix:
    """Build a sparse COO upper-triangular matrix (for very large models)."""
    import scipy.sparse as sp

    upper = to_upper_triangular(coefficients)
    if not upper:
        return sp.coo_matrix((num_variables, num_variables), dtype=np.float64)
    rows, cols, vals = _unzip(upper)
    return sp.coo_matrix(
        (vals, (rows, cols)), shape=(num_variables, num_variables), dtype=np.float64
    )


def dict_from_dense(q: np.ndarray, atol: float = 0.0) -> Dict[Tuple[int, int], float]:
    """Extract ``i <= j`` entries from a dense matrix.

    The lower triangle, if populated, is folded into the upper one.
    Entries with ``|value| <= atol`` are dropped.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    n = q.shape[0]
    folded = np.triu(q) + np.tril(q, k=-1).T
    rows, cols = np.nonzero(np.abs(folded) > atol)
    return {
        (int(i), int(j)): float(folded[i, j])
        for i, j in zip(rows, cols)
        if i <= j and 0 <= i < n
    }


def to_symmetric(q: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal coupling matrix from an upper-triangular one.

    Returns ``W`` with ``W[i, j] = W[j, i] = Q[i, j] + Q[j, i]`` for
    ``i != j`` and ``W[i, i] = 0``; pair this with
    :func:`split_diagonal` for the sampler-facing ``(diag, W)`` form.
    """
    q = np.asarray(q, dtype=np.float64)
    w = q + q.T
    np.fill_diagonal(w, 0.0)
    return w


def split_diagonal(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a QUBO matrix into ``(diagonal, symmetric off-diagonal)``.

    With ``d, W = split_diagonal(Q)`` the energy of a batch ``X`` of shape
    ``(R, n)`` is ``X @ d + 0.5 * ((X @ W) * X).sum(axis=1)``.
    """
    q = np.asarray(q, dtype=np.float64)
    return np.diag(q).copy(), to_symmetric(q)


def _unzip(upper: PairDict) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys = np.array(list(upper.keys()), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(upper.values()), dtype=np.float64)
    return keys[:, 0], keys[:, 1], vals
