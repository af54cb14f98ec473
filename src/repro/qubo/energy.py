"""Vectorized energy kernels.

These are the hot path shared by every sampler and by solution verification.
Following the NumPy-vectorization idiom, energies are always computed for a
*batch* of states at once (shape ``(R, n)``), never in a Python loop over
reads; the scalar entry points just wrap the batched kernels.
"""

from __future__ import annotations

from typing import Mapping, Tuple

import numpy as np

__all__ = [
    "qubo_energies",
    "qubo_energy",
    "ising_energies",
    "ising_energy",
    "qubo_energies_dict",
]

#: Contraction order for ``x^T Q x`` over a batch: ``(x Q)`` first, then
#: the row-wise dot with ``x``. It is the order ``optimize=True`` picks for
#: every ``n > 1``; fixing it skips the path search on every call. For
#: ``n == 1`` the search picks ``(x x) Q`` instead, which is the same
#: product for {0, 1} and {-1, +1} states.
_QUADRATIC_PATH = ["einsum_path", (0, 1), (0, 1)]


def qubo_energies(states: np.ndarray, q: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """Energies ``E(x) = x^T Q x + offset`` for a batch of binary states.

    Parameters
    ----------
    states:
        ``(R, n)`` or ``(n,)`` array with entries in {0, 1}.
    q:
        ``(n, n)`` QUBO matrix; any triangle convention is accepted because
        ``x^T Q x`` only depends on ``Q + Q^T``.
    offset:
        Constant added to every energy.

    Returns
    -------
    ``(R,)`` float64 array (or a 0-d array for a single state).
    """
    x = np.asarray(states, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != q.shape[0]:
        raise ValueError(
            f"state width {x.shape[1]} does not match QUBO size {q.shape[0]}"
        )
    energies = np.einsum("ri,ij,rj->r", x, q, x, optimize=_QUADRATIC_PATH) + offset
    return energies[0] if single else energies


def qubo_energy(state: np.ndarray, q: np.ndarray, offset: float = 0.0) -> float:
    """Energy of a single binary state (convenience scalar wrapper)."""
    return float(qubo_energies(np.asarray(state), q, offset))


def qubo_energies_dict(
    states: np.ndarray,
    coefficients: Mapping[Tuple[int, int], float],
    offset: float = 0.0,
) -> np.ndarray:
    """Energies straight from dict-of-pairs coefficients.

    Avoids densifying for very sparse models: cost is
    ``O(R * nnz)`` instead of ``O(R * n^2)``.
    """
    x = np.asarray(states, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    energies = np.full(x.shape[0], float(offset), dtype=np.float64)
    for (i, j), value in coefficients.items():
        if i == j:
            energies += value * x[:, i]
        else:
            energies += value * x[:, i] * x[:, j]
    return energies[0] if single else energies


def ising_energies(
    states: np.ndarray,
    h: np.ndarray,
    j: np.ndarray,
    offset: float = 0.0,
) -> np.ndarray:
    """Energies ``E(s) = h·s + s^T J s + offset`` for spin states in {-1,+1}.

    ``J`` may use any triangle convention; only ``J + J^T`` matters and the
    diagonal of ``J`` must be zero (spin variables square to one, so diagonal
    terms are constants and belong in *offset*).
    """
    s = np.asarray(states, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    if np.any(np.diag(j) != 0.0):
        raise ValueError("Ising coupling matrix must have a zero diagonal")
    single = s.ndim == 1
    if single:
        s = s[None, :]
    energies = s @ h + np.einsum("ri,ij,rj->r", s, j, s, optimize=_QUADRATIC_PATH) + offset
    return energies[0] if single else energies


def ising_energy(
    state: np.ndarray, h: np.ndarray, j: np.ndarray, offset: float = 0.0
) -> float:
    """Energy of a single spin state."""
    return float(ising_energies(np.asarray(state), h, j, offset))
