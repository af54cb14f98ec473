"""Exact QUBO ↔ Ising transforms.

Quantum annealers are physically Ising machines: they minimize
``E(s) = Σ h_i s_i + Σ_{i<j} J_ij s_i s_j`` over spins ``s ∈ {-1,+1}``.
The paper's formulations are QUBOs (``x ∈ {0,1}``); the substitution
``x = (s + 1) / 2`` converts between the two **exactly**, shifting constants
into the offset so that every state keeps its energy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Mapping, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.qubo.model import QuboModel

__all__ = [
    "qubo_to_ising",
    "ising_to_qubo",
    "model_to_ising",
    "spins_to_binary",
    "binary_to_spins",
]

PairDict = Mapping[Tuple[int, int], float]
#: Ising fields ``{variable: h}`` and couplings ``{(u, v): J}`` over any labels.
Fields = Mapping[Hashable, float]
Couplings = Mapping[Tuple[Hashable, Hashable], float]


def qubo_to_ising(
    coefficients: PairDict, offset: float = 0.0
) -> Tuple[Dict[int, float], Dict[Tuple[int, int], float], float]:
    """Convert QUBO coefficients to Ising ``(h, J, offset)``.

    With ``x_i = (s_i + 1)/2``:

    * a diagonal term ``a x_i`` becomes ``(a/2) s_i + a/2``,
    * a coupling ``b x_i x_j`` becomes
      ``(b/4) s_i s_j + (b/4) s_i + (b/4) s_j + b/4``.
    """
    h: Dict[int, float] = {}
    j: Dict[Tuple[int, int], float] = {}
    off = float(offset)
    for (a, b), value in coefficients.items():
        if a == b:
            h[a] = h.get(a, 0.0) + value / 2.0
            off += value / 2.0
        else:
            key = (a, b) if a < b else (b, a)
            j[key] = j.get(key, 0.0) + value / 4.0
            h[a] = h.get(a, 0.0) + value / 4.0
            h[b] = h.get(b, 0.0) + value / 4.0
            off += value / 4.0
    return h, j, off


def model_to_ising(
    model: QuboModel,
) -> Tuple[Dict[int, float], Dict[Tuple[int, int], float], float]:
    """Ising ``(h, J, offset)`` of a :class:`~repro.qubo.model.QuboModel`.

    ``h`` holds every variable, in index order. ``J`` lists each coupling
    under its lower index, rows in index order and insertion order within
    a row. Both orders are the ones the hardware emulation programs,
    perturbs and sums the terms in.
    """
    coefficients = {(i, i): 0.0 for i in range(model.num_variables)}
    couplings = []
    for i, j, value in model.iter_coefficients():
        if i == j:
            coefficients[(i, i)] = value
        else:
            couplings.append(((i, j), value))
    couplings.sort(key=lambda item: item[0][0])
    coefficients.update(couplings)
    return qubo_to_ising(coefficients, model.offset)


def ising_to_qubo(
    h: Mapping[int, float], j: PairDict, offset: float = 0.0
) -> Tuple[Dict[Tuple[int, int], float], float]:
    """Convert Ising ``(h, J, offset)`` to QUBO ``(coefficients, offset)``.

    Inverse of :func:`qubo_to_ising`: with ``s_i = 2 x_i - 1``,

    * a field ``h_i s_i`` becomes ``2 h_i x_i - h_i``,
    * a coupling ``J_ij s_i s_j`` becomes
      ``4 J x_i x_j - 2 J x_i - 2 J x_j + J``.
    """
    q: Dict[Tuple[int, int], float] = {}
    off = float(offset)
    for i, value in h.items():
        q[(i, i)] = q.get((i, i), 0.0) + 2.0 * value
        off -= value
    for (a, b), value in j.items():
        if a == b:
            raise ValueError(f"Ising coupling on the diagonal: ({a}, {b})")
        key = (a, b) if a < b else (b, a)
        q[key] = q.get(key, 0.0) + 4.0 * value
        q[(a, a)] = q.get((a, a), 0.0) - 2.0 * value
        q[(b, b)] = q.get((b, b), 0.0) - 2.0 * value
        off += value
    return {k: v for k, v in q.items() if v != 0.0}, off


def binary_to_spins(states: np.ndarray) -> np.ndarray:
    """Map a {0,1} array to {-1,+1} (same shape, int8)."""
    x = np.asarray(states)
    return (2 * x - 1).astype(np.int8)


def spins_to_binary(states: np.ndarray) -> np.ndarray:
    """Map a {-1,+1} array to {0,1} (same shape, int8)."""
    s = np.asarray(states)
    return ((s + 1) // 2).astype(np.int8)
