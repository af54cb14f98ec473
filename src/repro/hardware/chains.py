"""Chain strength selection and chain-break resolution.

When a logical variable is embedded as a chain of physical qubits, the
chain is held together by a strong ferromagnetic coupling. Too weak and
chains *break* (physical qubits disagree); too strong and the chain term
drowns out the problem's own energy scale. After sampling, each physical
state must be *unembedded* back to logical variables, resolving any broken
chains.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.qubo.ising import Couplings, Fields
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "uniform_torque_compensation",
    "chain_break_fraction",
    "majority_vote",
    "resolve_chain_breaks",
]

#: ``logical -> [column, ...]``: each chain's columns in the physical states.
Chains = Mapping[Hashable, Sequence[int]]


def uniform_torque_compensation(
    h: Fields, j: Couplings, prefactor: float = 1.414
) -> float:
    """Chain strength by the uniform torque compensation heuristic.

    Estimates the coupling a chain must withstand from the Ising model
    ``(h, j)``: the RMS coupling times the square root of the mean degree,
    scaled by *prefactor* (D-Wave's default is sqrt(2) ≈ 1.414). Falls back
    to the maximum absolute field when the model has no couplings.
    """
    if prefactor <= 0:
        raise ValueError(f"prefactor must be positive, got {prefactor}")
    quadratic = [c for c in j.values() if c != 0.0]
    if quadratic:
        rms = float(np.sqrt(np.mean(np.square(quadratic))))
        variables = set(h).union(*j)
        avg_degree = 2 * len(j) / len(variables)
        strength = prefactor * rms * np.sqrt(avg_degree)
    else:
        linear = [abs(b) for b in h.values()]
        strength = prefactor * (max(linear) if linear else 1.0)
    return float(strength) if strength > 0 else 1.0


def _chain_columns(chains: Chains, num_columns: int) -> List[np.ndarray]:
    """Each chain as an index array, checked against the state width."""
    columns = []
    for logical, chain in chains.items():
        cols = np.asarray(chain, dtype=np.int64)
        if cols.size == 0:
            raise ValueError(f"empty chain for logical variable {logical!r}")
        if cols.min() < 0 or cols.max() >= num_columns:
            raise KeyError(
                f"chain of {logical!r} references unknown physical qubit "
                f"(columns {list(chain)} of {num_columns})"
            )
        columns.append(cols)
    return columns


def chain_break_fraction(states: np.ndarray, chains: Chains) -> np.ndarray:
    """Per-row fraction of chains whose qubits disagree.

    *states* is the ``(R, num_physical)`` array of physical samples (0/1
    or ±1); *chains* maps each logical variable to its columns.
    """
    states = np.atleast_2d(np.asarray(states))
    columns = _chain_columns(chains, states.shape[1])
    broken = np.zeros(states.shape[0], dtype=np.int64)
    for cols in columns:
        chain_vals = states[:, cols]
        broken += np.any(chain_vals != chain_vals[:, :1], axis=1)
    return broken / max(len(columns), 1)


def majority_vote(
    states: np.ndarray, chains: Chains, seed: SeedLike = None
) -> Tuple[np.ndarray, List[Hashable]]:
    """Unembed by per-chain majority vote (random tie-break).

    Returns ``(logical_states, logical_order)`` where ``logical_states`` is
    ``(R, num_logical)`` in the same value domain as the input.
    """
    rng = ensure_rng(seed)
    states = np.atleast_2d(np.asarray(states))
    lo = int(states.min(initial=0))
    low_value = -1 if lo < 0 else 0
    columns = _chain_columns(chains, states.shape[1])
    order = list(chains)
    out = np.empty((states.shape[0], len(order)), dtype=np.int8)
    for j, cols in enumerate(columns):
        chain_vals = states[:, cols]
        ones = (chain_vals == 1).sum(axis=1)
        half = cols.size / 2.0
        decided_one = ones > half
        decided_low = ones < half
        out[:, j] = np.where(decided_one, 1, low_value)
        ties = ~(decided_one | decided_low)
        if ties.any():
            coin = rng.integers(0, 2, size=int(ties.sum()))
            out[ties, j] = np.where(coin == 1, 1, low_value)
    return out, order


def resolve_chain_breaks(
    states: np.ndarray,
    chains: Chains,
    method: str = "majority",
    seed: SeedLike = None,
) -> Tuple[np.ndarray, List[Hashable], np.ndarray]:
    """Unembed physical states to logical ones.

    Parameters
    ----------
    method:
        * ``"majority"`` — per-chain majority vote (default).
        * ``"discard"`` — drop every read containing a broken chain, then
          majority-vote the survivors (trivially exact on them).

    Returns
    -------
    ``(logical_states, logical_order, kept_rows)`` where *kept_rows* indexes
    the surviving rows of the input (all rows for ``"majority"``).
    """
    states = np.atleast_2d(np.asarray(states))
    all_rows = np.arange(states.shape[0])
    if method == "majority":
        logical, order = majority_vote(states, chains, seed=seed)
        return logical, order, all_rows
    if method == "discard":
        fractions = chain_break_fraction(states, chains)
        kept = all_rows[fractions == 0.0]
        logical, order = majority_vote(states[kept], chains, seed=seed)
        return logical, order, kept
    raise ValueError(f"method must be 'majority' or 'discard', got {method!r}")
