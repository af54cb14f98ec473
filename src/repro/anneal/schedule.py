"""Annealing schedules.

Simulated annealing sweeps an inverse temperature ``beta`` from hot to cold;
simulated *quantum* annealing additionally sweeps a transverse field
``Gamma`` from strong to weak. Schedules are plain float64 arrays, one value
per sweep, so samplers stay schedule-agnostic.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.qubo.sparse import CsrMatrix

__all__ = [
    "default_beta_range",
    "geometric_schedule",
    "linear_schedule",
    "transverse_field_schedule",
]


def default_beta_range(
    diagonal: np.ndarray, coupling: CsrMatrix
) -> Tuple[float, float]:
    """Heuristic ``(beta_hot, beta_cold)`` from the model's energy scales.

    The hot end accepts flips against the *largest* single-variable energy
    change with probability ~0.5 (so the walk starts effectively free). The
    cold end must *freeze* the smallest energy scale in the problem: flips
    that win or lose only the **smallest nonzero coefficient** must be
    decisively rejected, or formulations with weak tie-breaking terms (the
    §4.4 first-match increment is ``A / (2 (n-m+1))``, orders of magnitude
    below the one-hot couplings) never settle into their true optimum.

    Parameters
    ----------
    diagonal:
        ``(n,)`` QUBO diagonal.
    coupling:
        The symmetric off-diagonal couplings in CSR form
        (:class:`~repro.qubo.sparse.CsrMatrix`), as produced by
        ``QuboModel.sampler_form()``.
    """
    diagonal = np.asarray(diagonal, dtype=np.float64)
    coupling_mags = np.abs(coupling.data)
    # Largest possible |delta E| per variable: |d_i| plus total incident coupling.
    reach = np.abs(diagonal) + coupling.abs_row_sums()
    max_reach = float(reach.max()) if reach.size else 1.0
    if max_reach <= 0.0:
        return 0.1, 1.0
    # Smallest energy scale: the least nonzero |coefficient| anywhere.
    magnitudes = np.concatenate([np.abs(diagonal).ravel(), coupling_mags])
    nonzero = magnitudes[magnitudes > 0]
    min_scale = float(nonzero.min()) if nonzero.size else max_reach
    beta_hot = np.log(2.0) / max_reach
    n = max(int(diagonal.size), 2)
    beta_cold = np.log(100.0 * n) / min_scale
    if beta_cold <= beta_hot:
        beta_cold = beta_hot * 10.0
    return float(beta_hot), float(beta_cold)


def geometric_schedule(
    beta_hot: float, beta_cold: float, num_sweeps: int
) -> np.ndarray:
    """Geometric interpolation from hot to cold (the ``neal`` default)."""
    _check(beta_hot, beta_cold, num_sweeps)
    if num_sweeps == 1:
        return np.array([beta_cold], dtype=np.float64)
    return np.geomspace(beta_hot, beta_cold, num_sweeps, dtype=np.float64)


def linear_schedule(beta_hot: float, beta_cold: float, num_sweeps: int) -> np.ndarray:
    """Linear interpolation from hot to cold."""
    _check(beta_hot, beta_cold, num_sweeps)
    if num_sweeps == 1:
        return np.array([beta_cold], dtype=np.float64)
    return np.linspace(beta_hot, beta_cold, num_sweeps, dtype=np.float64)


def transverse_field_schedule(
    gamma_initial: float, gamma_final: float, num_sweeps: int
) -> np.ndarray:
    """Linearly decreasing transverse field for path-integral SQA.

    Hardware anneals reduce the tunnelling term from a large initial value
    to (near) zero; ``gamma_final`` is clamped above a small epsilon because
    the Trotter inter-slice coupling diverges logarithmically at zero field.
    """
    if gamma_initial <= 0:
        raise ValueError(f"gamma_initial must be positive, got {gamma_initial}")
    if gamma_final < 0:
        raise ValueError(f"gamma_final must be non-negative, got {gamma_final}")
    if gamma_final > gamma_initial:
        raise ValueError("transverse field must decrease over the anneal")
    if num_sweeps < 1:
        raise ValueError(f"num_sweeps must be >= 1, got {num_sweeps}")
    eps = 1e-9 * gamma_initial
    return np.linspace(gamma_initial, max(gamma_final, eps), num_sweeps, dtype=np.float64)


def _check(beta_hot: float, beta_cold: float, num_sweeps: int) -> None:
    if beta_hot <= 0 or beta_cold <= 0:
        raise ValueError(
            f"beta endpoints must be positive, got ({beta_hot}, {beta_cold})"
        )
    if beta_cold < beta_hot:
        raise ValueError(
            f"schedule must cool: beta_cold {beta_cold} < beta_hot {beta_hot}"
        )
    if num_sweeps < 1:
        raise ValueError(f"num_sweeps must be >= 1, got {num_sweeps}")
