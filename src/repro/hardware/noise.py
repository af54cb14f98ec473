"""Analog control-error model.

Physical annealers realize the programmed ``(h, J)`` imperfectly: each
field/coupler is perturbed by (approximately) independent Gaussian error,
and the programmable range is clamped. This model reproduces both effects
so solver-level mitigations (gauge averaging, rescaling) have something real
to mitigate.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.qubo.ising import Couplings, Fields
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_non_negative

__all__ = ["GaussianNoiseModel"]


class GaussianNoiseModel:
    """I.i.d. Gaussian perturbation of Ising fields and couplings.

    Parameters
    ----------
    h_sigma:
        Standard deviation of the error on fields (default 0.02, the
        order of magnitude D-Wave quotes for integrated control errors).
    j_sigma:
        Standard deviation of the error on couplings (default 0.01).
    h_range, j_range:
        Optional symmetric clamps ``(-r, +r)`` applied after perturbation,
        modelling the finite programmable range.
    """

    def __init__(
        self,
        h_sigma: float = 0.02,
        j_sigma: float = 0.01,
        h_range: Optional[float] = None,
        j_range: Optional[float] = None,
    ) -> None:
        self.h_sigma = check_non_negative("h_sigma", h_sigma)
        self.j_sigma = check_non_negative("j_sigma", j_sigma)
        if h_range is not None and h_range <= 0:
            raise ValueError(f"h_range must be positive, got {h_range}")
        if j_range is not None and j_range <= 0:
            raise ValueError(f"j_range must be positive, got {j_range}")
        self.h_range = h_range
        self.j_range = j_range

    def apply(
        self, h: Fields, j: Couplings, seed: SeedLike = None
    ) -> Tuple[Dict, Dict]:
        """Perturbed copies of the programmed ``(h, J)`` (inputs untouched).

        Draws every field first, then every coupling, each in dict order.
        """
        rng = ensure_rng(seed)
        noisy_h = {
            v: _perturb(bias, self.h_sigma, self.h_range, rng)
            for v, bias in h.items()
        }
        noisy_j = {
            pair: _perturb(coupling, self.j_sigma, self.j_range, rng)
            for pair, coupling in j.items()
        }
        return noisy_h, noisy_j

    def __repr__(self) -> str:
        return (
            f"GaussianNoiseModel(h_sigma={self.h_sigma}, j_sigma={self.j_sigma}, "
            f"h_range={self.h_range}, j_range={self.j_range})"
        )


def _perturb(value: float, sigma: float, bound: Optional[float], rng) -> float:
    if sigma:
        value += rng.normal(0.0, sigma)
    if bound is not None:
        value = min(max(value, -bound), bound)
    return value
