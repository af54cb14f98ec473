"""Random number generator discipline.

All stochastic components in the library accept a ``seed`` argument that may
be ``None``, an integer, or an already-constructed
:class:`numpy.random.Generator`. :func:`ensure_rng` normalizes the three
cases so call sites never branch.

Components that need a stream of their own (the string solver's per-solve
generator, the refinement loop) take one from :func:`spawn_rngs`, which
derives child generators through NumPy's ``SeedSequence`` spawning
machinery and so guarantees independence without manual seed arithmetic.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = ["SeedLike", "ensure_rng", "spawn_rngs"]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, a
        ``SeedSequence``, or a ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or numpy Generator, got {type(seed)!r}"
    )


def spawn_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive *n* independent generators from a single seed.

    Each child is its own stream; results are reproducible given the
    parent seed and are independent of scheduling order.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh entropy from the parent stream;
        # reproducible because the parent is.
        seeds = seed.integers(0, 2**63 - 1, size=n, dtype=np.int64)
        return [np.random.default_rng(int(s)) for s in seeds]
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
