"""The index-based QUBO model.

:class:`QuboModel` is the one QUBO container: every string formulation in
:mod:`repro.core` produces it, and every sampler in :mod:`repro.anneal`
and the hardware emulation in :mod:`repro.hardware` consume it. Variables
are the integers ``0 .. num_variables-1``.

Design notes
------------
* Coefficients are stored as an ``i <= j`` dict while the model is being
  built (cheap incremental updates, exact bookkeeping), and materialized into
  a dense NumPy matrix *or* the CSR sampler form on demand. Both views are
  cached and invalidated on mutation — samplers hit the cached arrays,
  builders hit the dict. Cached matrix views are **read-only**: mutating a
  returned array would silently corrupt every later energy evaluation, so
  callers that need a scratch matrix must copy.
* ``sampler_form()`` is the one coupling form every sampler kernel runs
  on: the diagonal plus the symmetric off-diagonal couplings in CSR (see
  :mod:`repro.qubo.sparse`). The dense matrix serves only ``energies()``
  on small or dense models.
* ``color_classes()`` caches the independent sets the colored anneal
  kernel flips together, so retries, restarts and compile-cache hits
  colour each model once.
* ``set_`` methods overwrite and ``add_`` methods accumulate. The paper's
  substring-matching formulation (§4.3) depends on the *overwrite* semantics:
  later encodings replace earlier ones.
* Pickling ships only ``(n, coefficients, offset)`` — never a dense matrix —
  so pickled payloads stay proportional to the number of nonzeros.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.qubo.energy import qubo_energies
from repro.qubo.matrix import dense_from_dict, dict_from_dense, to_upper_triangular
from repro.qubo.sparse import (
    CsrMatrix,
    coupling_density,
    prefers_sparse,
    qubo_energies_csr,
    sparse_sampler_form,
)

__all__ = ["QuboModel"]


class QuboModel:
    """A QUBO ``E(x) = x^T Q x + offset`` over variables ``0..n-1``.

    Parameters
    ----------
    num_variables:
        Number of binary variables; fixed at construction.
    coefficients:
        Optional initial ``(i, j) -> value`` mapping (any triangle
        convention; folded to ``i <= j``).
    offset:
        Constant energy offset.
    """

    __slots__ = (
        "_n",
        "_coeffs",
        "_offset",
        "_dense_cache",
        "_sparse_cache",
        "_density_cache",
        "_color_cache",
    )

    def __init__(
        self,
        num_variables: int,
        coefficients: Optional[Mapping[Tuple[int, int], float]] = None,
        offset: float = 0.0,
    ) -> None:
        if num_variables < 0:
            raise ValueError(f"num_variables must be non-negative, got {num_variables}")
        self._n = int(num_variables)
        self._coeffs: Dict[Tuple[int, int], float] = {}
        self._offset = float(offset)
        self._dense_cache: Optional[np.ndarray] = None
        self._sparse_cache: Optional[Tuple[np.ndarray, CsrMatrix]] = None
        self._density_cache: Optional[float] = None
        self._color_cache: Optional[Tuple[np.ndarray, ...]] = None
        if coefficients:
            for (i, j), value in to_upper_triangular(coefficients).items():
                self._check_index(i)
                self._check_index(j)
                self._coeffs[(i, j)] = value

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_variables(self) -> int:
        """Number of binary variables."""
        return self._n

    @property
    def offset(self) -> float:
        """Constant energy offset."""
        return self._offset

    @offset.setter
    def offset(self, value: float) -> None:
        self._offset = float(value)

    @property
    def num_interactions(self) -> int:
        """Number of nonzero off-diagonal couplings."""
        return sum(1 for (i, j) in self._coeffs if i != j)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"QuboModel(num_variables={self._n}, "
            f"nnz={len(self._coeffs)}, offset={self._offset})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuboModel):
            return NotImplemented
        return (
            self._n == other._n
            and self._offset == other._offset
            and self._nonzero() == other._nonzero()
        )

    def _nonzero(self) -> Dict[Tuple[int, int], float]:
        return {k: v for k, v in self._coeffs.items() if v != 0.0}

    def _invalidate(self) -> None:
        """Drop cached matrix views after a coefficient mutation."""
        self._dense_cache = None
        self._sparse_cache = None
        self._density_cache = None
        self._color_cache = None

    # ------------------------------------------------------------------ #
    # pickling — ship coefficients, never cached matrices
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, Any]:
        return {"n": self._n, "coeffs": self._coeffs, "offset": self._offset}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._n = state["n"]
        self._coeffs = state["coeffs"]
        self._offset = state["offset"]
        self._invalidate()

    # ------------------------------------------------------------------ #
    # coefficient access
    # ------------------------------------------------------------------ #

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self._n):
            raise IndexError(f"variable {i} out of range [0, {self._n})")

    @staticmethod
    def _key(i: int, j: int) -> Tuple[int, int]:
        return (i, j) if i <= j else (j, i)

    def get(self, i: int, j: Optional[int] = None) -> float:
        """Coefficient of ``x_i x_j`` (or the linear/diagonal term if j is None)."""
        if j is None:
            j = i
        self._check_index(i)
        self._check_index(j)
        return self._coeffs.get(self._key(i, j), 0.0)

    def set_linear(self, i: int, value: float) -> None:
        """Overwrite the diagonal entry ``Q[i, i]``."""
        self._check_index(i)
        self._coeffs[(i, i)] = float(value)
        self._invalidate()

    def add_linear(self, i: int, value: float) -> None:
        """Accumulate into the diagonal entry ``Q[i, i]``."""
        self._check_index(i)
        key = (i, i)
        self._coeffs[key] = self._coeffs.get(key, 0.0) + float(value)
        self._invalidate()

    def set_quadratic(self, i: int, j: int, value: float) -> None:
        """Overwrite the coupling ``Q[min(i,j), max(i,j)]``."""
        if i == j:
            raise ValueError("use set_linear for diagonal entries")
        self._check_index(i)
        self._check_index(j)
        self._coeffs[self._key(i, j)] = float(value)
        self._invalidate()

    def add_quadratic(self, i: int, j: int, value: float) -> None:
        """Accumulate into the coupling ``Q[min(i,j), max(i,j)]``."""
        if i == j:
            raise ValueError("use add_linear for diagonal entries")
        self._check_index(i)
        self._check_index(j)
        key = self._key(i, j)
        self._coeffs[key] = self._coeffs.get(key, 0.0) + float(value)
        self._invalidate()

    def iter_coefficients(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(i, j, value)`` for every stored nonzero, ``i <= j``."""
        for (i, j), value in self._coeffs.items():
            if value != 0.0:
                yield i, j, value

    def linear_vector(self) -> np.ndarray:
        """The diagonal as an ``(n,)`` float64 vector."""
        d = np.zeros(self._n, dtype=np.float64)
        for (i, j), value in self._coeffs.items():
            if i == j:
                d[i] = value
        return d

    # ------------------------------------------------------------------ #
    # matrix views
    # ------------------------------------------------------------------ #

    def to_dense(self) -> np.ndarray:
        """Dense upper-triangular ``(n, n)`` matrix (cached and read-only).

        The returned array is the cache itself, marked non-writable:
        mutating it in place would silently corrupt the model and every
        later energy evaluation, so NumPy now raises instead. Copy first
        if you need a scratch matrix.
        """
        if self._dense_cache is None:
            dense = dense_from_dict(self._coeffs, self._n)
            dense.setflags(write=False)
            self._dense_cache = dense
        return self._dense_cache

    def to_dict(self) -> Dict[Tuple[int, int], float]:
        """A copy of the ``i <= j`` coefficient dict (zeros dropped)."""
        return self._nonzero()

    def coupling_density(self) -> float:
        """Nonzero fraction of the symmetric off-diagonal coupling slots."""
        if self._density_cache is None:
            self._density_cache = coupling_density(self._coeffs, self._n)
        return self._density_cache

    def prefers_sparse(self) -> bool:
        """Whether :meth:`energies` scores through the CSR energy kernel.

        Only the energy kernel is chosen by size and density; every sampler
        kernel runs on the CSR form whatever this returns.
        """
        return prefers_sparse(self._n, self.coupling_density())

    def sampler_form(self) -> Tuple[np.ndarray, CsrMatrix]:
        """``(diagonal, symmetric off-diagonal CSR)`` for the sampler kernels.

        Cached; the diagonal and the CSR arrays are read-only.
        """
        if self._sparse_cache is None:
            self._sparse_cache = sparse_sampler_form(self._coeffs, self._n)
        return self._sparse_cache

    @classmethod
    def from_dense(cls, q: np.ndarray, offset: float = 0.0) -> "QuboModel":
        """Build a model from any square matrix (triangles are folded)."""
        q = np.asarray(q, dtype=np.float64)
        model = cls(q.shape[0], offset=offset)
        model._coeffs = dict_from_dense(q)
        return model

    def copy(self) -> "QuboModel":
        """An independent deep copy."""
        clone = QuboModel(self._n, offset=self._offset)
        clone._coeffs = dict(self._coeffs)
        return clone

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #

    def energy(self, state: np.ndarray) -> float:
        """Energy of a single state in {0,1}^n."""
        return float(self.energies(np.asarray(state)))

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Vectorized energies for a batch of states (shape ``(R, n)``).

        Large sparse models (:meth:`prefers_sparse`) are scored through
        the ``O(R · nnz)`` CSR kernel, the others through the ``O(R · n²)``
        einsum kernel. Both agree exactly on integer-coefficient models
        and to ~1e-9 otherwise.
        """
        if self.prefers_sparse():
            diag, coupling = self.sampler_form()
            return qubo_energies_csr(states, diag, coupling, self._offset)
        return qubo_energies(states, self.to_dense(), self._offset)

    def color_classes(self) -> Tuple[np.ndarray, ...]:
        """Independent sets of the coupling graph (cached, read-only).

        Greedy colouring in largest-degree-first order — exactly
        ``networkx.greedy_color(self.interaction_graph(),
        strategy="largest_first")`` — returned as one sorted ``int64``
        index array per colour, colour 0 first. No two variables of one
        class share a nonzero coupling, which is what lets the colored
        anneal kernel flip a whole class in one vectorized step.
        """
        if self._color_cache is None:
            self._color_cache = _greedy_color_classes(self._coeffs, self._n)
        return self._color_cache

    def interaction_graph(self):
        """The coupling graph as a :class:`networkx.Graph` (nodes 0..n-1)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(
            (i, j) for (i, j), v in self._coeffs.items() if i != j and v != 0.0
        )
        return g

    def max_abs_coefficient(self) -> float:
        """Largest absolute coefficient (0.0 for the empty model)."""
        values = [abs(v) for v in self._coeffs.values()]
        return max(values) if values else 0.0


def _greedy_color_classes(
    coeffs: Mapping[Tuple[int, int], float], n: int
) -> Tuple[np.ndarray, ...]:
    """Largest-degree-first greedy colouring, grouped into index arrays.

    Nodes are visited by degree, highest first, ties in index order (a
    stable sort, as networkx's ``largest_first`` strategy); each takes the
    smallest colour no already-coloured neighbour holds.
    """
    neighbours: List[Set[int]] = [set() for _ in range(n)]
    for (i, j), value in coeffs.items():
        if i != j and value != 0.0:
            neighbours[i].add(j)
            neighbours[j].add(i)
    colors = [-1] * n
    for u in sorted(range(n), key=lambda v: len(neighbours[v]), reverse=True):
        used = {colors[v] for v in neighbours[u]}
        color = 0
        while color in used:
            color += 1
        colors[u] = color
    by_node = np.array(colors, dtype=np.int64)
    classes = tuple(
        np.flatnonzero(by_node == color).astype(np.int64)
        for color in range(max(colors, default=-1) + 1)
    )
    for cls in classes:
        cls.setflags(write=False)
    return classes
