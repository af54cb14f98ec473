"""Labelled binary quadratic models (the ``dimod.BinaryQuadraticModel`` role).

A :class:`BinaryQuadraticModel` (BQM) carries arbitrary hashable variable
labels, a vartype (SPIN or BINARY), linear biases, quadratic couplings, and a
constant offset. The hardware layer (:mod:`repro.hardware`) works with BQMs
because embedded chains need labelled qubits; the string formulations work
with the leaner index-based :class:`~repro.qubo.model.QuboModel` and are
lifted into BQMs when they pass through the hardware layer.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.qubo.ising import ising_to_qubo, qubo_to_ising
from repro.qubo.model import QuboModel
from repro.qubo.vartypes import BINARY, SPIN, Vartype, as_vartype

__all__ = ["BinaryQuadraticModel"]

Variable = Hashable


class BinaryQuadraticModel:
    """Labelled quadratic model over SPIN or BINARY variables.

    Parameters
    ----------
    linear:
        ``variable -> bias`` mapping.
    quadratic:
        ``(u, v) -> coupling`` mapping with ``u != v``; symmetric duplicates
        are summed.
    offset:
        Constant energy offset.
    vartype:
        ``"BINARY"`` (values {0,1}) or ``"SPIN"`` (values {-1,+1}).
    """

    def __init__(
        self,
        linear: Optional[Mapping[Variable, float]] = None,
        quadratic: Optional[Mapping[Tuple[Variable, Variable], float]] = None,
        offset: float = 0.0,
        vartype: Union[str, Vartype] = BINARY,
    ) -> None:
        self._vartype = as_vartype(vartype)
        self._linear: Dict[Variable, float] = {}
        self._adj: Dict[Variable, Dict[Variable, float]] = {}
        self._offset = float(offset)
        if linear:
            for v, bias in linear.items():
                self.add_variable(v, bias)
        if quadratic:
            for (u, v), coupling in quadratic.items():
                self.add_interaction(u, v, coupling)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def vartype(self) -> Vartype:
        return self._vartype

    @property
    def offset(self) -> float:
        return self._offset

    @offset.setter
    def offset(self, value: float) -> None:
        self._offset = float(value)

    @property
    def variables(self) -> List[Variable]:
        """Variables in insertion order."""
        return list(self._linear)

    @property
    def num_variables(self) -> int:
        return len(self._linear)

    @property
    def num_interactions(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def linear(self) -> Dict[Variable, float]:
        """A copy of the linear biases."""
        return dict(self._linear)

    @property
    def quadratic(self) -> Dict[Tuple[Variable, Variable], float]:
        """A copy of the couplings, one entry per unordered pair."""
        seen = set()
        out: Dict[Tuple[Variable, Variable], float] = {}
        for u, nbrs in self._adj.items():
            for v, coupling in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out[(u, v)] = coupling
        return out

    def __contains__(self, v: Variable) -> bool:
        return v in self._linear

    def __len__(self) -> int:
        return len(self._linear)

    def __repr__(self) -> str:
        return (
            f"BinaryQuadraticModel({self.num_variables} variables, "
            f"{self.num_interactions} interactions, {self._vartype.name})"
        )

    def degree(self, v: Variable) -> int:
        self._check_variable(v)
        return len(self._adj.get(v, ()))

    def adjacency(self, v: Variable) -> Dict[Variable, float]:
        """Neighbours of *v* with their couplings (a copy)."""
        self._check_variable(v)
        return dict(self._adj.get(v, {}))

    def _check_variable(self, v: Variable) -> None:
        if v not in self._linear:
            raise KeyError(f"unknown variable: {v!r}")

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add_variable(self, v: Variable, bias: float = 0.0) -> None:
        """Add *v* (idempotent) and accumulate *bias* onto its linear term."""
        self._linear[v] = self._linear.get(v, 0.0) + float(bias)
        self._adj.setdefault(v, {})

    def set_linear(self, v: Variable, bias: float) -> None:
        """Overwrite the linear bias of *v*, creating it if needed."""
        self._linear[v] = float(bias)
        self._adj.setdefault(v, {})

    def add_interaction(self, u: Variable, v: Variable, coupling: float) -> None:
        """Accumulate *coupling* onto the edge ``{u, v}`` (u ≠ v)."""
        if u == v:
            raise ValueError(f"self-loop on {u!r}; use add_variable for linear terms")
        self.add_variable(u)
        self.add_variable(v)
        new = self._adj[u].get(v, 0.0) + float(coupling)
        self._adj[u][v] = new
        self._adj[v][u] = new

    def get_linear(self, v: Variable) -> float:
        self._check_variable(v)
        return self._linear[v]

    def get_quadratic(self, u: Variable, v: Variable, default: float = 0.0) -> float:
        self._check_variable(u)
        self._check_variable(v)
        return self._adj.get(u, {}).get(v, default)

    def remove_variable(self, v: Variable) -> None:
        """Delete *v* and all incident couplings."""
        self._check_variable(v)
        for u in list(self._adj.get(v, ())):
            del self._adj[u][v]
        self._adj.pop(v, None)
        del self._linear[v]

    def copy(self) -> "BinaryQuadraticModel":
        clone = BinaryQuadraticModel(vartype=self._vartype, offset=self._offset)
        clone._linear = dict(self._linear)
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return clone

    def relabel_variables(
        self, mapping: Mapping[Variable, Variable]
    ) -> "BinaryQuadraticModel":
        """Return a copy with variables renamed through *mapping*.

        Variables absent from *mapping* keep their labels; the final label
        set must be collision-free.
        """
        new_labels = [mapping.get(v, v) for v in self._linear]
        if len(set(new_labels)) != len(new_labels):
            raise ValueError("relabelling would merge distinct variables")
        out = BinaryQuadraticModel(vartype=self._vartype, offset=self._offset)
        for v, bias in self._linear.items():
            out.add_variable(mapping.get(v, v), bias)
        for (u, v), coupling in self.quadratic.items():
            out.add_interaction(mapping.get(u, u), mapping.get(v, v), coupling)
        return out

    def fix_variable(self, v: Variable, value: int) -> None:
        """Assign *v* in place, folding its terms into neighbours/offset."""
        self._check_variable(v)
        lo, hi = self._vartype.values
        if value not in (lo, hi):
            raise ValueError(f"value for {self._vartype.name} variable must be {lo} or {hi}")
        self._offset += self._linear[v] * value
        for u, coupling in list(self._adj.get(v, {}).items()):
            self._linear[u] += coupling * value
        self.remove_variable(v)

    # ------------------------------------------------------------------ #
    # vartype conversion & energies
    # ------------------------------------------------------------------ #

    def change_vartype(self, vartype: Union[str, Vartype]) -> "BinaryQuadraticModel":
        """Return an equivalent model in the requested vartype.

        Energies are preserved for every state under the bijection
        ``s = 2x - 1``.
        """
        vartype = as_vartype(vartype)
        if vartype is self._vartype:
            return self.copy()
        order = self.variables
        index = {v: i for i, v in enumerate(order)}
        if self._vartype is BINARY:
            q = {(index[v], index[v]): b for v, b in self._linear.items()}
            for (u, v), coupling in self.quadratic.items():
                q[(index[u], index[v])] = coupling
            h, j, off = qubo_to_ising(q, self._offset)
            out = BinaryQuadraticModel(vartype=SPIN, offset=off)
            for v in order:
                out.add_variable(v, h.get(index[v], 0.0))
            for (a, b), coupling in j.items():
                out.add_interaction(order[a], order[b], coupling)
            return out
        h = {index[v]: b for v, b in self._linear.items()}
        j = {(index[u], index[v]): c for (u, v), c in self.quadratic.items()}
        q, off = ising_to_qubo(h, j, self._offset)
        out = BinaryQuadraticModel(vartype=BINARY, offset=off)
        for v in order:
            out.add_variable(v, q.get((index[v], index[v]), 0.0))
        for (a, b), coupling in q.items():
            if a != b:
                out.add_interaction(order[a], order[b], coupling)
        return out

    def to_qubo_model(self) -> Tuple[QuboModel, List[Variable]]:
        """Lower to an index-based :class:`QuboModel`.

        Returns ``(model, order)`` where ``order[i]`` is the label of
        variable ``i``. SPIN models are converted to BINARY first.
        """
        bqm = self if self._vartype is BINARY else self.change_vartype(BINARY)
        order = bqm.variables
        index = {v: i for i, v in enumerate(order)}
        model = QuboModel(len(order), offset=bqm._offset)
        for v, bias in bqm._linear.items():
            if bias != 0.0:
                model.set_linear(index[v], bias)
        for (u, v), coupling in bqm.quadratic.items():
            if coupling != 0.0:
                model.set_quadratic(index[u], index[v], coupling)
        return model, order

    @classmethod
    def from_qubo_model(
        cls, model: QuboModel, labels: Optional[Iterable[Variable]] = None
    ) -> "BinaryQuadraticModel":
        """Lift an index-based model into a labelled BINARY BQM."""
        order = list(labels) if labels is not None else list(range(model.num_variables))
        if len(order) != model.num_variables:
            raise ValueError(
                f"got {len(order)} labels for {model.num_variables} variables"
            )
        out = cls(vartype=BINARY, offset=model.offset)
        for v in order:
            out.add_variable(v)
        for i, j, value in model.iter_coefficients():
            if i == j:
                out.add_variable(order[i], value)
            else:
                out.add_interaction(order[i], order[j], value)
        return out

    @classmethod
    def from_ising(
        cls,
        h: Mapping[Variable, float],
        j: Mapping[Tuple[Variable, Variable], float],
        offset: float = 0.0,
    ) -> "BinaryQuadraticModel":
        """Build a SPIN model from Ising fields and couplings."""
        out = cls(vartype=SPIN, offset=offset)
        for v, bias in h.items():
            out.add_variable(v, bias)
        for (u, v), coupling in j.items():
            out.add_interaction(u, v, coupling)
        return out

    def energy(self, sample: Mapping[Variable, int]) -> float:
        """Energy of one labelled sample."""
        e = self._offset
        for v, bias in self._linear.items():
            e += bias * sample[v]
        for (u, v), coupling in self.quadratic.items():
            e += coupling * sample[u] * sample[v]
        return float(e)

    def energies(
        self, states: np.ndarray, order: Optional[List[Variable]] = None
    ) -> np.ndarray:
        """Vectorized energies for ``(R, n)`` states in *order* column order."""
        order = order if order is not None else self.variables
        index = {v: i for i, v in enumerate(order)}
        if set(index) != set(self._linear):
            raise ValueError("order must cover exactly the model's variables")
        x = np.asarray(states, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        energies = np.full(x.shape[0], self._offset, dtype=np.float64)
        for v, bias in self._linear.items():
            if bias:
                energies += bias * x[:, index[v]]
        for (u, v), coupling in self.quadratic.items():
            if coupling:
                energies += coupling * x[:, index[u]] * x[:, index[v]]
        return energies

    def interaction_graph(self):
        """Coupling graph as a :class:`networkx.Graph` over the labels."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._linear)
        for (u, v), coupling in self.quadratic.items():
            if coupling != 0.0:
                g.add_edge(u, v)
        return g
