"""Model composition: the algebra of QUBOs.

Conjunction of soft constraints is addition of their objectives; these
helpers implement the operations the weighted optimizer and the refinement
loop need: add, scale, relabel, and fix (partial-assign) variables.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.qubo.model import QuboModel

__all__ = [
    "add_models",
    "scale_model",
    "relabel_variables",
    "fix_variables",
    "expand_states",
]


def add_models(a: QuboModel, b: QuboModel) -> QuboModel:
    """Sum of two QUBOs over the same variable set.

    The result's energy is ``E_a(x) + E_b(x)`` for every state ``x``. Models
    must have the same number of variables; use :func:`relabel_variables`
    first to align differently-indexed models.
    """
    if a.num_variables != b.num_variables:
        raise ValueError(
            f"cannot add models with {a.num_variables} and "
            f"{b.num_variables} variables; relabel onto a common index space first"
        )
    out = a.copy()
    out.offset = a.offset + b.offset
    for i, j, value in b.iter_coefficients():
        if i == j:
            out.add_linear(i, value)
        else:
            out.add_quadratic(i, j, value)
    return out


def scale_model(model: QuboModel, factor: float) -> QuboModel:
    """Multiply every coefficient and the offset by *factor*.

    Scaling by a positive factor preserves the argmin; by a negative factor
    it flips minimization into maximization (rarely what you want — a
    ``ValueError`` guards against an accidental sign flip; pass
    ``allow_negative=True``-style semantics by scaling twice if truly
    needed).
    """
    if factor < 0:
        raise ValueError(
            "negative scale factor would flip minimization into maximization"
        )
    out = QuboModel(model.num_variables, offset=model.offset * factor)
    for i, j, value in model.iter_coefficients():
        if i == j:
            out.set_linear(i, value * factor)
        else:
            out.set_quadratic(i, j, value * factor)
    return out


def relabel_variables(
    model: QuboModel, mapping: Mapping[int, int], num_variables: int
) -> QuboModel:
    """Re-index a model's variables into a (possibly larger) index space.

    Parameters
    ----------
    mapping:
        Injective old-index → new-index map; every variable of *model* must
        be present.
    num_variables:
        Size of the target index space.
    """
    targets = set()
    for old in range(model.num_variables):
        if old not in mapping:
            raise KeyError(f"mapping is missing variable {old}")
        new = mapping[old]
        if not (0 <= new < num_variables):
            raise ValueError(f"target index {new} out of range [0, {num_variables})")
        if new in targets:
            raise ValueError(f"mapping is not injective: {new} used twice")
        targets.add(new)
    out = QuboModel(num_variables, offset=model.offset)
    for i, j, value in model.iter_coefficients():
        ni, nj = mapping[i], mapping[j]
        if ni == nj:
            out.add_linear(ni, value)
        else:
            out.add_quadratic(ni, nj, value)
    return out


def fix_variables(
    model: QuboModel, assignment: Mapping[int, int]
) -> Tuple[QuboModel, Dict[int, int]]:
    """Partially assign variables, producing a reduced model.

    Fixed variables are removed; their contributions fold into the linear
    terms and offset of the survivors. Returns ``(reduced_model,
    new_index_by_old_index)`` for the surviving variables.
    """
    for var, value in assignment.items():
        if not (0 <= var < model.num_variables):
            raise IndexError(f"variable {var} out of range")
        if value not in (0, 1):
            raise ValueError(f"assignment for variable {var} must be 0 or 1")
    survivors = [v for v in range(model.num_variables) if v not in assignment]
    new_index = {old: new for new, old in enumerate(survivors)}
    out = QuboModel(len(survivors), offset=model.offset)
    for i, j, value in model.iter_coefficients():
        fi, fj = i in assignment, j in assignment
        if i == j:
            if fi:
                out.offset += value * assignment[i]
            else:
                out.add_linear(new_index[i], value)
        elif fi and fj:
            out.offset += value * assignment[i] * assignment[j]
        elif fi:
            if assignment[i]:
                out.add_linear(new_index[j], value)
        elif fj:
            if assignment[j]:
                out.add_linear(new_index[i], value)
        else:
            out.add_quadratic(new_index[i], new_index[j], value)
    return out, new_index


def expand_states(
    states, assignment: Mapping[int, int], num_variables: int
):
    """Re-insert fixed variables into reduced sample states.

    The inverse of :func:`fix_variables`'s column removal: given ``(R, m)``
    states over the reduced index space (survivors in ascending original
    order, matching ``fix_variables``'s ``new_index``), returns ``(R, n)``
    states over the original space with every fixed variable's column set
    to its assigned value. Because the fold in :func:`fix_variables` is
    exact, the reduced energies *are* the full-model energies of the
    expanded states.
    """
    import numpy as np

    states = np.atleast_2d(np.asarray(states, dtype=np.int8))
    survivors = [v for v in range(num_variables) if v not in assignment]
    if states.shape[1] != len(survivors):
        raise ValueError(
            f"states have {states.shape[1]} columns but {len(survivors)} "
            f"variables survive the assignment"
        )
    out = np.empty((states.shape[0], num_variables), dtype=np.int8)
    out[:, survivors] = states
    for var, value in assignment.items():
        if not (0 <= var < num_variables):
            raise IndexError(f"variable {var} out of range")
        out[:, var] = value
    return out
