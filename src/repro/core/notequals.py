"""Negative constraints: generate a string NOT equal to a target.

Why this needs new machinery: "x differs from t" is a penalty on the
**conjunction** of all ``7n`` bits matching the target — a degree-``7n``
monomial, far beyond quadratic. The standard reduction chains auxiliary
AND variables:

    a_1 = y_1 AND y_2,   a_k = a_{k-1} AND y_{k+1},   ...

where ``y_k`` is the *match literal* of bit k: ``x_k`` when the target bit
is 1, ``1 - x_k`` when it is 0. Every gadget stays **quadratic in x**
because complementing an input of the Rosenberg penalty

    P_and(a; u, v) = 3a + uv - 2au - 2av

only shifts linear terms. The final auxiliary equals 1 exactly when the
whole string matches the target, and a large positive bias on it makes
every non-target string a ground state. A soft printable preference keeps
the generated witness readable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.encoding import encode_string, state_to_string
from repro.core.formulation import FormulationError, StringFormulation
from repro.qubo.model import QuboModel
from repro.utils.asciitab import CHAR_BITS, is_ascii7, random_printable
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["StringNotEquals", "add_and_gadget"]

#: A literal: (variable index, negated?) — value is x or 1 - x.
Literal = Tuple[int, bool]


def add_and_gadget(
    model: QuboModel,
    output: int,
    left: Literal,
    right: Literal,
    strength: float,
) -> None:
    """Accumulate ``strength * P_and(output; left, right)`` into *model*.

    Supports complemented inputs: substituting ``u = 1 - x`` into the
    Rosenberg penalty expands into constants, linear and quadratic terms —
    all still QUBO-expressible. At every zero-penalty state,
    ``output = left AND right``.
    """
    lv, ln = left
    rv, rn = right
    if output in (lv, rv):
        raise FormulationError("AND gadget output must be a fresh variable")
    s = float(strength)
    # 3a
    model.add_linear(output, 3.0 * s)

    # u v  where u = x_l (or 1 - x_l), v = x_r (or 1 - x_r)
    # (x)(y) = xy; (1-x)(y) = y - xy; (x)(1-y) = x - xy; (1-x)(1-y) = 1 - x - y + xy
    if ln and rn:
        model.offset += s
        model.add_linear(lv, -s)
        model.add_linear(rv, -s)
        model.add_quadratic(lv, rv, s)
    elif ln:
        model.add_linear(rv, s)
        model.add_quadratic(lv, rv, -s)
    elif rn:
        model.add_linear(lv, s)
        model.add_quadratic(lv, rv, -s)
    else:
        model.add_quadratic(lv, rv, s)

    # -2 a u: a(1-x) = a - ax
    for var, negated in (left, right):
        if negated:
            model.add_linear(output, -2.0 * s)
            model.add_quadratic(output, var, 2.0 * s)
        else:
            model.add_quadratic(output, var, -2.0 * s)


class StringNotEquals(StringFormulation):
    """Generate a *length*-character string different from *target*.

    Parameters
    ----------
    target:
        The forbidden string.
    mismatch_penalty:
        Bias placed on the final match indicator (default ``4 A``; any
        value above the total soft-bias gain works).
    gadget_strength:
        Rosenberg penalty scale (default ``2 * mismatch_penalty`` so no
        gadget is ever worth violating).
    printable_bias:
        Soft preference (fraction of A) for a random printable template, so
        the witness decodes readably. The template is re-drawn if it
        happens to equal the target.
    """

    name = "not_equals"

    def __init__(
        self,
        target: str,
        penalty_strength: float = 1.0,
        mismatch_penalty: Optional[float] = None,
        gadget_strength: Optional[float] = None,
        printable_bias: float = 0.25,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(penalty_strength)
        if not target:
            raise FormulationError(
                "an empty target is unsatisfiable at length 0; nothing to generate"
            )
        if not is_ascii7(target):
            raise FormulationError(f"target must be 7-bit ASCII: {target!r}")
        if not (0 < printable_bias < 1):
            raise FormulationError(
                f"printable_bias must lie in (0, 1), got {printable_bias}"
            )
        self.target = target
        a = self.penalty_strength
        self.mismatch_penalty = (
            float(mismatch_penalty) if mismatch_penalty is not None else 4.0 * a
        )
        self.gadget_strength = (
            float(gadget_strength)
            if gadget_strength is not None
            else 2.0 * self.mismatch_penalty
        )
        if self.mismatch_penalty <= 0 or self.gadget_strength <= 0:
            raise FormulationError("penalties must be positive")
        self.printable_bias = float(printable_bias)
        self._rng = ensure_rng(seed)
        self._template: Optional[str] = None

    # ------------------------------------------------------------------ #

    @property
    def num_string_bits(self) -> int:
        return CHAR_BITS * len(self.target)

    def template(self) -> str:
        """The soft printable target (guaranteed different from *target*)."""
        if self._template is None:
            while True:
                candidate = random_printable(self._rng, len(self.target))
                if candidate != self.target:
                    self._template = candidate
                    break
        return self._template

    def match_literals(self) -> List[Literal]:
        """Per-bit literals that are 1 exactly when the bit matches target."""
        bits = encode_string(self.target)
        return [(k, not bool(b)) for k, b in enumerate(bits)]

    def _build(self) -> QuboModel:
        n_bits = self.num_string_bits
        literals = self.match_literals()
        num_aux = n_bits - 1
        model = QuboModel(n_bits + num_aux)

        # Soft printable preference on the string bits.
        bias = self.printable_bias * self.penalty_strength
        for k, bit in enumerate(encode_string(self.template())):
            model.add_linear(k, -bias if bit else bias)

        # AND chain over the match literals.
        if n_bits == 1:
            # Single bit: the "conjunction" is the literal itself.
            var, negated = literals[0]
            if negated:
                model.offset += self.mismatch_penalty
                model.add_linear(var, -self.mismatch_penalty)
            else:
                model.add_linear(var, self.mismatch_penalty)
            return model

        aux = n_bits  # first auxiliary variable index
        add_and_gadget(
            model, aux, literals[0], literals[1], self.gadget_strength
        )
        for k in range(2, n_bits):
            nxt = n_bits + k - 1
            add_and_gadget(
                model, nxt, (aux, False), literals[k], self.gadget_strength
            )
            aux = nxt
        # Penalize the full-match indicator.
        model.add_linear(aux, self.mismatch_penalty)
        return model

    # ------------------------------------------------------------------ #

    def decode(self, state: np.ndarray) -> str:
        return state_to_string(np.asarray(state)[: self.num_string_bits])

    def verify(self, decoded: str) -> bool:
        return len(decoded) == len(self.target) and decoded != self.target

    def ground_energy(self) -> Optional[float]:
        # Template differs from target, so every gadget can be satisfied,
        # the match indicator is 0, and all soft biases are collected.
        bias = self.printable_bias * self.penalty_strength
        return -bias * float(encode_string(self.template()).sum())

    def describe(self) -> str:
        return (
            f"StringNotEquals(target={self.target!r}, A={self.penalty_strength}, "
            f"P={self.mismatch_penalty}, gadget={self.gadget_strength})"
        )
