"""Per-vector reference route for the shift operators and their seminorms.

The library decides every criterion from basis orbits: the closed form of
shiftlab.shifts.basis_orbit_norm and the log rows.  This module keeps the
general route those stand in for, on finitely supported vectors held as
{j: Fraction} dicts with no zero entries.  apply steps the coordinate rules
of the shiftlab.shifts docstring one step at a time,

    B e_j = w_j e_{j-1},    B^{-1} e_j = e_{j+1} / w_{j+1},
    F e_j = w_j e_{j+1},    F^{-1} e_j = e_{j-1} / w_{j-1},

reading single weights through WeightSequence.value, so it shares no orbit
code with the closed form the tests compare it against.
"""

from __future__ import annotations

from fractions import Fraction

from shiftlab.shifts import NotInvertibleError


def basis_vector(j: int) -> dict:
    return {j: Fraction(1)}


def _step(op, x: dict, inverse: bool) -> dict:
    """One step of the shift, or of its inverse, on x."""
    w = op.weights
    unilateral = not op.bilateral
    out = {}
    for j, c in x.items():
        if op.direction == "backward" and not inverse:
            if not (unilateral and j == 1):  # B e_1 = 0 on 1, 2, 3, ...
                out[j - 1] = c * w.value(j)
        elif op.direction == "backward":
            if unilateral:
                raise NotInvertibleError("unilateral backward shift has no inverse")
            out[j + 1] = c / w.value(j + 1)
        elif not inverse:
            out[j + 1] = c * w.value(j)
        else:
            if unilateral and j == 1:
                raise NotInvertibleError("e_1 has no preimage under the forward shift")
            out[j - 1] = c / w.value(j - 1)
    return out


def apply(op, x: dict, n: int) -> dict:
    """T^n x, one step at a time; negative n steps the inverse."""
    for _ in range(abs(n)):
        x = _step(op, x, n < 0)
    return x


def seminorm(x: dict, k: int, space):
    """||x||_k, exactly.

    A Fraction for p in {0, 1}, or where at most one term |x_j| a(j, k) is
    nonzero.  Otherwise the pair (sum of the terms to the p, p): the norm is
    its p-th root, which need not be rational.
    """
    terms = [t for t in (abs(c) * space.matrix.entry(j, k) for j, c in x.items()) if t]
    if not terms:
        return Fraction(0)
    if space.p == 0:
        return max(terms)
    if space.p == 1 or len(terms) == 1:
        return sum(terms, Fraction(0))
    return sum(t ** space.p for t in terms), space.p
