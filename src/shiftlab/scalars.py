"""Exact rational scalars and their base-2 logarithms.

Two numeric lanes run through the whole package:

* the exact lane, `fractions.Fraction` values kept in lowest terms, used
  wherever an identity or inequality must hold with zero tolerance (the
  block-construction audits, golden norm sequences, density ratios);
* the log lane, magnitudes represented by their base-2 logarithm as a
  float64, used for open-ended horizon sweeps where orbit products such as
  2**(2*k) overflow any fixed-width float.

Values cross from the exact lane to the log lane through log2_exact, exact
for powers of two and within about one ulp otherwise; _kernels.Log2Cache
keeps those conversions over an index range.  This module imports no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "Exact",
    "ExactLike",
    "InvalidSpecError",
    "SearchCapExceeded",
    "ZERO_LOG2",
    "exact_from_json",
    "exact_to_json",
    "json_field",
    "log2_exact",
]

# ExactScalar is fractions.Fraction: unbounded signed numerator, positive
# denominator, always canonical (lowest terms, 0 == Fraction(0, 1)).
Exact = Fraction
ExactLike = Union[Fraction, int]

ZERO_LOG2 = float("-inf")  # sentinel log2 of a zero magnitude


class InvalidSpecError(ValueError):
    """Raised for malformed space/weight descriptors."""


class SearchCapExceeded(RuntimeError):
    """The block construction's minimal-parameter search ran past its cap.

    Defined here, beside InvalidSpecError, so that the CLI can catch it
    without loading the block construction; blocks re-exports it.
    """


def exact_to_json(x: ExactLike) -> dict:
    """Wire form: {"num": str, "den": str} with unbounded decimal strings."""
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def exact_from_json(obj: dict) -> Fraction:
    """Inverse of exact_to_json; a malformed value is an InvalidSpecError."""
    try:
        return Fraction(int(obj["num"]), int(obj["den"]))
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        raise InvalidSpecError(
            f'exact scalar must be {{"num": <int>, "den": <nonzero int>}}, got {obj!r}') from None


_JSON_KINDS = {dict: "an object", int: "an integer", str: "a string"}


def json_field(obj, key: str, where: str, kind: type = object):
    """obj[key] of a JSON spec object, checked to be a `kind`.

    A missing field, or one of another type, is an InvalidSpecError naming
    the field; `where` names the object in the message ("weight JSON").
    """
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where} must be an object, got {obj!r}")
    if key not in obj:
        raise InvalidSpecError(f"{where} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind):
        raise InvalidSpecError(f"{where} field {key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(x: ExactLike) -> float:
    """log2|x| for a rational x, accurate to ~1 ulp, -inf for zero.

    Big integers never pass through float conversion directly: the ratio
    is shifted into [1, 2) exactly, converted with Python's correctly
    rounded int/int division (the one Fraction->float uses), and only then
    handed to libm.
    """
    if type(x) is int:  # the general route with den = 1, bitwise; not bool
        if x == 0:
            return ZERO_LOG2
        num = abs(x)
        e = num.bit_length() - 1
        return e + math.log2(num / (1 << e))
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num = abs(x.numerator)
    den = x.denominator
    if num == 0:
        return ZERO_LOG2
    if _is_pow2(num) and _is_pow2(den):
        return float(num.bit_length() - den.bit_length())
    e = num.bit_length() - den.bit_length()
    # mantissa num / den = |x| / 2**e lies in [1/2, 2); normalize to [1, 2)
    if e >= 0:
        den <<= e
    else:
        num <<= -e
    if num < den:
        num <<= 1
        e -= 1
    return e + math.log2(num / den)
