"""Exact rational values and their text representation.

All numeric quantities in the solver (capacities, transit times, costs,
balances, flow rates, horizons) are exact rationals backed by
:class:`fractions.Fraction`.  Floats are rejected at every parsing
boundary so that the tightness tests downstream (dual constraints,
cheapest-path membership) can compare for equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

Rational = Fraction


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert an exact input to a Fraction.

    Accepts integers, Fractions, and strings in fraction ("3/2") or
    decimal ("1.5") form.  Floats are rejected: binary floats are not
    exact representations of the decimal literals users write.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Integer literals, almost every value of a generated instance,
        # skip the Fraction constructor's regular expression.
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return Fraction(int(value))
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid rational literal: {value!r}") from exc
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def rational_str(value: Fraction) -> str:
    """Canonical text form: "3/2" for non-integers, "3" for integers."""
    return str(value)


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values`` (>= 1)."""
    lcm = 1
    for v in values:
        lcm = math.lcm(lcm, v.denominator)
    return lcm
