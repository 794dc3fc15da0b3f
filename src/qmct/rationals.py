"""Exact rational values and their text representation.

All numeric quantities at the solver's interface (capacities, transit
times, costs, balances, flow rates, horizons) are exact rationals backed
by :class:`fractions.Fraction`; floats are rejected so that tightness
tests (dual constraints, cheapest-path membership) compare for equality.
:func:`to_integers` scales a network's values once, in its one builder
``Network.of_columns``; every stage runs on those integers at the
network's scales, and ``Fraction``s are made again only where a value
leaves the solver.  ``generate`` also scales the balances it draws.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

# ``Fraction("1e99999999999")`` computes ``10**99999999999`` for minutes.
# Exponents are bounded by Python's default limit on the digits of an int
# parsed from text, which ``Fraction`` already applies to mantissas.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _exponent_too_large(text: str) -> bool:
    match = _EXPONENT.search(text)
    try:  # int() reads signs, underscores and non-ASCII digits as Fraction does
        return match is not None and abs(int(match[1])) > MAX_EXPONENT
    except ValueError:  # more digits than int() parses
        return True


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert an exact input to a Fraction.

    Accepts integers, Fractions, and strings in fraction ("3/2") or
    decimal ("1.5") form.  Floats are rejected: binary floats are not
    exact representations of the decimal literals users write.
    """
    if isinstance(value, str):
        if _exponent_too_large(value):
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid rational literal: {value!r}") from exc
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def rational_str(value: Fraction) -> str:
    """Canonical text form: "3/2" for non-integers, "3" for integers."""
    return str(value)


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values`` (>= 1)."""
    return math.lcm(*{v.denominator for v in values})


def to_integers(values: Iterable[Fraction | None]) -> tuple[int, tuple[int | None, ...]]:
    """``(scale, ints)``: each value times :func:`common_denominator`.

    Every int is exact; ``None`` (an absent bound) passes through.
    """
    values = list(values)
    if {*map(type, values)} <= {int, type(None)}:
        return 1, tuple(values)
    scale = common_denominator(v for v in values if v is not None)
    return scale, tuple(
        None if v is None else v.numerator * (scale // v.denominator) for v in values
    )
