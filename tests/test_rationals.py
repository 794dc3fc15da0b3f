from enum import IntEnum
from fractions import _RATIONAL_FORMAT, Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmct.rationals import MAX_EXPONENT, as_rational, common_denominator, rational_str


def test_parses_fraction_strings():
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational("-7/3") == Fraction(-7, 3)
    assert as_rational("4") == 4


def test_parses_decimal_strings_exactly():
    assert as_rational("1.5") == Fraction(3, 2)
    assert as_rational("0.1") == Fraction(1, 10)


def test_accepts_int_and_fraction():
    assert as_rational(7) == Fraction(7)
    assert as_rational(Fraction(2, 6)) == Fraction(1, 3)
    # An int subclass other than bool is read as its value.
    two = IntEnum("Small", "ONE TWO").TWO
    assert type(as_rational(two)) is Fraction and as_rational(two) == 2


def test_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(1.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_rejects_garbage_strings():
    with pytest.raises(ValueError):
        as_rational("three halves")
    with pytest.raises(ValueError):
        as_rational("1/0")
    # An exponent with more digits than int() parses is rejected unread.
    with pytest.raises(ValueError, match=f"exceeds {MAX_EXPONENT} in magnitude$"):
        as_rational("1e" + "9" * 5000)


# Pieces of integer-like literals: signs, whitespace, leading zeros,
# underscores, non-ASCII digits (Arabic-Indic three, superscript two),
# decimal points, slashes and exponents.
literal_st = st.one_of(
    st.integers().map(str),
    st.lists(
        st.sampled_from(
            ["-", "+", " ", "\t", "0", "00", "7", "12", "_", ".", "/", "e", "\u0663", "\u00b2"]
        ),
        max_size=8,
    ).map("".join),
    st.text(max_size=6),
)


@given(literal_st)
@example("1e4300")
@example("-1E-4_301")
@example("\u0663e\u0664\u0663\u0660\u0661 ")
def test_integer_fast_path_agrees_with_fraction(text):
    # The exponent as Fraction reads it.  Above the bound, Fraction would
    # compute 10**exponent (for "7e121212121212", without end), so the
    # reference expects ValueError instead.  The examples stay small
    # enough that Fraction still returns if the bound is ever dropped.
    match = _RATIONAL_FORMAT.match(text)
    if match and match["exp"] and abs(int(match["exp"])) > MAX_EXPONENT:
        with pytest.raises(ValueError):
            as_rational(text)
        return
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            as_rational(text)
        return
    value = as_rational(text)
    assert type(value) is Fraction
    assert value == expected


def test_rational_str_forms():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-3, 2)) == "-3/2"
    assert rational_str(Fraction(4)) == "4"
    assert rational_str(Fraction(0)) == "0"


def test_str_round_trip():
    for value in [Fraction(3, 2), Fraction(-1, 7), Fraction(0), Fraction(12)]:
        assert as_rational(rational_str(value)) == value


fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(fractions_st, fractions_st)
def test_add_subtract_round_trip(a, b):
    assert (a + b) - b == a


@given(fractions_st)
def test_canonical_form(a):
    import math

    assert a.denominator > 0
    assert math.gcd(abs(a.numerator), a.denominator) == 1


def test_common_denominator():
    assert common_denominator([Fraction(1, 2), Fraction(2, 3)]) == 6
    assert common_denominator([Fraction(5)]) == 1
    assert common_denominator([]) == 1
