from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscillax.errors import MalformedNumber, ZeroDenominator
from oscillax.rational import coerce_rational, format_rational, parse_rational


def test_decimal_is_exact():
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("2.50") == Fraction(5, 2)
    assert parse_rational("-0.125") == Fraction(-1, 8)
    assert parse_rational(".5") == Fraction(1, 2)


def test_integer_and_ratio():
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("  10/4 ") == Fraction(5, 2)


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_rational("3/0")


@pytest.mark.parametrize("bad", ["", "abc", "1e5", "1.2.3", "1/2/3", "nan", "2/-3", "0x1"])
def test_malformed(bad):
    with pytest.raises(MalformedNumber):
        parse_rational(bad)


def test_floats_rejected():
    with pytest.raises(MalformedNumber):
        coerce_rational(0.1)
    with pytest.raises(MalformedNumber):
        coerce_rational(True)


def test_format_canonical():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


@pytest.mark.parametrize("bad", [0.1, True, "abc"])
def test_format_refuses_what_the_readers_refuse(bad):
    # a float, a bool and malformed text, each read by coerce_rational
    with pytest.raises(MalformedNumber):
        format_rational(bad)


def test_format_reads_ints_and_text_by_the_grammar():
    assert format_rational(6) == "6"
    assert format_rational(" 4/6 ") == "2/3"
    assert format_rational("0.25") == "1/4"


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_format_parse_roundtrip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value
