from fractions import Fraction

import pytest

from latticecount.rationals import format_rational, parse_int, parse_rational


def test_parse_rational():
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("3.5") == Fraction(7, 2)
    assert parse_rational("35/10") == Fraction(7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational("3") == 3
    assert parse_rational("-0.25") == Fraction(-1, 4)


@pytest.mark.parametrize("bad", ["1/0", "abc", "3.", ".5", "1e5", "", "1//2", "1 /2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_int():
    assert parse_int("46") == 46
    assert parse_int("-5") == -5
    with pytest.raises(ValueError):
        parse_int("3.5")


def test_format_rational():
    assert format_rational(Fraction(7, 2)) == "7/2"
    assert format_rational(Fraction(6, 2)) == "3"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_fraction_normalization_is_structural():
    x = Fraction(35, 10)
    assert x.denominator == 2 and x.numerator == 7
    assert Fraction(1, -2).denominator == 2  # denominator always positive
    assert Fraction(35, 10) == Fraction(7, 2)
