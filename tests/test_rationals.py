import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import no_digit_limit
from latticecount.rationals import parse_int, parse_ratio


@pytest.mark.parametrize("bad", ["1/0", "abc", "3.", ".5", "1e5", "", "1//2", "1 /2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_ratio(bad)


def test_parse_int():
    assert parse_int("46") == 46
    assert parse_int("-5") == -5
    with pytest.raises(ValueError):
        parse_int("3.5")


def test_fraction_normalization_is_structural():
    x = Fraction(35, 10)
    assert x.denominator == 2 and x.numerator == 7
    assert Fraction(1, -2).denominator == 2  # denominator always positive
    assert Fraction(35, 10) == Fraction(7, 2)


# --- the integer-pair token parser against the Fraction-based one -------------

_FRACTION_TOKEN = re.compile(r"[+-]?(?:\d+\.\d+|\d+/\d+|\d+)\Z")


def _fraction_parse(text):
    """The rational parser as it was before tokens parsed to integer pairs:
    the token's pattern, then Fraction of the token or of its two ints."""
    token = text.strip()
    if not _FRACTION_TOKEN.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    if "/" in token:
        num, den = map(int, token.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(num, den)
    return Fraction(token)


def _outcome(parse, token):
    try:
        return parse(token)
    except ValueError as exc:
        return f"ValueError: {exc}"


_DIGITS = st.text("0123456789", min_size=1, max_size=12)
# more than 4,300 digits, past the interpreter's default int <-> str limit
_LONG_DIGITS = st.builds(lambda head, times, tail: head * times + tail,
                         st.text("0123456789", min_size=1, max_size=3),
                         st.integers(4301, 5000), _DIGITS)
_UNSIGNED = st.one_of(
    _DIGITS,
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}.{}{}".format, _DIGITS, _DIGITS, st.text("0", max_size=4)),
    _LONG_DIGITS,
    st.builds("{}/{}".format, _LONG_DIGITS, _DIGITS),
    st.builds("{}/{}".format, _DIGITS, _LONG_DIGITS),
    st.builds("{}.{}".format, _DIGITS, _LONG_DIGITS),
    st.sampled_from(["0", "0.0", "000", "0/0", "5/0", "00/000", "0.000"]),
)
_TOKENS = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["", "", "+", "-"]), _UNSIGNED,
              st.sampled_from(["", "", " ", "\t"])),
    st.text(max_size=8),  # mostly malformed
    st.builds("{}{}{}".format, _DIGITS, st.sampled_from([".", "/", "//", "e", "/-", "_", " /"]),
              st.text("0123456789", max_size=3)),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_TOKENS)
def test_parse_ratio_agrees_with_the_fraction_parser(token):
    """Every accepted token parses to the reduced pair of the Fraction the
    old parser made (signs, leading zeros, unreduced p/q, trailing zeros,
    -0 and tokens past 4,300 digits among them); every rejected one raises
    the same message from parse_ratio."""
    with no_digit_limit():
        expected = _outcome(_fraction_parse, token)
        pair = _outcome(parse_ratio, token)
    if isinstance(expected, str):
        assert pair == expected
    else:
        num, den = pair
        assert (type(num), type(den)) == (int, int)
        assert den > 0 and gcd(num, den) == 1
        assert (pair.numerator, pair.denominator) == (num, den)
        assert Fraction(*pair) == expected


@pytest.mark.parametrize("token, pair", [
    ("-0", (0, 1)), ("-0.0", (0, 1)), ("+007/014", (1, 2)), ("-2.50", (-5, 2)),
    ("35/10", (7, 2)), ("3", (3, 1)), (" -12/8 ", (-3, 2)),
])
def test_parse_ratio_examples(token, pair):
    assert parse_ratio(token) == pair


def test_parse_rational_reduces_each_token_once(monkeypatch):
    """parse_ratio reduces the token's own terms with one gcd per token."""
    from latticecount import rationals

    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(rationals, "gcd", counting_gcd)
    for token, value in (("-12/8", (-3, 2)), ("2.50", (5, 2)), ("7", (7, 1))):
        assert parse_ratio(token) == value
    assert calls == [(12, 8), (250, 100), (7, 1)]
