"""The text format of exact integers and rationals.

A rational token parses once to its numerator and denominator, and
parse_ratio reduces them once, to its Ratio: in lowest terms with the
denominator positive.  The CLI parses every rational with parse_ratio,
and every shape holds its points scaled once, at construction, by the
lcm of their denominators to integer points, so a request counts on
Python's unbounded ints with no Fraction built.  This module imports no
fractions: a reader that wants a Fraction builds it from a Ratio, whose
field names are Fraction's.  No floating point is used.

Division is floor-style throughout: the remainder of n mod d lies in
[0, d) for d > 0, which is what Python's // and % already do.
"""

import re
from collections import namedtuple
from math import gcd

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:\.(\d+)|/(\d+))?")
_INT_RE = re.compile(r"[+-]?\d+")


class Ratio(namedtuple("Ratio", ["numerator", "denominator"])):
    """A rational as the integer pair it parses to.  Its field names are
    Fraction's, and str writes it as str(Fraction) does."""

    __slots__ = ()

    def __str__(self):
        return "%s/%s" % self if self.denominator != 1 else str(self.numerator)


def parse_ratio(text):
    """Parse "p/q", "p" or "d.ddd" (optional sign) into its Ratio, in lowest
    terms with a positive denominator, building no Fraction.

    Decimal strings stay exact: "3.5" -> (7, 2).  Anything else, including
    a zero denominator, raises ValueError naming the offending token.
    """
    token = text.strip()
    match = _RATIONAL_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"malformed rational {token!r}")
    sign, whole, decimals, denominator = match.groups()
    num, den = int(whole), 1
    if decimals is not None:
        den = 10 ** len(decimals)
        num = num * den + int(decimals)
    elif denominator is not None:
        den = int(denominator)
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
    g = gcd(num, den)
    return Ratio((-num if sign == "-" else num) // g, den // g)


def parse_int(text):
    """Parse a (possibly signed) decimal integer, rejecting anything else."""
    token = text.strip()
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)

