"""The text format of exact integers and rationals.

A rational token parses once to its numerator and denominator, and is
reduced once: parse_ratio reduces them to its Ratio, in lowest terms with
the denominator positive, and parse_rational hands them to
fractions.Fraction, which reduces them itself.  Shapes other than
polygons keep their input as Fractions; a polygon keeps only its points scaled to
integers, so a poly request parses, validates and counts with no Fraction
built.  Each count scales its shape's points by the lcm of their
denominators, once, and runs on Python's unbounded ints.  No floating
point is used.

Division is floor-style throughout: the remainder of n mod d lies in
[0, d) for d > 0, which is what Python's // and % already do.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:\.(\d+)|/(\d+))?")
_INT_RE = re.compile(r"[+-]?\d+")

# a rational as the integer pair it parses to: the names are Fraction's, so
# the scaling of points reads a Ratio, a Fraction and an int alike
Ratio = namedtuple("Ratio", ["numerator", "denominator"])


def parse_ratio(text):
    """Parse "p/q", "p" or "d.ddd" (optional sign) into its Ratio, in lowest
    terms with a positive denominator, building no Fraction.

    Decimal strings stay exact: "3.5" -> (7, 2).  Anything else, including
    a zero denominator, raises ValueError naming the offending token.
    """
    num, den = _ratio_terms(text)
    g = gcd(num, den)
    return Ratio(num // g, den // g)


def _ratio_terms(text):
    """The signed numerator and positive denominator a rational token
    writes, not yet reduced, with parse_ratio's error messages."""
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
    return (-num if sign == "-" else num), den


def parse_rational(text):
    """Parse "p/q", "p" or "d.ddd" (optional sign) into an exact Fraction:
    the Fraction of parse_ratio's pair, with its error messages.  The
    Fraction reduces the token's own terms, so the pair is reduced once."""
    return Fraction(*_ratio_terms(text))


def parse_int(text):
    """Parse a (possibly signed) decimal integer, rejecting anything else."""
    token = text.strip()
    if not _INT_RE.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def format_rational(x):
    """Render a Fraction as "p/q" in lowest terms, or "p" when q == 1."""
    return str(Fraction(x))
