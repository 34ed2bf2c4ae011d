"""Exact integer and rational arithmetic primitives.

Everything in this package runs on Python's unbounded ints and on
fractions.Fraction (always stored in lowest terms with a positive
denominator).  No floating point is used anywhere.

Division is floor-style throughout: the remainder of n mod d lies in
[0, d) for d > 0, which is what Python's // and % already do.
"""

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+\.\d+|\d+/\d+|\d+)\Z")


def egcd(a, b):
    """Extended Euclid: return (g, u, v) with g = gcd(a, b) > 0 and a*u + b*v = g.

    Both inputs zero is rejected; negative inputs are fine.
    """
    if a == 0 and b == 0:
        raise ValueError("egcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    # Bezout identity must hold exactly on every call.
    assert a * old_u + b * old_v == old_r
    return old_r, old_u, old_v


def parse_rational(text):
    """Parse "p/q", "p" or "d.ddd" (optional sign) into an exact Fraction.

    Decimal strings stay exact: "3.5" -> 7/2.  Anything else, including
    a zero denominator, raises ValueError naming the offending token.
    """
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(token)


def parse_int(text):
    """Parse a (possibly signed) decimal integer, rejecting anything else."""
    token = text.strip()
    if not re.fullmatch(r"[+-]?\d+", token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def format_rational(x):
    """Render a Fraction as "p/q" in lowest terms, or "p" when q == 1."""
    return str(Fraction(x))
