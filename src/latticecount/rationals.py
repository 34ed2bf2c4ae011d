"""The text format of exact integers and rationals.

Shapes keep their input as fractions.Fraction (lowest terms, positive
denominator); each count scales its shape's points by the lcm of their
denominators and runs on Python's unbounded ints (a poly request scales
its vertices twice: to validate, then to count).  No floating point is used.

Division is floor-style throughout: the remainder of n mod d lies in
[0, d) for d > 0, which is what Python's // and % already do.
"""

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+\.\d+|\d+/\d+|\d+)\Z")


def parse_rational(text):
    """Parse "p/q", "p" or "d.ddd" (optional sign) into an exact Fraction.

    Decimal strings stay exact: "3.5" -> 7/2.  Anything else, including
    a zero denominator, raises ValueError naming the offending token.
    """
    token = text.strip()
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"malformed rational {token!r}")
    if "/" in token:
        num, den = map(int, token.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(num, den)
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
