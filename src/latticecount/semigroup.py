"""Two-generator numerical semigroups <a, b> and their invariants.

For coprime positive generators a, b the semigroup is the set of all
non-negative integer combinations x*a + y*b.  A TwoGenSemigroup holds a
and b alone; every invariant is read off them by a classical closed form:

    frobenius = a*b - a - b            (largest gap; -1 when a or b is 1)
    genus     = (a - 1)(b - 1) / 2     (number of gaps)
    Ap(S, a)  = {0, b, 2b, ..., (a-1)b}

plus Popoviciu's formula for the denumerant (the number of representations
of c as x*a + y*b with x, y >= 0), which lives in the kernel.
"""

from collections import namedtuple
from math import gcd

from .kernel import _replace_fields, denumerant, floor_sum


class TwoGenSemigroup(namedtuple("TwoGenSemigroup", ["a", "b"])):
    """The semigroup <a, b>, held as its generators; frobenius and genus
    are read off them."""

    __slots__ = ()

    def __new__(cls, a, b):
        if a < 1 or b < 1:
            raise ValueError(f"generators must be >= 1, got ({a}, {b})")
        if gcd(a, b) != 1:
            raise ValueError(f"generators must be coprime, got ({a}, {b})")
        return super().__new__(cls, a, b)

    _make = classmethod(lambda cls, fields: cls(*fields))
    _replace = _replace_fields  # through _make, so through __new__'s checks
    frobenius = property(lambda self: self.a * self.b - self.a - self.b)
    genus = property(lambda self: (self.a - 1) * (self.b - 1) // 2)

    def apery(self, s):
        """Apery set with respect to a generator s, as a list indexed by
        residue: entry i is the least semigroup element congruent to i mod s."""
        if s == self.a:
            other = self.b
        elif s == self.b:
            other = self.a
        else:
            raise ValueError(f"{s} is not a generator of <{self.a}, {self.b}>")
        out = [0] * s
        for i in range(s):
            out[(i * other) % s] = i * other
        return out

    def contains(self, n):
        """True iff n = x*a + y*b for some x, y >= 0: its denumerant is at
        least one."""
        return self.denumerant(n) > 0

    __contains__ = contains

    def gaps(self):
        """All non-negative integers not in the semigroup, sorted ascending."""
        out = []
        for w in self.apery(self.a):
            out.extend(range(w % self.a, w, self.a))
        return sorted(out)

    def count_upto(self, c):
        """Number of semigroup elements in [0, c].

        Each class mod a contributes its Apery element i*b and the elements
        i*b + a, i*b + 2a, ... up to c, so the count is
        sum_{i < n} ((c - i*b)//a + 1) with n = min(a, c//b + 1): one
        floor_sum.
        """
        if c < 0:
            return 0
        a, b = self.a, self.b
        n = min(a, c // b + 1)
        return n + floor_sum(n, a, -b, c)

    def denumerant(self, c):
        """Number of pairs (x, y) with x, y >= 0 and x*a + y*b = c."""
        return denumerant(self.a, self.b, c)

