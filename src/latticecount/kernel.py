"""The integer kernel under every count; it imports nothing from the package.

The quadrant count #{(x, y) in Z^2, x, y >= 0 : a*x + b*y <= c}, for
coprime positive a, b, splits the triangle into vertical strips of width
max(a, b) and counts each strip through the semigroup <a, b>: full strips
have the closed-form size (a + b + 1 - (1 + 2i)*a*b)/2 + c, summed over
all k full strips at once by full_strips, and the last partial strip is
the Apery-set sum of floors.  That sum is one floor_sum, the Euclid-like
reduction of sum_{i<n} floor((a*i + b)/m), so a count costs
O(log min(a, b)) arithmetic steps on integers of the input's size.  The
points on the line a*x + b*y = c are Popoviciu's denumerant of c.
"""

from collections import namedtuple
from math import gcd


def _replace_fields(self, /, **changes):
    """The _replace of the shapes and TwoGenSemigroup: the named tuple with
    the changed fields, rebuilt through the class's _make, so through its
    checks.  A name that is not a field raises ValueError on every
    interpreter, where namedtuple's own _replace raises TypeError from
    Python 3.13 on."""
    unknown = [name for name in changes if name not in self._fields]
    if unknown:
        raise ValueError(f"got unexpected field names: {unknown!r}")
    return self._make(map(changes.get, self._fields, self))


def _check_generators(a, b, c):
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)):
        raise ValueError(f"arguments must be integers, got ({a!r}, {b!r}, {c!r})")
    if a < 1 or b < 1:
        raise ValueError(f"coefficients must be positive integers, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"coefficients must be coprime, got ({a}, {b})")


def floor_sum(n, m, a, b):
    """sum_{0 <= i < n} floor((a*i + b) / m) for n >= 0 and m >= 1.

    The Euclid-like reduction behind reciprocity for Dedekind sums (Beck
    and Robins, Computing the Continuous Discretely, ch. 8): split off the
    integer parts a//m and b//m in closed form, then count the remaining
    lattice points under the line with the axes swapped, which replaces
    (m, a) by (a, m mod a).  The loop runs O(log m) times; a and b may be
    any integers.
    """
    if n < 0 or m < 1:
        raise ValueError(f"floor_sum needs n >= 0 and m >= 1, got n={n}, m={m}")
    total = 0
    while True:
        if not 0 <= a < m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _floor_sums2(n, m, a, b):
    """(sum u_i, sum i*u_i, sum u_i**2) over 0 <= i < n, where
    u_i = floor((a*i + b) / m), for n >= 0 and m >= 1.

    The second-order companion of floor_sum, by the same Euclid-like
    reduction (Beck and Robins, ch. 8).  Each step splits off the integer
    parts a//m and b//m, then swaps the axes: with k the largest
    remaining u_i and t_j = floor((m*j + m - b - 1)/a), u_i > j
    holds exactly when i > t_j, so the three sums over i follow from the
    same three sums over t_j, 0 <= j < k, with (m, a) replaced by
    (a, m mod a).  The steps are recorded going down and combined coming
    back, in a list rather than on the call stack, so a long Euclid chain
    cannot exhaust the recursion limit.
    """
    if n == 0:
        return 0, 0, 0
    steps = []
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        k = (a * (n - 1) + b) // m
        steps.append((n, qa, qb, k))
        if k == 0:
            break
        n, m, a, b = k, a, m, m - b - 1
    f = g = h = 0  # the sums over t_j of the step below
    for n, qa, qb, k in reversed(steps):
        # each t_j*(t_j + 1) is even, so h + f is
        f, g, h = (k * (n - 1) - f, k * n * (n - 1) // 2 - (h + f) // 2,
                   (n - 1) * k * k - 2 * g - f)
        s1 = n * (n - 1) // 2
        s2 = s1 * (2 * n - 1) // 3
        f, g, h = (f + qa * s1 + qb * n, g + qa * s2 + qb * s1,
                   h + qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n + 2 * qa * g + 2 * qb * f)
    return f, g, h


def full_strips(a, b, k, c):
    """Lattice points of a*x + b*y <= c, x, y >= 0, in the first k vertical
    strips of width max(a, b): the sum over i < k of the closed-form strip
    size (a + b + 1 - (1 + 2i)*a*b)/2 + c, for coprime a, b."""
    return k * (a + b + 1 + 2 * c - a * b * k) // 2


def quadrant_count(a, b, c):
    """Count (x, y) in Z^2 with x, y >= 0 and a*x + b*y <= c.

    Requires a, b >= 1 coprime; c may be any integer (c < 0 gives 0).
    With b the larger coefficient and c = k*a*b + r, 0 <= r < a*b, the
    count is the k full strips in closed form plus the partial strip,
    sum_{i <= r//b} ((r - i*b)//a + 1), which is one floor_sum.
    """
    _check_generators(a, b, c)
    if c < 0:
        return 0
    if a > b:
        a, b = b, a
    k, r = divmod(c, a * b)
    n = r // b + 1
    return full_strips(a, b, k, c) + n + floor_sum(n, a, b, r % b)


class BlockTrace(namedtuple("BlockTrace", ["k", "block_counts", "tail_terms"])):
    """Vertical-strip decomposition of a quadrant triangle.

    block_counts[i] is the number of lattice points with
    i*b <= x < (i+1)*b (b the larger coefficient); the last block is the
    partial strip and tail_terms holds its per-column summands.
    """

    __slots__ = ()


def quadrant_blocks(a, b, c):
    """Block decomposition of the quadrant count; empty for c < 0."""
    _check_generators(a, b, c)
    if c < 0:
        return BlockTrace(0, (), ())
    if a > b:
        a, b = b, a
    k = c // (a * b)
    # full_strips(a, b, i + 1, c) - full_strips(a, b, i, c) falls by a*b per block
    first = full_strips(a, b, 1, c)
    blocks = list(range(first, first - a * b * k, -a * b))
    r = c - k * a * b
    tail = tuple((r - i * b) // a + 1 for i in range(r // b + 1))
    blocks.append(sum(tail))
    return BlockTrace(k, tuple(blocks), tail)


def _popoviciu_residues(p, q):
    """(modulus, other generator, inverse of the other modulo the modulus)
    for the two residue terms of Popoviciu's formula."""
    return (p, q, pow(q, -1, p)), (q, p, pow(p, -1, q))


def denumerant(a, b, c):
    """Number of pairs (x, y) with x, y >= 0 and x*a + y*b = c, for
    a, b >= 1 coprime, which the caller checks; zero for c < 0.

    Popoviciu's closed form (Beck and Robins, Computing the Continuous
    Discretely, ch. 1): with a' = a^-1 mod b and b' = b^-1 mod a,
    a*b times the count is c + a*b - b*(b'*c mod a) - a*(a'*c mod b).
    The division by a*b is exact: b*(b'*c mod a) = c (mod a) makes the
    numerator a multiple of a, a*(a'*c mod b) = c (mod b) makes it a
    multiple of b, and a, b are coprime.  A generator equal to 1 needs
    no special case: modulo 1 every residue is 0.
    """
    if c < 0:
        return 0
    residues = sum(other * (inv * c % mod) for mod, other, inv in _popoviciu_residues(a, b))
    return (c + a * b - residues) // (a * b)
