"""Stable right tetrahedra and the three-generator denumerant.

The paper counts the tetrahedron x1, x2, x3 >= 0,
a1*x1 + a2*x2 + a3*x3 <= b by slicing along the largest generator s:
slice x3 = i is the planar count p*x + q*y <= b - s*i, a quadrant
triangle.  The generators need not be pairwise coprime: each slice
inequality is divided through by d = gcd(p, q), flooring the bound,
which is exact because p*x + q*y only takes multiples of d.  From here
on p, q denote the coprime pair after that division, Q their quadrant
count and D their denumerant, so Q(c) = sum_{m <= c} D(m).

Two routes give the same count.

Slicing (tetra_slice_counts, shown by tetra --trace).  Slice i has the
bound c_i = (b - s*i)//d; with c = k*p*q + r, 0 <= r < p*q, its count is
a closed form in k plus a value that depends on the residue r alone:

    S(i) = Q(c_i) = (the k full strips of the quadrant count) + Q(r).

The residues are periodic, as Ehrhart theory predicts for the slices of
a rational polytope (Beck and Robins, ch. 3): with
T = d*p*q / gcd(s, d*p*q), slice i + T has the residue of slice i and
K = s*T / (d*p*q) fewer full strips.  The Q(r) cancel, so

    S(i + T) - S(i) = -full_strips(p, q, K, c_i) = -(K*c_i + E),
    E = K*(p + q + 1 - p*q*K)/2,

and that difference grows by K*K*p*q from one period to the next; the
same holds for any multiple of T.  So of the n = b//s + 1 slices, the
kernel runs once per distinct residue of one row, a multiple of T and
at least isqrt(n) wide, and each later row is two element-wise
additions: at most min(T + isqrt(n), p*q) kernel calls, and O(n)
additions made by map rather than by a Python step each.

Closed form (tetra_count, denumerant3).  Popoviciu's formula
(kernel.denumerant), with p' = p^-1 mod q and q' = q^-1 mod p, reads

    p*q*D(m) = m + p*q - q*(q'*m mod p) - p*(p'*m mod q).

Swapping the order of summation over slices and denumerants gives

    T = sum_{m=0}^{b//d} D(m) * (floor((b - d*m)/s) + 1).

Its linear part is a first- and a second-order floor sum; each residue
term is constant on a class of m mod p (mod q), where the weights are
one floor_sum.  So a count costs p + q floor sums of O(log) steps,
whatever b is; tetra_count slices instead when there are fewer slices
than that.  The denumerant of n in <a1, a2, a3> sums D over the slices
whose bound is a multiple of d.  Those bounds form one arithmetic
progression, on which each residue term is (A*j + B) mod p (mod q): two
floor_sum calls in all.
"""

from itertools import repeat
from math import gcd, isqrt
from operator import add, mod

from .kernel import _floor_sums2, _popoviciu_residues, floor_sum, full_strips, quadrant_count

# the most kernel steps a tetra_count may take: min(slices, residue classes)
STEP_LIMIT = 10**6


def _reduce(a1, a2, a3):
    """(p, q, s, d): the two smaller generators divided by their gcd d,
    and the largest generator s."""
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError(f"generators must be >= 1, got ({a1}, {a2}, {a3})")
    p, q, s = sorted((a1, a2, a3))
    d = gcd(p, q)
    return p // d, q // d, s, d


def tetra_slice_counts(a1, a2, a3, b):
    """Per-slice lattice counts, slicing x3' = 0, 1, ... along the largest
    generator; empty for b < 0.

    The slices come in rows of width slices, width the smallest multiple
    of the period that is at least isqrt(slices).  The first row costs one
    kernel call per distinct residue modulo p*q in it; every later row is
    the row above plus a row of differences, which itself grows by a
    constant (module docstring).
    """
    p, q, s, d = _reduce(a1, a2, a3)
    if b < 0:
        return []
    n = b // s + 1
    pq = p * q
    period = d * pq // gcd(s, d * pq)
    width = min(-(-isqrt(n) // period) * period, n)
    bounds = [c // d for c in range(b, b - s * width, -s)]
    tails = dict.fromkeys(map(mod, bounds, repeat(pq)))  # Q(r) by residue r
    for r in tails:
        tails[r] = quadrant_count(p, q, r)
    out = row = [full_strips(p, q, c // pq, c) + tails[c % pq] for c in bounds]
    if width < n:
        k = s * width // (d * pq)  # a slice has k full strips more than the one a row below
        diffs = [-full_strips(p, q, k, c) for c in bounds[:n - width]]  # shorter when one row is left
        grow = repeat(k * k * pq)
        for _ in range((n - 1) // width):
            row = list(map(add, row, diffs))
            out += row
            diffs = list(map(add, diffs, grow))
        del out[n:]
    return out


def tetra_count(a1, a2, a3, b):
    """Integral points in the closed tetrahedron a1*x1 + a2*x2 + a3*x3 <= b,
    xi >= 0.  Any positive generators are accepted; b < 0 gives 0.

    The closed form of the module docstring, or the slice loop when
    b//s + 1 slices cost fewer steps than its p + q residue classes; past
    STEP_LIMIT steps on the cheaper route it raises ValueError.  The
    closed form builds p*q*T from Popoviciu's formula term by term; each
    term is p*q times the integer D(m), so the division by p*q is exact.
    """
    p, q, s, d = _reduce(a1, a2, a3)
    if b < 0:
        return 0
    steps = min(b // s + 1, p + q)
    if steps > STEP_LIMIT:
        raise ValueError(f"tetra_count would take {steps} steps, over the limit of {STEP_LIMIT}")
    if b // s + 1 < p + q:
        return sum(tetra_slice_counts(a1, a2, a3, b))
    return _tetra_closed_form(p, q, s, d, b)


def _tetra_closed_form(p, q, s, d, b):
    """tetra_count for the reduced generators of _reduce and b >= 0."""
    top = b // d  # the largest m with a non-zero weight w(m) = (b - d*m)//s + 1
    n = top + 1
    # with m = top - k, b - d*m = d*k + b % d, so the weights are one floor sum
    f, g, _ = _floor_sums2(n, s, d, b - d * top)
    w_sum = f + n
    mw_sum = top * w_sum - g - n * (n - 1) // 2
    total = mw_sum + p * q * w_sum
    for mod, other, inv in _popoviciu_residues(p, q):
        for r in range(1, mod):  # the class r = 0 has residue term 0
            j = (top - r) // mod + 1  # m = r, r + mod, ... <= top; none for r > top
            total -= other * (inv * r % mod) * (j + floor_sum(j, s, -d * mod, b - d * r))
    return total // (p * q)


def denumerant3(a1, a2, a3, n):
    """Number of triples (x1, x2, x3) of non-negative integers with
    a1*x1 + a2*x2 + a3*x3 = n; zero for n < 0.

    The slices x3 whose remainder n - s*x3 is a multiple of d = gcd(p, q)
    form one residue class modulo d / gcd(s, d), or none when gcd(s, d)
    does not divide n.  Their bounds c_j = c0 - (s/g)*j, j < J, are an
    arithmetic progression, so sum_j p*q*D(c_j) is an arithmetic series
    less, for each residue term, a sum of (A*j + B) mod p, which is
    sum(A*j + B) - p*floor_sum(J, p, A, B).  Each term is p*q times the
    integer D(c_j), so the division by p*q is exact.
    """
    p, q, s, d = _reduce(a1, a2, a3)
    if n < 0:
        return 0
    g = gcd(s, d)
    if n % g:
        return 0
    step = d // g
    first = (n // g) * pow(s // g, -1, step) % step
    count = (n // s - first) // step + 1  # 0 when first > n//s
    c0 = (n - s * first) // d
    ds = s // g
    pairs = count * (count - 1) // 2
    total = count * (c0 + p * q) - ds * pairs
    for mod, other, inv in _popoviciu_residues(p, q):
        a, b = -inv * ds % mod, inv * c0 % mod
        total -= other * (a * pairs + b * count - mod * floor_sum(count, mod, a, b))
    return total // (p * q)
