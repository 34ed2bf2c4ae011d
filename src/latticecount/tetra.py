"""Stable right tetrahedra and the three-generator denumerant.

The tetrahedron x1, x2, x3 >= 0, a1*x1 + a2*x2 + a3*x3 <= b is counted by
slicing along the largest generator s and counting each planar slice
p*x + q*y <= c as a quadrant triangle.  The generators need not be
pairwise coprime: each slice inequality is divided through by
d = gcd(p, q), flooring the bound, which is exact because p*x + q*y only
takes multiples of d.

With p, q coprime (after that division) and c = k*p*q + r, 0 <= r < p*q,
both slice quantities split into a closed form in k plus a value that
depends on the residue r alone:

    Q(c) = (the k full strips of the quadrant count) + Q(r)
    D(c) = k + D(r)                  (Popoviciu: D(c + p*q) = D(c) + 1)

where Q is the quadrant count and D the denumerant in <p, q>.  So a slice
costs one closed form plus a value per residue, computed once per call:
Q(r) is one kernel call, remembered for the slices that share r, and
D(r) is 0 or 1, membership of r < p*q in <p, q>.  The denumerant of n in
<a1, a2, a3> sums D over the slices whose bound is a multiple of d.
"""

from math import gcd

from .triangles import full_strips, quadrant_count


def _check(a1, a2, a3):
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError(f"generators must be >= 1, got ({a1}, {a2}, {a3})")


def tetra_slice_counts(a1, a2, a3, b):
    """Per-slice lattice counts, slicing x3' = 0, 1, ... along the largest
    generator; empty for b < 0."""
    _check(a1, a2, a3)
    if b < 0:
        return []
    p, q, s = sorted((a1, a2, a3))
    d = gcd(p, q)
    p, q = p // d, q // d
    pq = p * q
    tails = {}  # Q(r) by residue r; at most min(p*q, slices) entries
    out = []
    for i in range(b // s + 1):
        c = (b - s * i) // d
        k, r = divmod(c, pq)
        tail = tails.get(r)
        if tail is None:
            tail = tails[r] = quadrant_count(p, q, r)
        out.append(full_strips(p, q, k, c) + tail)
    return out


def tetra_count(a1, a2, a3, b):
    """Integral points in the closed tetrahedron a1*x1 + a2*x2 + a3*x3 <= b,
    xi >= 0.  Any positive generators are accepted; b < 0 gives 0."""
    return sum(tetra_slice_counts(a1, a2, a3, b))


def denumerant3(a1, a2, a3, n):
    """Number of triples (x1, x2, x3) of non-negative integers with
    a1*x1 + a2*x2 + a3*x3 = n; zero for n < 0.

    One pass over the slices x3 whose remainder n - s*x3 is a multiple of
    d = gcd(p, q), adding k + D(r) for each (see the module docstring).
    Those x3 form one residue class modulo d / gcd(s, d), or none when
    gcd(s, d) does not divide n.
    """
    _check(a1, a2, a3)
    if n < 0:
        return 0
    p, q, s = sorted((a1, a2, a3))
    d = gcd(p, q)
    p, q = p // d, q // d
    pq = p * q
    g = gcd(s, d)
    if n % g:
        return 0
    step = d // g
    first = (n // g) * pow(s // g, -1, step) % step
    q_inv = pow(q, -1, p)  # r < p*q is in <p, q> iff r >= (r * q_inv % p) * q
    total = 0
    for x3 in range(first, n // s + 1, step):
        k, r = divmod((n - s * x3) // d, pq)
        total += k + (r >= r * q_inv % p * q)
    return total
