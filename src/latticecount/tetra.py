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
the k full strips in closed form plus a value of the residue r alone:

    S(i) = Q(c_i) = (c - r)*(c + r + p + q + 1)/(2*p*q) + Q(r),

a quadratic in c plus a function of c mod p*q, as Ehrhart theory
predicts for the slices of a rational polytope (Beck and Robins, ch. 3).
With g = gcd(s, d), the slices i = j*stride + t of one class t modulo
stride = d/g have the bounds c_t - sigma*j, sigma = s/g, since
s*stride = d*sigma.  Along a class the second difference of the square
is the constant 2*sigma^2, that of the linear term is 0, and c mod p*q
repeats with period P = p*q / gcd(sigma, p*q); so the second differences
of S along a class repeat with period P.  The kernel gives each class
its first P + 2 slices, one call per distinct residue, and the rest of
the class is two running sums over its cycled P second differences.
The classes interleave with period T = stride*P = d*p*q / gcd(s, d*p*q),
and the P + 2 first slices of a class meet only P residues: at most
min(T, p*q) kernel calls, and O(n) additions for the n = b//s + 1
slices, made by itertools.accumulate rather than by a Python step each.

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

from itertools import accumulate, cycle, islice
from math import gcd

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
    generator, as a tuple of ints; empty for b < 0.

    Each class of slices modulo stride = d/gcd(s, d) is its first P + 2
    slices, one kernel call per distinct residue modulo p*q among them,
    then two accumulates over its second differences, which repeat with
    period P (module docstring).  Classes interleave by slice assignment.
    """
    p, q, s, d = _reduce(a1, a2, a3)
    if b < 0:
        return ()
    n = b // s + 1
    pq = p * q
    g = gcd(s, d)
    stride, period = d // g, pq // gcd(s // g, pq)
    classes = [range(t, n, stride) for t in range(min(stride, n))]  # slice indices
    heads = [[(b - s * i) // d for i in slices[:period + 2]] for slices in classes]
    tails = dict.fromkeys(c % pq for bounds in heads for c in bounds)  # Q(r) by residue r
    for r in tails:
        tails[r] = quadrant_count(p, q, r)
    out = [0] * n if stride > 1 else None
    for slices, bounds in zip(classes, heads):
        counts = [full_strips(p, q, c // pq, c) + tails[c % pq] for c in bounds]
        m = len(slices)
        if m > len(counts):  # the second differences d2 repeat with period P
            d2 = [x - 2 * y + z for x, y, z in zip(counts, counts[1:], counts[2:])]
            d1 = accumulate(islice(cycle(d2), m - 2), initial=counts[1] - counts[0])
            counts = tuple(accumulate(d1, initial=counts[0]))
        if out is None:
            return tuple(counts)
        out[slices.start::stride] = counts
    return tuple(out)


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
