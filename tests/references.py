"""Reference counters the tests check the library and the oracle against.

Two kinds live here, and latticecount.oracle holds neither, since --check
runs neither:

- Brute-force tables and forms that anchor the closed forms far past a
  single --check: quadrant_count_floor_form sums the quadrant count's
  partial strip one column at a time; brute_equation3_table,
  brute_tetra_table and brute_denumerant2_table count every bound up to a
  limit in one dynamic-programming pass; brute_segment scans a segment's
  box.  They use the oracle's budget and integer scaling.
- The reference_* counters, the oracle's own planar counters as they
  were before they scaled their points to integers.
"""

import math
from fractions import Fraction
from math import gcd

from latticecount.oracle import (
    DEFAULT_CELL_BUDGET,
    _box_ranges,
    _check_budget,
    _on_segment,
    _pt,
    _scaled,
)
from latticecount.polygons import TRIANGLE_CASES

# the bounding-box cases of polygons.triangle_case, by name
CASE_DEGENERATE, CASE_STABLE, CASE_TWO_ADJACENT, CASE_TWO_OPPOSITE, CASE_ONE_CORNER = TRIANGLE_CASES

# --- brute-force forms and tables, on the oracle's budget and scaling --------


def quadrant_count_floor_form(a, b, c, budget=DEFAULT_CELL_BUDGET):
    """Count (x, y) >= 0 with a*x + b*y <= c for coprime a, b by the strip
    decomposition summed term by term: with k = floor(c/(a*b)), the k full
    strips of width max(a, b) in closed form, then one summand per column
    of the partial strip, every remainder spelled c - k*a*b.  The library
    sums the partial strip with a floor-sum reduction instead, so the two
    can be checked against each other far past the reach of the double
    loop.  The budget bounds the partial-strip columns.
    """
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise ValueError(f"coefficients must be coprime positive integers, got ({a}, {b})")
    if c < 0:
        return 0
    if a > b:
        a, b = b, a
    k = c // (a * b)
    _check_budget((c - k * a * b) // b + 1, budget)
    total = (-(a * b) * k * k + (a + b + 1 + 2 * c) * k) // 2
    for i in range((c - k * a * b) // b + 1):
        total += (c - k * a * b - i * b) // a + 1
    return total


def brute_segment(seg, budget=DEFAULT_CELL_BUDGET):
    """Count integral points on a closed segment by scanning its box."""
    p, q = _pt(seg.p), _pt(seg.q)
    xr, yr = _box_ranges([p, q], budget)
    scale, (p, q) = _scaled([p, q])
    return sum(1 for x in xr for y in yr if _on_segment((x * scale, y * scale), p, q))


def brute_equation3_table(a1, a2, a3, nmax, budget=DEFAULT_CELL_BUDGET):
    """Representation counts of a1*x1 + a2*x2 + a3*x3 = n for all n in
    [0, nmax], by coin-counting dynamic programming (add coin a1, then a2,
    then a3).

    The budget bounds the (x1, x2, x3) candidates a triple loop would
    scan, so the table refuses the same inputs as plain enumeration.
    """
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError(f"coefficients must be positive, got ({a1}, {a2}, {a3})")
    if nmax < 0:
        return []
    pairs = sum((nmax - a1 * x1) // a2 + 1 for x1 in range(nmax // a1 + 1))
    _check_budget(pairs * (nmax // a3 + 1), budget)
    ways = [0] * (nmax + 1)
    for m in range(0, nmax + 1, a1):
        ways[m] = 1
    for coin in (a2, a3):
        for n in range(coin, nmax + 1):
            ways[n] += ways[n - coin]
    return ways


def brute_tetra_table(a1, a2, a3, bmax, budget=DEFAULT_CELL_BUDGET):
    """Tetrahedron counts for every bound b in [0, bmax] in one enumeration
    pass (running sums of brute_equation3_table)."""
    table = brute_equation3_table(a1, a2, a3, bmax, budget)
    out = []
    running = 0
    for ways in table:
        running += ways
        out.append(running)
    return out


def brute_denumerant2_table(a, b, cmax):
    """Representation counts for every c in [0, cmax] by coin-counting
    dynamic programming (add coin a, then coin b)."""
    ways = [0] * (cmax + 1)
    for m in range(0, cmax + 1, a):
        ways[m] = 1
    for c in range(b, cmax + 1):
        ways[c] += ways[c - b]
    return ways


# --- the Fraction references of the integer oracle ------------------------
# The four planar counters as they were before they scaled their points to
# integers: each cell becomes a pair of Fractions and every membership test
# is Fraction arithmetic, with the ray crossing's abscissa computed by a
# division.  They share no helper with oracle.py.


def _ref_pt(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _ref_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ref_on_segment(p, a, b):
    if _ref_cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _ref_cells(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return [(Fraction(x), Fraction(y))
            for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
            for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)]


def reference_rect(lo, hi):
    lo, hi = _ref_pt(lo), _ref_pt(hi)
    return sum(1 for x, y in _ref_cells([lo, hi])
               if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1])


def reference_segment(seg):
    p, q = _ref_pt(seg.p), _ref_pt(seg.q)
    return sum(1 for c in _ref_cells([p, q]) if _ref_on_segment(c, p, q))


def reference_triangle(t, include_boundary=True, exclude_segments=()):
    v1, v2, v3 = (_ref_pt(v) for v in t.vertices)
    orient = _ref_cross(v1, v2, v3)
    excl = [(_ref_pt(s.p), _ref_pt(s.q)) for s in exclude_segments]
    count = 0
    for p in _ref_cells([v1, v2, v3]):
        if orient == 0:
            inside = include_boundary and (_ref_on_segment(p, v1, v2)
                                           or _ref_on_segment(p, v2, v3)
                                           or _ref_on_segment(p, v3, v1))
        else:
            s1 = _ref_cross(v1, v2, p) * orient
            s2 = _ref_cross(v2, v3, p) * orient
            s3 = _ref_cross(v3, v1, p) * orient
            if include_boundary:
                inside = s1 >= 0 and s2 >= 0 and s3 >= 0
            else:
                inside = s1 > 0 and s2 > 0 and s3 > 0
        if inside and not any(_ref_on_segment(p, a, b) for a, b in excl):
            count += 1
    return count


def reference_polygon(poly, include_boundary=True):
    verts = [_ref_pt(v) for v in poly.vertices]
    n = len(verts)
    count = 0
    for pt in _ref_cells(verts):
        if any(_ref_on_segment(pt, verts[i], verts[(i + 1) % n]) for i in range(n)):
            count += include_boundary
            continue
        crossings = 0
        for i in range(n):
            u, v = verts[i], verts[(i + 1) % n]
            if (u[1] > pt[1]) != (v[1] > pt[1]):
                x_int = u[0] + (pt[1] - u[1]) * (v[0] - u[0]) / (v[1] - u[1])
                if x_int > pt[0]:
                    crossings ^= 1
        count += crossings
    return count
