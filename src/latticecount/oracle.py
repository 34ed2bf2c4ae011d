"""Naive brute-force counters used as ground truth.

Every counter here enumerates lattice points of a bounding region and
tests membership with plain comparisons and exact rational sign tests.
Nothing in this module shares code with the closed-form counters; that
independence is what makes the equivalence tests meaningful.

Enumeration refuses regions with more cells than a budget (a named
constant, overridable per call and from the CLI) so that accidental huge
inputs fail fast instead of spinning.
"""

from fractions import Fraction
from math import ceil, floor

DEFAULT_CELL_BUDGET = 10_000_000


class BudgetError(ValueError):
    """The region is too large for brute-force enumeration."""


def _check_budget(cells, budget):
    if budget is not None and cells > budget:
        raise BudgetError(
            f"brute-force region has {cells} cells, exceeding the budget {budget}"
        )


def _pt(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _box_ranges(points, budget):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = ceil(min(xs)), floor(max(xs))
    y_lo, y_hi = ceil(min(ys)), floor(max(ys))
    cells = max(0, x_hi - x_lo + 1) * max(0, y_hi - y_lo + 1)
    _check_budget(cells, budget)
    return range(x_lo, x_hi + 1), range(y_lo, y_hi + 1)


def brute_halfplane_quadrant(a, b, c, budget=DEFAULT_CELL_BUDGET):
    """Count (x, y) >= 0 with a*x + b*y <= c by a double loop."""
    if a < 1 or b < 1:
        raise ValueError(f"coefficients must be positive, got ({a}, {b})")
    if c < 0:
        return 0
    _check_budget((c // a + 1) * (c // b + 1), budget)
    count = 0
    for x in range(c // a + 1):
        y = 0
        while a * x + b * y <= c:
            count += 1
            y += 1
    return count


def brute_rect(lo, hi, budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a closed axis-aligned rectangle by scanning."""
    lo, hi = _pt(lo), _pt(hi)
    xr, yr = _box_ranges([lo, hi], budget)
    count = 0
    for x in xr:
        for y in yr:
            if lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]:
                count += 1
    return count


def brute_segment(seg, budget=DEFAULT_CELL_BUDGET):
    """Count integral points on a closed segment by scanning its box."""
    p, q = _pt(seg.p), _pt(seg.q)
    xr, yr = _box_ranges([p, q], budget)
    count = 0
    for x in xr:
        for y in yr:
            if _on_segment((Fraction(x), Fraction(y)), p, q):
                count += 1
    return count


def brute_triangle(t, include_boundary=True, exclude_segments=(),
                   budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a closed triangle by scanning its bounding
    box with exact half-plane sign tests.

    include_boundary=False counts strictly interior points instead.
    exclude_segments removes the points lying on any of the given
    segments from the (closed) count.
    """
    v1, v2, v3 = (_pt(v) for v in t.vertices)
    xr, yr = _box_ranges([v1, v2, v3], budget)
    orient = _cross(v1, v2, v3)
    excl = [(_pt(s.p), _pt(s.q)) for s in exclude_segments]
    count = 0
    for x in xr:
        for y in yr:
            p = (Fraction(x), Fraction(y))
            if orient == 0:
                inside = include_boundary and (
                    _on_segment(p, v1, v2)
                    or _on_segment(p, v2, v3)
                    or _on_segment(p, v3, v1)
                )
            else:
                s1 = _cross(v1, v2, p) * orient
                s2 = _cross(v2, v3, p) * orient
                s3 = _cross(v3, v1, p) * orient
                if include_boundary:
                    inside = s1 >= 0 and s2 >= 0 and s3 >= 0
                else:
                    inside = s1 > 0 and s2 > 0 and s3 > 0
            if inside and not any(_on_segment(p, a, b) for a, b in excl):
                count += 1
    return count


def brute_polygon(p, include_boundary=True, budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a closed simple polygon by scanning its box.

    Points on an edge are detected exactly; other points are classified by
    ray-crossing parity with exact rational comparisons.
    """
    verts = [_pt(v) for v in p.vertices]
    n = len(verts)
    xr, yr = _box_ranges(verts, budget)
    count = 0
    for x in xr:
        for y in yr:
            pt = (Fraction(x), Fraction(y))
            on_edge = any(
                _on_segment(pt, verts[i], verts[(i + 1) % n]) for i in range(n)
            )
            if on_edge:
                if include_boundary:
                    count += 1
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


def brute_tetra(a1, a2, a3, b, budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a1*x1 + a2*x2 + a3*x3 <= b, xi >= 0, by a
    triple loop."""
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError(f"coefficients must be positive, got ({a1}, {a2}, {a3})")
    if b < 0:
        return 0
    _check_budget((b // a1 + 1) * (b // a2 + 1) * (b // a3 + 1), budget)
    count = 0
    for x1 in range(b // a1 + 1):
        r1 = b - a1 * x1
        for x2 in range(r1 // a2 + 1):
            count += (r1 - a2 * x2) // a3 + 1
    return count


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


def brute_denumerant2(a, b, c):
    """Representations of c as x*a + y*b, x, y >= 0, by a single loop."""
    if c < 0:
        return 0
    return sum(1 for x in range(c // a + 1) if (c - a * x) % b == 0)


def brute_denumerant2_table(a, b, cmax):
    """Representation counts for every c in [0, cmax] by coin-counting
    dynamic programming (add coin a, then coin b)."""
    ways = [0] * (cmax + 1)
    for m in range(0, cmax + 1, a):
        ways[m] = 1
    for c in range(b, cmax + 1):
        ways[c] += ways[c - b]
    return ways


def brute_denumerant3(a1, a2, a3, n):
    """Representations of n in <a1, a2, a3> by a double loop plus a
    divisibility test."""
    if n < 0:
        return 0
    count = 0
    for x1 in range(n // a1 + 1):
        r1 = n - a1 * x1
        for x2 in range(r1 // a2 + 1):
            if (r1 - a2 * x2) % a3 == 0:
                count += 1
    return count


def brute_gaps(a, b):
    """Gaps of <a, b> by sieving representability up to a*b."""
    limit = a * b
    reach = [False] * (limit + 1)
    reach[0] = True
    for n in range(1, limit + 1):
        reach[n] = (n >= a and reach[n - a]) or (n >= b and reach[n - b])
    return [n for n in range(limit + 1) if not reach[n]]


def brute_contains(a, b, n, budget=DEFAULT_CELL_BUDGET):
    """Membership of n in <a, b> by sieving representability up to n."""
    if n < 0:
        return False
    _check_budget(n + 1, budget)
    reach = [False] * (n + 1)
    reach[0] = True
    for m in range(1, n + 1):
        reach[m] = (m >= a and reach[m - a]) or (m >= b and reach[m - b])
    return reach[n]


def brute_count_upto(a, b, c, budget=DEFAULT_CELL_BUDGET):
    """Number of representable integers in [0, c] by the same sieve."""
    if c < 0:
        return 0
    _check_budget(c + 1, budget)
    reach = [False] * (c + 1)
    reach[0] = True
    for n in range(1, c + 1):
        reach[n] = (n >= a and reach[n - a]) or (n >= b and reach[n - b])
    return sum(reach)


def brute_apery(a, b, s):
    """Apery set of <a, b> with respect to s by per-residue minimum search."""
    limit = a * b + s
    sieve = [False] * (limit + 1)
    sieve[0] = True
    for n in range(1, limit + 1):
        sieve[n] = (n >= a and sieve[n - a]) or (n >= b and sieve[n - b])
    out = [None] * s
    for n in range(limit + 1):
        if sieve[n] and out[n % s] is None:
            out[n % s] = n
    return out
