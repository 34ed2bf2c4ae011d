"""Naive brute-force counters used as ground truth.

Every counter here enumerates lattice points of a bounding region and
tests membership with plain comparisons and exact sign tests.  Each is
what a subcommand's --check runs, and the module holds nothing else;
the tests keep their own references in tests/references.py.  The planar
counters turn their points into Fractions once and scale them by the lcm
L of all their denominators; each cell (x, y) of the box then costs
O(edges) integer sign tests on (x*L, y*L), with no Fraction built per
cell.  Nothing in this module shares code with the closed-form counters;
that independence is what makes the equivalence tests meaningful.

Enumeration refuses regions with more cells than a budget (a named
constant, overridable per call and from the CLI) so that accidental huge
inputs fail fast instead of spinning.
"""

from fractions import Fraction
from math import ceil, floor, lcm

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


def _scaled(points):
    """(L, integer points): the Fraction points times the lcm L of all
    their denominators.  Scaling by L > 0 keeps the sign of every cross
    product and comparison, so a cell (x, y) is tested as (x*L, y*L)."""
    scale = lcm(*(c.denominator for p in points for c in p))
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in points]


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
    scale, ((x0, y0), (x1, y1)) = _scaled([lo, hi])
    return sum(1 for x in xr for y in yr
               if x0 <= x * scale <= x1 and y0 <= y * scale <= y1)


def brute_triangle(t, include_boundary=True, exclude_segments=(),
                   budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a closed triangle by scanning its bounding
    box with exact half-plane sign tests.

    include_boundary=False counts strictly interior points instead.
    exclude_segments removes the points lying on any of the given
    segments from the (closed) count.
    """
    verts = [_pt(v) for v in t.vertices]
    xr, yr = _box_ranges(verts, budget)
    scale, pts = _scaled(verts + [_pt(e) for s in exclude_segments for e in (s.p, s.q)])
    edges = list(zip(pts[:3], pts[1:3] + pts[:1]))
    excl = list(zip(pts[3::2], pts[4::2]))
    orient = _cross(*pts[:3])
    count = 0
    for x in xr:
        for y in yr:
            p = (x * scale, y * scale)
            if orient == 0:
                inside = include_boundary and any(_on_segment(p, a, b) for a, b in edges)
            else:
                least = min(_cross(a, b, p) * orient for a, b in edges)
                inside = least >= 0 if include_boundary else least > 0
            if inside and not any(_on_segment(p, a, b) for a, b in excl):
                count += 1
    return count


def brute_polygon(p, include_boundary=True, budget=DEFAULT_CELL_BUDGET):
    """Count integral points of a closed simple polygon by scanning its box.

    Points on an edge are detected exactly; other points are classified by
    ray-crossing parity.  An edge u -> v straddling the cell's row crosses
    the rightward ray when the cell lies to its left going up, or to its
    right going down: a cross product's sign, not the crossing's abscissa.
    """
    verts = [_pt(v) for v in p.vertices]
    xr, yr = _box_ranges(verts, budget)
    scale, pts = _scaled(verts)
    edges = list(zip(pts, pts[1:] + pts[:1]))
    count = 0
    for x in xr:
        for y in yr:
            pt = (x * scale, y * scale)
            if any(_on_segment(pt, u, v) for u, v in edges):
                if include_boundary:
                    count += 1
                continue
            crossings = 0
            for u, v in edges:
                if ((u[1] > pt[1]) != (v[1] > pt[1])
                        and (_cross(u, v, pt) > 0) == (v[1] > u[1])):
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


def brute_denumerant2(a, b, c, budget=DEFAULT_CELL_BUDGET):
    """Representations of c as x*a + y*b, x, y >= 0, by a single loop."""
    if c < 0:
        return 0
    _check_budget(c // a + 1, budget)
    return sum(1 for x in range(c // a + 1) if (c - a * x) % b == 0)


def brute_denumerant3(a1, a2, a3, n, budget=DEFAULT_CELL_BUDGET):
    """Representations of n in <a1, a2, a3> by a double loop plus a
    divisibility test."""
    if n < 0:
        return 0
    _check_budget((n // a1 + 1) * (n // a2 + 1), budget)
    count = 0
    for x1 in range(n // a1 + 1):
        r1 = n - a1 * x1
        for x2 in range(r1 // a2 + 1):
            if (r1 - a2 * x2) % a3 == 0:
                count += 1
    return count


def _representable(a, b, limit, budget):
    """reach[n] for n in [0, limit]: is n = x*a + y*b with x, y >= 0?
    Sieved upwards from reach[0]."""
    _check_budget(limit + 1, budget)
    reach = [False] * (limit + 1)
    reach[0] = True
    for n in range(1, limit + 1):
        reach[n] = (n >= a and reach[n - a]) or (n >= b and reach[n - b])
    return reach


def brute_gaps(a, b, budget=DEFAULT_CELL_BUDGET):
    """Gaps of <a, b> by sieving representability up to a*b."""
    reach = _representable(a, b, a * b, budget)
    return [n for n, found in enumerate(reach) if not found]


def brute_contains(a, b, n, budget=DEFAULT_CELL_BUDGET):
    """Membership of n in <a, b> by sieving representability up to n."""
    if n < 0:
        return False
    return _representable(a, b, n, budget)[n]


def brute_count_upto(a, b, c, budget=DEFAULT_CELL_BUDGET):
    """Number of representable integers in [0, c] by the same sieve."""
    if c < 0:
        return 0
    return sum(_representable(a, b, c, budget))


def brute_apery(a, b, s, budget=DEFAULT_CELL_BUDGET):
    """Apery set of <a, b> with respect to s by per-residue minimum search."""
    reach = _representable(a, b, a * b + s, budget)
    out = [None] * s
    for n, found in enumerate(reach):
        if found and out[n % s] is None:
            out[n % s] = n
    return out
