"""Integral points in general rational triangles and simple polygons.

A triangle or polygon is counted on its vertices scaled once to integer
points, as one floor_sum per edge (edge_sum): the region under an edge
is a rectangle plus a stable right triangle.  A triangle is the polygon
with three edges, and a degenerate one is its segment hull.  The tri and
poly requests read their count and their trace, the two terms column_sum
and boundary_correction, off one edge_sum pass.  triangle_case names the
paper's bounding-box case of a triangle, for the tests and the bench.

A Polygon, like every shape, holds its scale and integer points,
counterclockwise, and builds its Fraction vertices only when read.
polygon_from_text parses each token straight to an integer pair, so a
polygon file is parsed, validated and counted with no Fraction built.

A polygon is validated on its scaled vertices in one pass that decides
and names: the first overlapping pair of adjacent edges, else the pair
of touching edges where a Shamos-Hoey sweep stops.  The sweep makes
O(n log n) orientation tests and at most 3n touch tests, valid or not,
but each insert, del and index on its list status is O(n), so a comb
validates in O(n^2) time (spot readings in ROADMAP.md).  A Pick's-theorem
audit is provided for integral-vertex polygons.
"""

from collections import namedtuple
from math import gcd

from .kernel import floor_sum
from .rationals import parse_ratio
from .triangles import _Scaled, _vertex, segment_count


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_box(p, a, b):
    """Is p in the closed axis-parallel box spanned by a and b?"""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


TRIANGLE_CASES = ("degenerate", "stable_right", "two_adjacent_corners",
                  "two_opposite_corners", "one_corner")


class Triangle(_Scaled):
    """Closed triangle with rational vertices v1, v2 and v3."""

    __slots__ = ()
    __new__ = lambda cls, v1, v2, v3: cls._hold((v1, v2, v3))
    _arity = 3  # the vertex count _hold takes
    v1, v2, v3 = map(_vertex, range(3))


def triangle_case(t):
    """The bounding-box case of a triangle, one of TRIANGLE_CASES, by how
    many of its vertices are corners of its tight bounding box (the box
    always owns at least one vertex of a nondegenerate triangle): three
    for stable_right, two on one side of the box for two_adjacent_corners,
    two at opposite corners for two_opposite_corners, one for one_corner.
    These are the cases of the paper's bounding-box rule.  A degenerate
    triangle is its own case.  No count or request reads it: it stays
    only for the tests and for bench/tracer.py, which names the case of
    every traced triangle, until the bench reads counters the package
    keeps itself (ROADMAP.md)."""
    v = t.points
    if _cross(*v) == 0:
        return "degenerate"
    xs, ys = zip(*v)
    box_x, box_y = (min(xs), max(xs)), (min(ys), max(ys))
    hits = [p for p in v if p[0] in box_x and p[1] in box_y]
    if len(hits) == 3:
        return "stable_right"
    if len(hits) == 2:
        p, q = hits
        if p[0] == q[0] or p[1] == q[1]:
            return "two_adjacent_corners"
        return "two_opposite_corners"
    if len(hits) != 1:
        raise AssertionError(f"triangle {v} has no vertex at a box corner")
    return "one_corner"


def triangle_count(t):
    """Integral points in a closed triangle with rational vertices.

    Counts on the triangle's integer points.  Degenerate (collinear) input
    counts the points of its segment hull, as segment_count reads it.
    Otherwise the three points form a simple polygon, counted like any
    other by the terms of edge_sum, taken counterclockwise.
    """
    L, v = t
    turn = _cross(*v)
    if turn == 0:
        return segment_count((L, (min(v), max(v))))
    return sum(edge_sum((L, v if turn > 0 else v[::-1])))


# ---------------------------------------------------------------------------
# Simple polygons
# ---------------------------------------------------------------------------


def signed_area2(vertices):
    """Twice the signed area (shoelace sum); positive for counterclockwise."""
    return sum(x0 * y1 - x1 * y0
               for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]))


class Polygon(_Scaled):
    """Simple closed polygon with rational vertices, held as a shape is,
    its integer points counterclockwise.

    Polygon(vertices) rejects anything that is not strictly simple: fewer
    than three vertices, repeated vertices, a vertex lying on a
    non-incident edge, overlapping adjacent edges, crossing edges, or zero
    area.
    """

    __slots__ = ()
    __new__ = lambda cls, vertices: cls._hold(vertices)

    @staticmethod
    def _checked(pts):
        if _validate_simple(pts) < 0:
            pts.reverse()
        return tuple(pts)


def _segments_touch(a, b, c, d):
    """Do the closed segments a-b and c-d share a point?  Four orientation
    tests, exact on integer points."""
    o1, o2 = _cross(a, b, c), _cross(a, b, d)
    o3, o4 = _cross(c, d, a), _cross(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _in_box(c, a, b)) or (o2 == 0 and _in_box(d, a, b))
            or (o3 == 0 and _in_box(a, c, d)) or (o4 == 0 and _in_box(b, c, d)))


def _folds_back(u, v, w):
    """Do the adjacent edges u-v and v-w overlap?  Exactly when they are
    collinear and w folds back towards u."""
    dot = (u[0] - v[0]) * (w[0] - v[0]) + (u[1] - v[1]) * (w[1] - v[1])
    return dot > 0 and _cross(u, v, w) == 0


def _sweep_touches(pts):
    """The first pair (k, t) of non-adjacent edges of the closed polygon
    pts that the sweep finds touching, or None if no two do.  For distinct
    integer points with no adjacent fold-back; O(n log n) orientation tests
    and at most 3n touch tests, two as each edge enters the status and one
    as it leaves.

    The sweep of Shamos and Hoey, left to right over the vertices in
    (x, y) order: the order of a line tilted infinitesimally off the
    vertical, so no edge is parallel to it and no two vertices share it.
    The status lists, bottom to top, the edges that cross the line.  At
    a vertex the edges ending there leave first, then those starting
    there enter, placed by binary search on orientation tests (a tie at a
    shared left endpoint is broken by the far endpoint); each pair that
    becomes neighbours in the status is tested, unless the edges are
    adjacent in the polygon, which then meet only at their shared vertex.
    Before the leftmost point P where two non-adjacent edges touch, no
    status edges cross, so the status is in the order of the line.  The
    edges through P that entered before it are then consecutive in the
    status, each consecutive pair tested when it formed, and an edge
    starting at P is placed next to the one it touches: a touching pair
    is tested by the time the sweep leaves P.
    """
    n = len(pts)
    ends = [(u, w) if u < w else (w, u) for u, w in zip(pts, pts[1:] + pts[:1])]
    status = []

    def touch(k, t):
        return (k - t) % n not in (1, n - 1) and _segments_touch(*ends[k], *ends[t])

    for v in sorted(range(n), key=pts.__getitem__):
        p = pts[v]
        for k in (v - 1) % n, v:
            if ends[k][1] == p:
                i = status.index(k)
                del status[i]
                if 0 < i < len(status) and touch(status[i - 1], status[i]):
                    return status[i - 1], status[i]
        for k in (v - 1) % n, v:
            if ends[k][0] != p:
                continue
            q = ends[k][1]
            lo, hi = 0, len(status)
            while lo < hi:
                mid = (lo + hi) // 2
                a, b = ends[status[mid]]
                if (_cross(a, b, p) or _cross(a, b, q)) > 0:
                    lo = mid + 1
                else:
                    hi = mid
            status.insert(lo, k)
            if lo > 0 and touch(k, status[lo - 1]):
                return k, status[lo - 1]
            if lo + 1 < len(status) and touch(k, status[lo + 1]):
                return k, status[lo + 1]
    return None


def _validate_simple(pts):
    """Raise ValueError unless the integer points form a strictly simple
    polygon; return twice their signed area.

    Adjacent edges u-v, v-w overlap exactly when they are collinear and w
    folds back towards u; the message names the first such pair of edges
    i-j by (i, j).  Otherwise no other pair of edges may touch at all,
    which _sweep_touches decides; the message names the touching pair it
    stops at, i < j.  A triangle has no such pair.
    """
    n = len(pts)
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    if len(set(pts)) != n:
        raise ValueError("polygon has a repeated vertex")
    folds = [(i - 1, i) if i else (0, n - 1)
             for i in range(n) if _folds_back(pts[i - 1], pts[i], pts[(i + 1) % n])]
    if folds:
        i, j = min(folds)
        raise ValueError(f"polygon edges {i}-{i + 1} and {j}-{(j + 1) % n} overlap")
    if n > 3 and (pair := _sweep_touches(pts)):
        i, j = sorted(pair)
        raise ValueError(f"polygon is not simple: edges {i}-{i + 1} and "
                         f"{j}-{(j + 1) % n} intersect")
    area2 = signed_area2(pts)
    if area2 == 0:
        raise ValueError("polygon has zero area")
    return area2


EdgeSum = namedtuple("EdgeSum", ["column_sum", "boundary_correction"])


def edge_sum(p):
    """The two terms of the count of a simple polygon, from one pass over
    its edges.  p is its scale L and integer points, counterclockwise: a
    Polygon, or such a pair, as triangle_count passes a triangle's.

    column_sum: a non-vertical edge from x0 to x1 > x0 covers the columns x
    with L*x in [x0, x1).  Traversed right to left (upper boundary) it adds
    floor(y) over them, left to right (lower boundary) 1 - ceil(y): one
    floor_sum, the region under the edge being a rectangle plus a stable
    right triangle.  This counts the closed y-intervals of every column.

    boundary_correction, at lattice points only: plus the points strictly
    inside each upward vertical edge, which no edge covers; plus each vertex
    whose neighbours both have x <= its x, if it is a left turn or straight
    on an upward vertical line; minus each reflex vertex whose neighbours
    both have x > its x, where two covered intervals meet.
    """
    L, pts = p
    n = len(pts)
    columns = correction = 0
    for i in range(n):
        u, v, w = pts[i - 1], pts[i], pts[(i + 1) % n]
        if v[0] != w[0]:
            (x0, y0), (x1, y1) = sorted((v, w))
            dx, dy = x1 - x0, y1 - y0
            xs = -(-x0 // L)
            cols = -(-x1 // L) - xs
            b = dy * (L * xs - x0) + y0 * dx
            if w[0] < v[0]:
                columns += floor_sum(cols, L * dx, L * dy, b)
            else:
                columns += cols + floor_sum(cols, L * dx, -L * dy, -b)
        elif w[1] > v[1] and v[0] % L == 0:
            correction += -(-w[1] // L) - v[1] // L - 1
        if v[0] % L or v[1] % L:
            continue
        turn = _cross(u, v, w)
        if u[0] <= v[0] and w[0] <= v[0] and (turn > 0 or (turn == 0 and w[1] > v[1])):
            correction += 1
        elif u[0] > v[0] and w[0] > v[0] and turn < 0:
            correction -= 1
    return EdgeSum(columns, correction)


def polygon_count(p):
    """Integral points in a closed simple polygon: the column sum of its
    edges plus the boundary correction of edge_sum."""
    return sum(edge_sum(p))


PickAudit = namedtuple("PickAudit", ["area", "interior", "boundary", "holds"])


def pick_audit(p):
    """Check Pick's identity area = interior + boundary/2 - 1 on an
    integral-vertex polygon; returns the exact ingredients and the verdict.

    The area comes from the shoelace sum, the boundary count from per-edge
    gcds, and the interior count from the edge sum minus the boundary.
    """
    from fractions import Fraction  # the area is a Fraction for its reader
    L, pts = p
    if L != 1:  # the lcm of the denominators: some vertex is not integral
        x, y = next(v for v in p.vertices if v[0].denominator * v[1].denominator > 1)
        raise ValueError(f"pick_audit requires integral vertices, got ({x}, {y})")
    area = Fraction(abs(signed_area2(pts)), 2)
    boundary = sum(gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    interior = sum(edge_sum(p)) - boundary
    holds = area == interior + Fraction(boundary, 2) - 1
    return PickAudit(area, interior, boundary, holds)


def polygon_from_text(text):
    """Parse the polygon file format: one "x y" pair per line, rationals in
    the usual text form, '#' starting a comment line, blank lines skipped.
    One leading byte-order mark (U+FEFF), as some editors write, is ignored."""
    points = []
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw.strip()!r}")
        try:
            points.append((parse_ratio(tokens[0]), parse_ratio(tokens[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Polygon._hold(points)  # the Ratios are scaled as parsed, no Fraction built
