"""Integral points in general rational triangles and simple polygons.

A general triangle is counted through its tight bounding box: depending
on how many triangle vertices sit at box corners, the box splits into the
triangle plus stable right triangles whose hypotenuses are the triangle's
edges, or the triangle is cut by a vertical segment into two pieces that
each have a vertical edge.  Polygons are ear-clipped into triangles and
the shared diagonals are compensated exactly.  A Pick's-theorem audit is
provided for integral-vertex polygons.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .rationals import parse_rational
from .triangles import (
    HYPOTENUSE,
    Segment,
    StableRightTriangle,
    _as_point,
    _cross,
    _is_integral,
    rect_count,
    segment_count,
    segment_intersection,
    stable_right_count,
)

CASE_DEGENERATE = "degenerate"
CASE_STABLE = "stable_right"
CASE_TWO_ADJACENT = "two_adjacent_corners"
CASE_TWO_OPPOSITE = "two_opposite_corners"
CASE_ONE_CORNER = "one_corner"

TRIANGLE_CASES = (
    CASE_DEGENERATE,
    CASE_STABLE,
    CASE_TWO_ADJACENT,
    CASE_TWO_OPPOSITE,
    CASE_ONE_CORNER,
)


@dataclass(frozen=True)
class Triangle:
    v1: tuple
    v2: tuple
    v3: tuple

    def __post_init__(self):
        object.__setattr__(self, "v1", _as_point(self.v1))
        object.__setattr__(self, "v2", _as_point(self.v2))
        object.__setattr__(self, "v3", _as_point(self.v3))

    @property
    def vertices(self):
        return (self.v1, self.v2, self.v3)


def _box(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def triangle_case(t):
    """Classify a triangle by how many of its vertices are corners of its
    tight bounding box (the box always owns at least one vertex of a
    nondegenerate triangle)."""
    v = t.vertices
    if _cross(*v) == 0:
        return CASE_DEGENERATE
    x0, x1, y0, y1 = _box(v)
    corners = {(x0, y0), (x1, y0), (x0, y1), (x1, y1)}
    hits = [p for p in v if p in corners]
    if len(hits) == 3:
        return CASE_STABLE
    if len(hits) == 2:
        p, q = hits
        if p[0] == q[0] or p[1] == q[1]:
            return CASE_TWO_ADJACENT
        return CASE_TWO_OPPOSITE
    assert len(hits) == 1
    return CASE_ONE_CORNER


def _stable_from_vertices(v):
    for i in range(3):
        a, b, c = v[i], v[(i + 1) % 3], v[(i + 2) % 3]
        if a[0] == b[0] and a[1] == c[1]:
            return StableRightTriangle(corner=a, y_vertex=b, x_vertex=c)
        if a[0] == c[0] and a[1] == b[1]:
            return StableRightTriangle(corner=a, y_vertex=c, x_vertex=b)
    raise AssertionError("no axis-parallel right angle found")


def _hyp_excluded(corner, x_vertex, y_vertex):
    tri = StableRightTriangle(corner=corner, x_vertex=x_vertex, y_vertex=y_vertex)
    return stable_right_count(tri, exclude={HYPOTENUSE})


def _vertical_edge_count(p, q, r):
    """Count a triangle with a vertical edge p-q and apex r off that line.

    The bounding box splits into the triangle plus (at most) two stable
    right triangles whose hypotenuses are the edges q-r and p-r; those
    regions are removed with their hypotenuse points excluded, so every
    box point is attributed exactly once.
    """
    if r[0] < p[0]:
        p = (-p[0], p[1])
        q = (-q[0], q[1])
        r = (-r[0], r[1])
    xv = p[0]
    ylo, yhi = sorted((p[1], q[1]))
    xr, yr = r
    total = rect_count((xv, min(ylo, yr)), (xr, max(yhi, yr)))
    if yr != yhi:  # region above the edge (xv, yhi) -- r
        if yr > yhi:
            total -= _hyp_excluded((xv, yr), r, (xv, yhi))
        else:
            total -= _hyp_excluded((xr, yhi), (xv, yhi), r)
    if yr != ylo:  # region below the edge (xv, ylo) -- r
        if yr < ylo:
            total -= _hyp_excluded((xv, yr), r, (xv, ylo))
        else:
            total -= _hyp_excluded((xr, ylo), (xv, ylo), r)
    return total


def triangle_count(t):
    """Integral points in a closed triangle with rational vertices.

    Degenerate (collinear) input counts the points of its segment hull.
    Otherwise the bounding-box case decides the decomposition:

      * three vertices at box corners: the triangle is stable, count it
        directly;
      * two vertices at adjacent corners: box minus two right triangles,
        hypotenuse points excluded;
      * one vertex at a corner: box minus three such right triangles;
      * two vertices at opposite corners: cut vertically through the
        middle vertex; each half has a vertical edge, and the cut segment
        is counted twice so it is subtracted once.
    """
    case = triangle_case(t)
    v = list(t.vertices)
    if case == CASE_DEGENERATE:
        return segment_count(Segment(min(v), max(v)))
    if case == CASE_STABLE:
        return stable_right_count(_stable_from_vertices(v))
    if case == CASE_TWO_ADJACENT:
        x0, x1, y0, y1 = _box(v)
        corners = {(x0, y0), (x1, y0), (x0, y1), (x1, y1)}
        hits = [p for p in v if p in corners]
        third = next(p for p in v if p not in hits)
        if hits[0][0] != hits[1][0]:  # horizontal edge: transpose to vertical
            hits = [(p[1], p[0]) for p in hits]
            third = (third[1], third[0])
        return _vertical_edge_count(hits[0], hits[1], third)
    if case == CASE_TWO_OPPOSITE:
        return _two_opposite_count(v)
    return _one_corner_count(v)


def _two_opposite_count(v):
    x0, x1, y0, y1 = _box(v)
    corners = {(x0, y0), (x1, y0), (x0, y1), (x1, y1)}
    hits = {p for p in v if p in corners}
    if (x0, y0) not in hits:  # corners are (x0,y1),(x1,y0): flip y
        v = [(p[0], -p[1]) for p in v]
        x0, x1, y0, y1 = _box(v)
        hits = {(x0, y0), (x1, y1)}
    lo = (x0, y0)
    hi = (x1, y1)
    mid = next(p for p in v if p not in hits)
    if mid[0] == x0:
        return _vertical_edge_count(lo, mid, hi)
    if mid[0] == x1:
        return _vertical_edge_count(hi, mid, lo)
    # cut at x = mid.x; the opposite edge is the lo-hi diagonal
    yw = y0 + (y1 - y0) * (mid[0] - x0) / (x1 - x0)
    cut = (mid[0], yw)
    left = _vertical_edge_count(mid, cut, lo)
    right = _vertical_edge_count(mid, cut, hi)
    return left + right - segment_count(Segment(mid, cut))


def _one_corner_count(v):
    x0, x1, y0, y1 = _box(v)
    corners = {(x0, y0), (x1, y0), (x0, y1), (x1, y1)}
    hit = next(p for p in v if p in corners)
    sx = -1 if hit[0] == x1 else 1
    sy = -1 if hit[1] == y1 else 1
    v = [(sx * p[0], sy * p[1]) for p in v]
    x0, x1, y0, y1 = _box(v)
    a1 = (x0, y0)
    a2 = next(p for p in v if p[0] == x1)  # strictly inside the right edge
    a3 = next(p for p in v if p[1] == y1)  # strictly inside the top edge
    total = rect_count((x0, y0), (x1, y1))
    total -= _hyp_excluded((x0, y1), (a3[0], y1), (x0, y0))
    total -= _hyp_excluded((x1, y1), (a3[0], y1), (x1, a2[1]))
    total -= _hyp_excluded((x1, y0), (x0, y0), (x1, a2[1]))
    return total


# ---------------------------------------------------------------------------
# Simple polygons
# ---------------------------------------------------------------------------


def signed_area2(vertices):
    """Twice the signed area (shoelace sum); positive for counterclockwise."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


@dataclass(frozen=True)
class Polygon:
    """Simple closed polygon with rational vertices, stored counterclockwise.

    Construction rejects anything that is not strictly simple: fewer than
    three vertices, repeated vertices, a vertex lying on a non-incident
    edge, overlapping adjacent edges, crossing edges, or zero area.
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple(_as_point(p) for p in self.vertices)
        _validate_simple(verts)
        if signed_area2(verts) < 0:
            verts = tuple(reversed(verts))
        object.__setattr__(self, "vertices", verts)


def _validate_simple(verts):
    n = len(verts)
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    if len(set(verts)) != n:
        raise ValueError("polygon has a repeated vertex")
    edges = [Segment(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            inter = segment_intersection(edges[i], edges[j])
            if adjacent:
                shared = verts[j] if j == i + 1 else verts[0]
                if inter is None or inter.p != inter.q or inter.p != shared:
                    raise ValueError(
                        f"polygon edges {i}-{(i + 1) % n} and {j}-{(j + 1) % n} overlap"
                    )
            elif inter is not None:
                raise ValueError(
                    f"polygon is not simple: edges {i}-{(i + 1) % n} and "
                    f"{j}-{(j + 1) % n} intersect"
                )
    if signed_area2(verts) == 0:
        raise ValueError("polygon has zero area")


def _in_closed_triangle(p, a, b, c):
    # a, b, c counterclockwise
    return _cross(a, b, p) >= 0 and _cross(b, c, p) >= 0 and _cross(c, a, p) >= 0


def triangulate(p):
    """Ear-clip a simple polygon into exactly n - 2 triangles.

    An ear is clipped only at a strictly convex vertex whose closed ear
    triangle contains no other remaining vertex; this keeps every output
    triangle nondegenerate and every diagonal free of vertices, so the
    triangles tile the polygon and meet only along whole shared edges.
    Straight (collinear) vertices become convex as their neighbours are
    clipped away; a strictly simple polygon always offers such an ear.
    """
    verts = list(p.vertices)
    out = []
    while len(verts) > 3:
        n = len(verts)
        for idx in range(n):
            u, v, w = verts[idx - 1], verts[idx], verts[(idx + 1) % n]
            if _cross(u, v, w) <= 0:
                continue
            if any(
                _in_closed_triangle(z, u, v, w)
                for z in verts
                if z is not u and z is not v and z is not w
            ):
                continue
            out.append(Triangle(u, v, w))
            del verts[idx]
            break
        else:
            raise ValueError("ear clipping failed: polygon is not simple")
    assert _cross(*verts) > 0
    out.append(Triangle(*verts))
    return out


def polygon_count(p):
    """Integral points in a closed simple polygon.

    Sum of the triangle counts of a triangulation, minus each internal
    edge once per extra incidence: a diagonal is shared by two triangles,
    so its points are double counted.  A polygon vertex lies in several
    triangles only through the diagonals at it, so the diagonal correction
    also attributes every vertex exactly once.
    """
    tris = triangulate(p)
    total = 0
    incidence = {}
    for t in tris:
        total += triangle_count(t)
        v = t.vertices
        for i in range(3):
            key = tuple(sorted((v[i], v[(i + 1) % 3])))
            incidence[key] = incidence.get(key, 0) + 1
    for (a, b), inc in incidence.items():
        if inc > 1:
            total -= (inc - 1) * segment_count(Segment(a, b))
    return total


PickAudit = namedtuple("PickAudit", ["area", "interior", "boundary", "holds"])


def pick_audit(p):
    """Check Pick's identity area = interior + boundary/2 - 1 on an
    integral-vertex polygon; returns the exact ingredients and the verdict.

    The area comes from the shoelace sum, the boundary count from per-edge
    gcds, and the interior count from polygon_count minus the boundary.
    """
    for vert in p.vertices:
        if not _is_integral(vert):
            raise ValueError(f"pick_audit requires integral vertices, got {vert}")
    area = abs(signed_area2(p.vertices)) / 2
    n = len(p.vertices)
    boundary = 0
    for i in range(n):
        x0, y0 = p.vertices[i]
        x1, y1 = p.vertices[(i + 1) % n]
        boundary += gcd(int(x1 - x0), int(y1 - y0))
    interior = polygon_count(p) - boundary
    holds = area == interior + Fraction(boundary, 2) - 1
    return PickAudit(area, interior, boundary, holds)


def polygon_from_text(text):
    """Parse the polygon file format: one "x y" pair per line, rationals in
    the usual text form, '#' starting a comment line, blank lines skipped."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'x y', got {raw.strip()!r}")
        points.append((parse_rational(tokens[0]), parse_rational(tokens[1])))
    return Polygon(tuple(points))
