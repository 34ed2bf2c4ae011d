"""Lattice-point counts for segments, stable rectangles and right triangles.

"Stable" means axis-aligned: a stable rectangle has its sides parallel to
the coordinate axes, a stable right triangle has its two legs parallel to
the axes.  Exact, lattice-preserving steps reduce each shape to the
integer kernel: a stable right triangle by one corner lift of its three
vertices, _corner_lift, to one quadrant count, and a segment, the
hypotenuse of such a triangle, to the denumerant of the lifted bound.  The
shapes store their exact Fraction input; each count scales its points to
integers by _integer_points (scale L, X = L*x).  The orientation
predicates are in polygons, their only user.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .kernel import denumerant, quadrant_count


def _as_point(p):
    """p as a tuple of two Fractions; a Fraction is kept, not re-wrapped."""
    x, y = p
    return (x if type(x) is Fraction else Fraction(x),
            y if type(y) is Fraction else Fraction(y))


def _integer_points(points):
    """(scale, points * scale) for scale the lcm of every coordinate
    denominator: integer points with the same orientations, incidences
    and coordinate order as the rational ones."""
    scale = lcm(*(c.denominator for p in points for c in p))
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in points]


def _span(lo, hi, L):
    """#{n in Z : lo <= L*n <= hi} = max(0, floor(hi/L) - ceil(lo/L) + 1)."""
    return max(0, hi // L + (-lo) // L + 1)


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Closed segment between two rational points; p == q is allowed and
    denotes a single point."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", _as_point(self.p))
        object.__setattr__(self, "q", _as_point(self.q))


# ---------------------------------------------------------------------------
# Stable rectangles
# ---------------------------------------------------------------------------


def rect_count(lo, hi):
    """Integral points in the closed axis-aligned rectangle [lo, hi]."""
    lo, hi = _as_point(lo), _as_point(hi)
    L, ((x0, y0), (x1, y1)) = _integer_points((lo, hi))
    if x0 > x1 or y0 > y1:
        raise ValueError(f"reversed rectangle bounds ({lo[0]}, {lo[1]}) .. ({hi[0]}, {hi[1]})")
    return _span(x0, x1, L) * _span(y0, y1, L)


# ---------------------------------------------------------------------------
# Stable right triangles
# ---------------------------------------------------------------------------

HYPOTENUSE = "hypotenuse"
LEG_X = "leg_x"
LEG_Y = "leg_y"
_BOUNDARY_PARTS = frozenset((HYPOTENUSE, LEG_X, LEG_Y))


@dataclass(frozen=True)
class StableRightTriangle:
    """Right triangle with legs parallel to the axes.

    corner is the right-angle vertex; x_vertex shares its y coordinate
    (the horizontal leg), y_vertex shares its x coordinate (the vertical
    leg).  Degenerate triangles (zero-length legs) are allowed.
    """

    corner: tuple
    x_vertex: tuple
    y_vertex: tuple

    def __post_init__(self):
        object.__setattr__(self, "corner", _as_point(self.corner))
        object.__setattr__(self, "x_vertex", _as_point(self.x_vertex))
        object.__setattr__(self, "y_vertex", _as_point(self.y_vertex))
        if self.x_vertex[1] != self.corner[1] or self.y_vertex[0] != self.corner[0]:
            raise ValueError("legs must be parallel to the coordinate axes")

    @property
    def vertices(self):
        return (self.corner, self.x_vertex, self.y_vertex)

    @property
    def hypotenuse(self):
        return Segment(self.y_vertex, self.x_vertex)

    @property
    def leg_x(self):
        return Segment(self.corner, self.x_vertex)

    @property
    def leg_y(self):
        return Segment(self.corner, self.y_vertex)

    def boundary_segments(self, parts):
        """The segments of the named boundary parts, in the order
        hypotenuse, leg_x, leg_y; each part is named after its property."""
        parts = _boundary_parts(parts)
        return [getattr(self, part) for part in (HYPOTENUSE, LEG_X, LEG_Y) if part in parts]


def _boundary_parts(names):
    """The boundary part names as a frozenset; an unknown name raises
    ValueError."""
    parts = frozenset(names)
    bad = parts - _BOUNDARY_PARTS
    if bad:
        raise ValueError(f"unknown boundary parts {sorted(bad)}")
    return parts


def _corner_lift(corner, x_vertex, y_vertex, exclude):
    """The paper's reduction of the stable right triangle with Fraction
    vertices corner, x_vertex at the corner's y and y_vertex at its x:
    (a, b, c, m) with quadrant_count(a, b, c // m) its count, or, when a
    leg has zero length (a == 0 or b == 0), with c its count and m = 1.

    On the vertices scaled to integer points (scale L, X = L*x), reflect
    (x -> -x and/or y -> -y preserve the lattice) so the right-angle
    corner (alpha, beta) is the lower-left one; the triangle is
    x >= alpha, y >= beta, a*X + b*Y <= a*delta + b*beta, with legs
    b = delta - alpha and a = gamma - beta.  Lift the corner to the least
    lattice point (x0, y0) the triangle may hold, with a strict inequality
    for each left-out leg: x0 = floor(alpha/L) + 1 without leg_y instead
    of ceil(alpha/L), y0 = floor(beta/L) + 1 without leg_x.  The lift
    moves no lattice point across the hypotenuse.  Translate (x0, y0) to
    the origin; without the hypotenuse the bound c becomes c - 1.  With
    d = gcd(a, b), the lattice values of a*L*x + b*L*y are multiples of
    m = d*L: a and b are divided by d, the caller floors c // m, and the
    hypotenuse holds lattice points only when m divides c.  c // m does not
    depend on L: scaling the points and L by k multiplies a*L, b*L, c and m
    by k*k, and floor((j*c - 1)/(j*m)) = floor((c - 1)/m) for j, m >= 1.

    A degenerate triangle is the zero-width box from the lifted corner to
    the far vertex (delta, gamma), and all of it is hypotenuse.
    """
    exclude = _boundary_parts(exclude)
    L, ((alpha, beta), (delta, _), (_, gamma)) = _integer_points((corner, x_vertex, y_vertex))
    if delta < alpha:
        alpha, delta = -alpha, -delta
    if gamma < beta:
        beta, gamma = -beta, -gamma
    x0 = alpha // L + 1 if LEG_Y in exclude else -(-alpha // L)
    y0 = beta // L + 1 if LEG_X in exclude else -(-beta // L)
    a, b = gamma - beta, delta - alpha
    if a == 0 or b == 0:
        return a, b, (HYPOTENUSE not in exclude) * _span(L * x0, delta, L) * _span(L * y0, gamma, L), 1
    c = a * (delta - L * x0) + b * (beta - L * y0) - (HYPOTENUSE in exclude)
    d = gcd(a, b)
    return a // d, b // d, c, d * L


def stable_right_reduction(t, exclude=()):
    """Reduce a stable right triangle to a primitive counting problem.

    Returns one of
        ("point", p)            the triangle is a single point
        ("segment", seg)        the triangle is a segment
        ("quadrant", (a, b, c)) lattice count equals quadrant_count(a, b, c)

    The (a, b, c) is the corner lift's, c floored.  exclude names boundary parts
    ("hypotenuse", "leg_x", "leg_y") to leave out; a point or a segment
    is returned closed.
    """
    a, b, c, m = _corner_lift(*t.vertices, exclude)
    if a == b == 0:
        return ("point", t.corner)
    if a == 0 or b == 0:
        return ("segment", t.leg_y if b == 0 else t.leg_x)
    return ("quadrant", (a, b, c // m))


def stable_right_count(t, exclude=()):
    """Integral points in a closed stable right triangle.

    exclude may list boundary parts ("hypotenuse", "leg_x", "leg_y") to
    leave out of the count; each makes its inequality strict in the
    corner lift, so the count is one quadrant_count whatever the
    exclusion.  A point or a segment follows the same strict inequalities.
    """
    a, b, c, m = _corner_lift(*t.vertices, exclude)
    return c if a == 0 or b == 0 else quadrant_count(a, b, c // m)


def segment_count(seg):
    """Integral points on a closed segment p-q: the hypotenuse of the stable
    right triangle with its right angle at (p.x, q.y), so the denumerant of
    the closed corner lift's bound.  A point or an axis-parallel segment is
    that triangle's degenerate case, all of it hypotenuse."""
    a, b, c, m = _corner_lift((seg.p[0], seg.q[1]), seg.q, seg.p, ())
    if a == 0 or b == 0:
        return c
    return 0 if c % m else denumerant(a, b, c // m)
