"""Lattice-point counts for segments, stable rectangles and right triangles.

"Stable" means axis-aligned: a stable rectangle has its sides parallel to
the coordinate axes, a stable right triangle has its two legs parallel to
the axes.  Exact, lattice-preserving steps reduce each shape to the
integer kernel: a stable right triangle by one corner lift of its three
points, _corner_lift, to one quadrant count, and a segment, the
hypotenuse of such a triangle, to the denumerant of the lifted bound.
The CLI's rtri request reads its count and its trace off one such lift.
Every shape holds its integer points, made once by _integer_points
(scale L, X = L*x), and builds its Fraction vertices only when read.
The orientation predicates are in polygons, their only user.
"""

from collections import namedtuple
from math import gcd, lcm

from .kernel import _replace_fields, denumerant, quadrant_count


def _rational(c):
    if hasattr(c, "denominator"):  # an int, a Fraction or a parsed rationals.Ratio
        return c
    from fractions import Fraction  # only an input such as "7/2" or 0.5 loads fractions
    return Fraction(c)


def _integer_points(points):
    """(scale, points * scale) for scale the lcm of every coordinate
    denominator: integer points with the same orientations, incidences
    and coordinate order as the rational ones.  A coordinate is read by its
    numerator and denominator in lowest terms, as a Fraction, an int or a
    parsed rationals.Ratio has them, or else as the Fraction it converts to."""
    points = [(_rational(x), _rational(y)) for x, y in points]
    scale = lcm(*(c.denominator for p in points for c in p))
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in points]


def _vertices(scale, points):  # the Fraction vertices, for a reader and for _make
    from fractions import Fraction
    return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in points)


class _Scaled(namedtuple("_Scaled", ["scale", "points"])):
    """A shape with rational vertices, held as its scale L, the lcm of
    their denominators, and its points, each vertex times L: integer pairs
    made once, by _hold.  `vertices`, the tuple of Fraction pairs, is built
    from the points when read, and so is each named vertex."""

    __slots__ = ()

    @classmethod
    def _hold(cls, vertices):
        """The shape of the vertices, scaled by _integer_points and checked."""
        if hasattr(cls, "_arity") and len(vertices) != cls._arity:
            raise ValueError(f"a {cls.__name__} has {cls._arity} vertices, got {len(vertices)}")
        scale, points = _integer_points(vertices)
        return super().__new__(cls, scale, cls._checked(points))

    _checked = staticmethod(tuple)  # the integer points to hold, or ValueError
    _replace = _replace_fields  # through _make
    vertices = property(lambda self: _vertices(*self))

    @classmethod
    def _make(cls, fields):
        """The shape of an int scale of at least 1 and int points, rebuilt
        from the vertices they give; any other fields raise ValueError."""
        scale, points = fields
        if not isinstance(scale, int) or scale < 1:
            raise ValueError(f"a shape's scale is an int of at least 1, got {scale!r}")
        if not all(isinstance(c, int) for p in points for c in p):
            raise ValueError(f"a shape's points are int pairs, got {points!r}")
        return cls._hold(_vertices(scale, points))

    def __reduce__(self):  # copy and pickle rebuild from the vertices
        return self._hold, (self.vertices,)


def _vertex(i):  # the property reading vertex i of a shape as a Fraction pair
    return property(lambda self: self.vertices[i])


def _span(lo, hi, L):
    """#{n in Z : lo <= L*n <= hi} = max(0, floor(hi/L) - ceil(lo/L) + 1)."""
    return max(0, hi // L + (-lo) // L + 1)


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


class Segment(_Scaled):
    """Closed segment between two rational points p and q; p == q is
    allowed and denotes a single point."""

    __slots__ = ()
    __new__ = lambda cls, p, q: cls._hold((p, q))
    _arity = 2  # the vertex count _hold takes
    p, q = map(_vertex, range(2))


# ---------------------------------------------------------------------------
# Stable rectangles
# ---------------------------------------------------------------------------


def rect_count(lo, hi):
    """Integral points in the closed axis-aligned rectangle [lo, hi]."""
    L, ((x0, y0), (x1, y1)) = _integer_points((lo, hi))
    if x0 > x1 or y0 > y1:
        (a, b), (c, d) = [map(_rational, p) for p in (lo, hi)]
        raise ValueError(f"reversed rectangle bounds ({a}, {b}) .. ({c}, {d})")
    return _span(x0, x1, L) * _span(y0, y1, L)


# ---------------------------------------------------------------------------
# Stable right triangles
# ---------------------------------------------------------------------------

HYPOTENUSE = "hypotenuse"
LEG_X = "leg_x"
LEG_Y = "leg_y"
_BOUNDARY_PARTS = frozenset((HYPOTENUSE, LEG_X, LEG_Y))


class StableRightTriangle(_Scaled):
    """Right triangle with legs parallel to the axes.

    corner is the right-angle vertex; x_vertex shares its y coordinate
    (the horizontal leg), y_vertex shares its x coordinate (the vertical
    leg).  Degenerate triangles (zero-length legs) are allowed.
    """

    __slots__ = ()
    __new__ = lambda cls, corner, x_vertex, y_vertex: cls._hold((corner, x_vertex, y_vertex))

    @staticmethod
    def _checked(points):
        (cx, cy), (_, xy), (yx, _) = points
        if xy != cy or yx != cx:
            raise ValueError("legs must be parallel to the coordinate axes")
        return tuple(points)

    corner, x_vertex, y_vertex = map(_vertex, range(3))
    hypotenuse = property(lambda self: Segment(self.y_vertex, self.x_vertex))
    leg_x = property(lambda self: Segment(self.corner, self.x_vertex))
    leg_y = property(lambda self: Segment(self.corner, self.y_vertex))

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


def _corner_lift(L, points, exclude):
    """The paper's reduction of the stable right triangle with integer
    points corner, x_vertex at the corner's y and y_vertex at its x:
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
    (alpha, beta), (delta, _), (_, gamma) = points
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


def stable_right_count(t, exclude=()):
    """Integral points in a closed stable right triangle.

    exclude may list boundary parts ("hypotenuse", "leg_x", "leg_y") to
    leave out of the count; each makes its inequality strict in the
    corner lift, so the count is one quadrant_count whatever the
    exclusion.  A point or a segment follows the same strict inequalities.
    """
    a, b, c, m = _corner_lift(*t, exclude)
    return c if a == 0 or b == 0 else quadrant_count(a, b, c // m)


def segment_count(seg):
    """Integral points on a closed segment p-q: the hypotenuse of the stable
    right triangle with its right angle at (p.x, q.y), so the denumerant of
    the closed corner lift's bound.  A point or an axis-parallel segment is
    that triangle's degenerate case, all of it hypotenuse."""
    L, (p, q) = seg
    a, b, c, m = _corner_lift(L, ((p[0], q[1]), q, p), ())
    if a == 0 or b == 0:
        return c
    return 0 if c % m else denumerant(a, b, c // m)
