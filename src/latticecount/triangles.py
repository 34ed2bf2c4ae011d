"""Lattice-point counts for segments, stable rectangles and right triangles.

"Stable" means axis-aligned: a stable rectangle has its sides parallel to
the coordinate axes, a stable right triangle has its two legs parallel to
the axes.  The workhorse is the quadrant count

    #{(x, y) in Z^2, x >= 0, y >= 0 : a*x + b*y <= c}

for coprime positive integers a, b, evaluated by splitting the triangle
into vertical strips of width max(a, b) and counting each strip through
the semigroup <a, b>: full strips have the closed-form size
(a + b + 1 - (1 + 2i)*a*b)/2 + c, and the last partial strip is the
Apery-set sum of floors.  Everything else (rational vertices, legs of
rational length, non-coprime coefficients) reduces to this count by
exact, lattice-preserving steps.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .rationals import egcd


def _as_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _is_integral(p):
    return p[0].denominator == 1 and p[1].denominator == 1


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# ---------------------------------------------------------------------------
# Quadrant triangles  a*x + b*y <= c,  x, y >= 0
# ---------------------------------------------------------------------------


def _check_generators(a, b):
    if a < 1 or b < 1:
        raise ValueError(f"coefficients must be positive integers, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"coefficients must be coprime, got ({a}, {b})")


def quadrant_count(a, b, c):
    """Count (x, y) in Z^2 with x, y >= 0 and a*x + b*y <= c.

    Requires a, b >= 1 coprime; c may be any integer (c < 0 gives 0).
    Uses the Euclidean division c = q*a*b + r with 0 <= r < a*b.  The
    count is symmetric in (a, b); internally b is the larger coefficient
    so the trailing sum has at most min(a, b) terms.
    """
    _check_generators(a, b)
    if c < 0:
        return 0
    if a > b:
        a, b = b, a
    q, r = divmod(c, a * b)
    quad = -(a * b) * q * q + (a + b + 1 + 2 * c) * q
    assert quad % 2 == 0
    total = quad // 2
    for i in range(r // b + 1):
        total += (r - i * b) // a + 1
    return total


def quadrant_count_floor_form(a, b, c):
    """Same count as quadrant_count, written with k = floor(c/(a*b)) and
    every occurrence of the remainder spelled as c - k*a*b.  Kept as an
    independently coded twin so the two shapes of the formula can be
    checked against each other.
    """
    _check_generators(a, b)
    if c < 0:
        return 0
    if a > b:
        a, b = b, a
    k = c // (a * b)
    quad = -(a * b) * k * k + (a + b + 1 + 2 * c) * k
    assert quad % 2 == 0
    total = quad // 2
    for i in range((c - k * a * b) // b + 1):
        total += (c - k * a * b - i * b) // a + 1
    return total


@dataclass(frozen=True)
class BlockTrace:
    """Vertical-strip decomposition of a quadrant triangle.

    block_counts[i] is the number of lattice points with
    i*b <= x < (i+1)*b (b the larger coefficient); the last block is the
    partial strip and tail_terms holds its per-column summands.
    """

    k: int
    block_counts: tuple
    tail_terms: tuple

    @property
    def total(self):
        return sum(self.block_counts)


def quadrant_blocks(a, b, c):
    """Block decomposition of the quadrant count; requires c >= 0."""
    _check_generators(a, b)
    if c < 0:
        raise ValueError("block decomposition requires c >= 0")
    if a > b:
        a, b = b, a
    k = c // (a * b)
    blocks = []
    for i in range(k):
        num = a + b + 1 - (1 + 2 * i) * a * b
        # coprime a, b are not both even, so the numerator is always even
        assert num % 2 == 0
        blocks.append(num // 2 + c)
    r = c - k * a * b
    tail = tuple((r - i * b) // a + 1 for i in range(r // b + 1))
    blocks.append(sum(tail))
    return BlockTrace(k, tuple(blocks), tail)


# ---------------------------------------------------------------------------
# Lines and segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineEq:
    """The line a*x + b*y = c with integer coefficients, gcd(a, b, c) = 1
    and the first nonzero of (a, b) positive."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("line with zero normal")
        if gcd(self.a, self.b, self.c) != 1:
            raise ValueError(f"line ({self.a}, {self.b}, {self.c}) not primitive")
        first = self.a if self.a != 0 else self.b
        if first < 0:
            raise ValueError(f"line ({self.a}, {self.b}, {self.c}) has bad sign")

    @classmethod
    def normalized(cls, a, b, c):
        """Build from rational coefficients: clear denominators, divide out
        the common factor, fix the sign."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        scale = lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
        g = gcd(ai, bi, ci)
        if g:
            ai, bi, ci = ai // g, bi // g, ci // g
        first = ai if ai != 0 else bi
        if first < 0:
            ai, bi, ci = -ai, -bi, -ci
        return cls(ai, bi, ci)

    @classmethod
    def from_points(cls, p, q):
        """The line through two distinct rational points."""
        p, q = _as_point(p), _as_point(q)
        if p == q:
            raise ValueError("two distinct points are needed to define a line")
        a = q[1] - p[1]
        b = p[0] - q[0]
        return cls.normalized(a, b, a * p[0] + b * p[1])


@dataclass(frozen=True)
class Segment:
    """Closed segment between two rational points; p == q is allowed and
    denotes a single point."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", _as_point(self.p))
        object.__setattr__(self, "q", _as_point(self.q))


def point_on_segment(point, seg):
    """Exact test: is the rational point on the closed segment?"""
    point = _as_point(point)
    if _cross(seg.p, seg.q, point) != 0:
        return False
    xs = sorted((seg.p[0], seg.q[0]))
    ys = sorted((seg.p[1], seg.q[1]))
    return xs[0] <= point[0] <= xs[1] and ys[0] <= point[1] <= ys[1]


def segment_count(seg):
    """Number of integral points on a closed segment.

    Axis-parallel segments use the floor/ceil span times the indicator
    that the fixed coordinate is an integer.  A general segment lies on a
    primitive integer line a*x + b*y = c; there are no integral points
    unless gcd(a, b) = 1, in which case the solutions form an arithmetic
    progression (found with the extended Euclid) clipped to the segment.
    """
    p, q = seg.p, seg.q
    if p == q:
        return 1 if _is_integral(p) else 0
    if p[0] == q[0]:
        if p[0].denominator != 1:
            return 0
        lo, hi = sorted((p[1], q[1]))
        return max(0, floor(hi) - ceil(lo) + 1)
    if p[1] == q[1]:
        if p[1].denominator != 1:
            return 0
        lo, hi = sorted((p[0], q[0]))
        return max(0, floor(hi) - ceil(lo) + 1)
    line = LineEq.from_points(p, q)
    if gcd(line.a, line.b) != 1:
        # a primitive line with imprimitive normal never meets Z^2
        return 0
    _, u, v = egcd(line.a, line.b)
    x0 = u * line.c
    # solutions are (x0 + t*b, y0 - t*a); clip x to the segment's x-range
    lo, hi = sorted((p[0], q[0]))
    if line.b > 0:
        t_lo, t_hi = Fraction(lo - x0, line.b), Fraction(hi - x0, line.b)
    else:
        t_lo, t_hi = Fraction(hi - x0, line.b), Fraction(lo - x0, line.b)
    return max(0, floor(t_hi) - ceil(t_lo) + 1)


def segment_intersection(s, t):
    """Intersection of two closed segments as a Segment (possibly a single
    point), or None when they are disjoint.  All arithmetic is exact."""
    if s.p == s.q:
        return Segment(s.p, s.p) if point_on_segment(s.p, t) else None
    if t.p == t.q:
        return Segment(t.p, t.p) if point_on_segment(t.p, s) else None
    d1 = (s.q[0] - s.p[0], s.q[1] - s.p[1])
    d2 = (t.q[0] - t.p[0], t.q[1] - t.p[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if _cross(s.p, s.q, t.p) != 0:
            return None  # parallel, different lines
        lo = max(min(s.p, s.q), min(t.p, t.q))
        hi = min(max(s.p, s.q), max(t.p, t.q))
        # lexicographic order agrees with the order along a common line
        return Segment(lo, hi) if lo <= hi else None
    u = ((t.p[0] - s.p[0]) * d2[1] - (t.p[1] - s.p[1]) * d2[0]) / denom
    point = (s.p[0] + u * d1[0], s.p[1] + u * d1[1])
    if point_on_segment(point, s) and point_on_segment(point, t):
        return Segment(point, point)
    return None


# ---------------------------------------------------------------------------
# Stable rectangles
# ---------------------------------------------------------------------------


def rect_count(lo, hi):
    """Integral points in the closed axis-aligned rectangle [lo, hi]."""
    lo, hi = _as_point(lo), _as_point(hi)
    if lo[0] > hi[0] or lo[1] > hi[1]:
        raise ValueError(f"reversed rectangle bounds {lo} .. {hi}")
    nx = floor(hi[0]) - ceil(lo[0]) + 1
    ny = floor(hi[1]) - ceil(lo[1]) + 1
    return max(0, nx) * max(0, ny)


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
        hypotenuse, leg_x, leg_y; each part is named after its property.
        An unknown name raises ValueError."""
        parts = frozenset(parts)
        bad = parts - _BOUNDARY_PARTS
        if bad:
            raise ValueError(f"unknown boundary parts {sorted(bad)}")
        return [getattr(self, part) for part in (HYPOTENUSE, LEG_X, LEG_Y) if part in parts]


def stable_right_reduction(t):
    """Reduce a stable right triangle to a primitive counting problem.

    Returns one of
        ("point", p)            the triangle is a single point
        ("segment", seg)        the triangle is a segment
        ("quadrant", (a, b, c)) lattice count equals quadrant_count(a, b, c)

    The quadrant reduction: reflect (x -> -x and/or y -> -y preserve the
    lattice) so the right-angle corner is the componentwise minimum; lift
    the corner to its componentwise ceiling (no lattice points change
    side of the hypotenuse); translate the corner to the origin; clear
    denominators of the hypotenuse inequality and divide out
    gcd(a, b, c).  If d = gcd(a, b) is still > 1 then gcd(d, c) = 1, so no
    lattice value of a*x + b*y lands in (d*floor(c/d), c] and the bound
    may be floored down to d*floor(c/d) and divided through by d.
    """
    alpha, beta = t.corner
    delta = t.x_vertex[0]
    gamma = t.y_vertex[1]
    if delta == alpha and gamma == beta:
        return ("point", t.corner)
    if delta == alpha:
        return ("segment", Segment(t.corner, t.y_vertex))
    if gamma == beta:
        return ("segment", Segment(t.corner, t.x_vertex))
    sx = 1 if delta > alpha else -1
    sy = 1 if gamma > beta else -1
    alpha, delta = sx * alpha, sx * delta
    beta, gamma = sy * beta, sy * gamma
    ar = gamma - beta
    br = delta - alpha
    cr = ar * delta + br * beta
    c_shift = cr - ar * ceil(alpha) - br * ceil(beta)
    scale = lcm(ar.denominator, br.denominator, c_shift.denominator)
    a, b, c = int(ar * scale), int(br * scale), int(c_shift * scale)
    g = gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    d = gcd(a, b)
    if d > 1:
        a, b, c = a // d, b // d, c // d  # floor division is the parallel shift
    return ("quadrant", (a, b, c))


def stable_right_count(t, exclude=()):
    """Integral points in a closed stable right triangle.

    exclude may list boundary parts ("hypotenuse", "leg_x", "leg_y") whose
    lattice points are removed from the closed count; points shared by two
    excluded parts (the triangle corners) are subtracted once only, via
    inclusion-exclusion over the excluded segments.
    """
    segs = t.boundary_segments(exclude)
    kind, data = stable_right_reduction(t)
    if kind == "point":
        closed = 1 if _is_integral(data) else 0
    elif kind == "segment":
        closed = segment_count(data)
    else:
        closed = quadrant_count(*data)
    return closed - _union_count(segs)


def _union_count(segs):
    """Lattice points covered by the union of up to three segments."""
    total = sum(segment_count(s) for s in segs)
    pairs = {}
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            inter = segment_intersection(segs[i], segs[j])
            pairs[(i, j)] = inter
            if inter is not None:
                total -= segment_count(inter)
    if len(segs) == 3 and pairs[(0, 1)] is not None:
        inter = segment_intersection(pairs[(0, 1)], segs[2])
        if inter is not None:
            total += segment_count(inter)
    return total
