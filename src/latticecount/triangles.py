"""Lattice-point counts for segments, stable rectangles and right triangles.

"Stable" means axis-aligned: a stable rectangle has its sides parallel to
the coordinate axes, a stable right triangle has its two legs parallel to
the axes.  The workhorse is the quadrant count

    #{(x, y) in Z^2, x >= 0, y >= 0 : a*x + b*y <= c}

for coprime positive integers a, b, evaluated by splitting the triangle
into vertical strips of width max(a, b) and counting each strip through
the semigroup <a, b>: full strips have the closed-form size
(a + b + 1 - (1 + 2i)*a*b)/2 + c, summed over all k full strips at once
by full_strips, and the last partial strip is the Apery-set sum of
floors.  That sum is one floor_sum, the Euclid-like reduction of
sum_{i<n} floor((a*i + b)/m), so a count costs O(log min(a, b))
arithmetic steps on integers of the input's size.  Everything else
(rational vertices, legs of rational length, non-coprime coefficients)
reduces to this count by exact, lattice-preserving steps.

The shapes store their exact Fraction input; every count runs on those
points scaled once to integers by _integer_points (scale L, X = L*x).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def _as_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_box(p, a, b):
    """Is p in the closed axis-parallel box spanned by a and b?"""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _integer_points(points):
    """(scale, points * scale) for scale the lcm of every coordinate
    denominator: integer points with the same orientations, incidences
    and coordinate order as the rational ones."""
    scale = lcm(*(c.denominator for p in points for c in p))
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in points]


def _on_lattice(L, p):
    """Is the scaled point p (scale L) a lattice point?"""
    return p[0] % L == 0 and p[1] % L == 0


def _span(lo, hi, L):
    """#{n in Z : lo <= L*n <= hi} = max(0, floor(hi/L) - ceil(lo/L) + 1)."""
    return max(0, hi // L + (-lo) // L + 1)


# ---------------------------------------------------------------------------
# Quadrant triangles  a*x + b*y <= c,  x, y >= 0
# ---------------------------------------------------------------------------


def _check_generators(a, b):
    if a < 1 or b < 1:
        raise ValueError(f"coefficients must be positive integers, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise ValueError(f"coefficients must be coprime, got ({a}, {b})")


def floor_sum(n, m, a, b):
    """sum_{0 <= i < n} floor((a*i + b) / m) for n >= 0 and m >= 1.

    The Euclid-like reduction behind reciprocity for Dedekind sums (Beck
    and Robins, Computing the Continuous Discretely, ch. 8): split off the
    integer parts a//m and b//m in closed form, then count the remaining
    lattice points under the line with the axes swapped, which replaces
    (m, a) by (a, m mod a).  The loop runs O(log m) times; a and b may be
    any integers.
    """
    if n < 0 or m < 1:
        raise ValueError(f"floor_sum needs n >= 0 and m >= 1, got n={n}, m={m}")
    total = 0
    while True:
        if not 0 <= a < m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def full_strips(a, b, k, c):
    """Lattice points of a*x + b*y <= c, x, y >= 0, in the first k vertical
    strips of width max(a, b): the sum over i < k of the closed-form strip
    size (a + b + 1 - (1 + 2i)*a*b)/2 + c, for coprime a, b."""
    return k * (a + b + 1 + 2 * c - a * b * k) // 2


def quadrant_count(a, b, c):
    """Count (x, y) in Z^2 with x, y >= 0 and a*x + b*y <= c.

    Requires a, b >= 1 coprime; c may be any integer (c < 0 gives 0).
    With b the larger coefficient and c = k*a*b + r, 0 <= r < a*b, the
    count is the k full strips in closed form plus the partial strip,
    sum_{i <= r//b} ((r - i*b)//a + 1), which is one floor_sum.
    """
    _check_generators(a, b)
    if c < 0:
        return 0
    if a > b:
        a, b = b, a
    k, r = divmod(c, a * b)
    n = r // b + 1
    return full_strips(a, b, k, c) + n + floor_sum(n, a, b, r % b)


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
    # full_strips(a, b, i + 1, c) - full_strips(a, b, i, c) falls by a*b per block
    first = full_strips(a, b, 1, c)
    blocks = list(range(first, first - a * b * k, -a * b))
    r = c - k * a * b
    tail = tuple((r - i * b) // a + 1 for i in range(r // b + 1))
    blocks.append(sum(tail))
    return BlockTrace(k, tuple(blocks), tail)


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


def segment_count(seg):
    """Number of integral points on a closed segment."""
    L, (p, q) = _integer_points((seg.p, seg.q))
    return _segment_count(L, p, q)


def _segment_count(L, p, q):
    """Integral points on the closed segment from p to q, points scaled by L.

    The segment lies on an integer line a*x + b*y = c, with b != 0 once a
    vertical segment is mirrored in y = x (a = 0 when it is horizontal).
    There are no integral points unless gcd(a, b) divides c; then they form
    an arithmetic progression, through the inverse of a mod b."""
    if p == q:
        return 1 if _on_lattice(L, p) else 0
    if p[0] == q[0]:
        p, q = p[::-1], q[::-1]
    (px, py), (qx, qy) = p, q
    # the line a*x + b*y = c through p and q, on the unscaled coordinates
    a, b = (qy - py) * L, (px - qx) * L
    c = (qy - py) * px + (px - qx) * py
    d = gcd(a, b)
    if c % d:
        return 0
    if b < 0:
        d = -d
    a, b, c = a // d, b // d, c // d
    # solutions are x = c/a (mod b) plus t*b, t integer, b > 0; clip
    # L*x to the segment's scaled x-range
    lo, hi = sorted((px, qx))
    step, x0 = L * b, L * (c * pow(a, -1, b) % b)
    return max(0, (hi - x0) // step + (x0 - lo) // step + 1)


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


def stable_right_reduction(t, exclude=()):
    """Reduce a stable right triangle to a primitive counting problem.

    Returns one of
        ("point", p)            the triangle is a single point
        ("segment", seg)        the triangle is a segment
        ("quadrant", (a, b, c)) lattice count equals quadrant_count(a, b, c)

    The quadrant reduction runs on the vertices scaled to integer points
    (scale L, X = L*x): reflect (x -> -x and/or y -> -y preserve the
    lattice) so the right-angle corner (alpha, beta) is the componentwise
    minimum and the triangle is x >= alpha, y >= beta,
    a*X + b*Y <= a*delta + b*beta; lift the corner to the least lattice
    point of the quadrant, which moves no lattice point across the
    hypotenuse; translate that point to the origin.  With d = gcd(a, b),
    the lattice values of a*L*x + b*L*y are multiples of d*L, so the bound
    c may be floored to a multiple of d*L and everything divided by d*L.

    exclude names boundary parts ("hypotenuse", "leg_x", "leg_y") to
    leave out, which makes their inequalities strict: without leg_y the
    corner lifts to x0 = floor(alpha/L) + 1 instead of ceil(alpha/L),
    without leg_x to y0 = floor(beta/L) + 1, and without the hypotenuse c
    becomes c - 1.  A point or a segment is returned closed.  The result
    does not depend on L: scaling the points and L by k multiplies a*L,
    b*L, c and d*L by k*k, and floor((j*c - 1)/(j*m)) = floor((c - 1)/m)
    for all integers j, m >= 1.
    """
    exclude = _boundary_parts(exclude)
    L, (corner, x_vertex, y_vertex) = _integer_points(t.vertices)
    if x_vertex == corner == y_vertex:
        return ("point", t.corner)
    if x_vertex == corner or y_vertex == corner:
        return ("segment", t.leg_y if x_vertex == corner else t.leg_x)
    return ("quadrant", _stable_right_quadrant(L, corner, x_vertex, y_vertex, exclude))


def _stable_right_quadrant(L, corner, x_vertex, y_vertex, exclude):
    """The (a, b, c) of stable_right_reduction for a non-degenerate
    triangle on scaled points."""
    (alpha, beta), delta, gamma = corner, x_vertex[0], y_vertex[1]
    sx = 1 if delta > alpha else -1
    sy = 1 if gamma > beta else -1
    alpha, delta = sx * alpha, sx * delta
    beta, gamma = sy * beta, sy * gamma
    x0 = alpha // L + 1 if LEG_Y in exclude else -(-alpha // L)
    y0 = beta // L + 1 if LEG_X in exclude else -(-beta // L)
    a, b = gamma - beta, delta - alpha
    c = a * (delta - L * x0) + b * (beta - L * y0) - (HYPOTENUSE in exclude)
    d = gcd(a, b)
    return (a // d, b // d, c // (d * L))


def stable_right_count(t, exclude=()):
    """Integral points in a closed stable right triangle.

    exclude may list boundary parts ("hypotenuse", "leg_x", "leg_y") to
    leave out of the count; each makes its inequality strict inside
    stable_right_reduction, so the count is one quadrant_count whatever
    the exclusion.  A degenerate triangle is a point or a segment from
    the corner: its hypotenuse and its long leg are all of it, and its
    short leg is the corner.
    """
    exclude = _boundary_parts(exclude)
    L, (corner, x_vertex, y_vertex) = _integer_points(t.vertices)
    if x_vertex != corner and y_vertex != corner:
        return quadrant_count(*_stable_right_quadrant(L, corner, x_vertex, y_vertex, exclude))
    vertical = x_vertex == corner
    long_leg, short_leg = (LEG_Y, LEG_X) if vertical else (LEG_X, LEG_Y)
    if HYPOTENUSE in exclude or long_leg in exclude:
        return 0
    return (_segment_count(L, corner, y_vertex if vertical else x_vertex)
            - (short_leg in exclude and _on_lattice(L, corner)))
