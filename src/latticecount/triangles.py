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
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm


def _as_point(p):
    x, y = p
    return (Fraction(x), Fraction(y))


def _is_integral(p):
    return p[0].denominator == 1 and p[1].denominator == 1


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
    blocks = [full_strips(a, b, i + 1, c) - full_strips(a, b, i, c) for i in range(k)]
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
    """Number of integral points on a closed segment.

    Axis-parallel segments use the floor/ceil span times the indicator
    that the fixed coordinate is an integer.  A general segment lies on an
    integer line a*x + b*y = c; there are no integral points unless
    gcd(a, b) divides c, in which case the solutions form an arithmetic
    progression (through the inverse of a mod b) clipped to the segment.
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
    scale, ((px, py), (qx, qy)) = _integer_points((p, q))
    # the line a*x + b*y = c through p and q, on the unscaled coordinates
    a, b = (qy - py) * scale, (px - qx) * scale
    c = (qy - py) * px + (px - qx) * py
    d = gcd(a, b)
    if c % d:
        return 0
    if b < 0:
        d = -d
    a, b, c = a // d, b // d, c // d
    # solutions are x = c/a (mod b) plus t*b, t integer, b > 0; clip
    # scale*x to the segment's scaled x-range
    lo, hi = sorted((px, qx))
    step, x0 = scale * b, scale * (c * pow(a, -1, b) % b)
    return max(0, (hi - x0) // step + (x0 - lo) // step + 1)


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

    The quadrant reduction: reflect (x -> -x and/or y -> -y preserve the
    lattice) so the right-angle corner (alpha, beta) is the componentwise
    minimum and the triangle is x >= alpha, y >= beta, a*x + b*y <= c;
    lift the corner to the least lattice point of the quadrant, which
    moves no lattice point across the hypotenuse; translate that point to
    the origin; clear denominators.  With d = gcd(a, b), the lattice
    values of a*x + b*y are multiples of d, so the bound may be floored
    to d*floor(c/d) and everything divided by d.

    exclude names boundary parts ("hypotenuse", "leg_x", "leg_y") to
    leave out, which makes their inequalities strict: without leg_y the
    corner lifts to x0 = floor(alpha) + 1 instead of ceil(alpha), without
    leg_x to y0 = floor(beta) + 1, and without the hypotenuse the cleared
    bound c becomes c - 1.  A point or a segment is returned closed.
    """
    exclude = _boundary_parts(exclude)
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
    x0 = floor(alpha) + 1 if LEG_Y in exclude else ceil(alpha)
    y0 = floor(beta) + 1 if LEG_X in exclude else ceil(beta)
    c_shift = cr - ar * x0 - br * y0
    scale = lcm(ar.denominator, br.denominator, c_shift.denominator)
    a, b, c = int(ar * scale), int(br * scale), int(c_shift * scale)
    if HYPOTENUSE in exclude:
        c -= 1
    d = gcd(a, b)
    return ("quadrant", (a // d, b // d, c // d))


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
    kind, data = stable_right_reduction(t, exclude)
    if kind == "quadrant":
        return quadrant_count(*data)
    vertical = t.x_vertex == t.corner
    long_leg, short_leg = (LEG_Y, LEG_X) if vertical else (LEG_X, LEG_Y)
    if HYPOTENUSE in exclude or long_leg in exclude:
        return 0
    corner = short_leg in exclude and _is_integral(t.corner)
    return segment_count(t.leg_y if vertical else t.leg_x) - corner
