"""Seeded random corpora shared by the test modules.

Coordinates follow the common regime: rationals in [-10, 10] with
denominators at most 8, produced from a caller-supplied random.Random so
every test run sees the same instances.  no_digit_limit lifts the
interpreter's int <-> str digit limit for the tests of huge values.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor, gcd

from latticecount.polygons import (
    CASE_ONE_CORNER,
    CASE_STABLE,
    CASE_TWO_ADJACENT,
    CASE_TWO_OPPOSITE,
    Polygon,
    Triangle,
    _cross,
    triangle_case,
)
from latticecount.triangles import StableRightTriangle

SPAN = 10
MAX_DEN = 8


def rand_rational(rng, lo=-SPAN, hi=SPAN, max_den=MAX_DEN):
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_point(rng):
    return (rand_rational(rng), rand_rational(rng))


def rand_rational_300(rng):
    """A signed rational with a numerator of up to 300 digits over a
    denominator of at most 10**6, for the invariants past the oracle."""
    return Fraction(rng.randrange(-10**300, 10**300), rng.randint(1, 10**6))


def _distinct_sorted(rng, count):
    vals = set()
    while len(vals) < count:
        vals.add(rand_rational(rng))
    return sorted(vals)


# --- stable right triangles -------------------------------------------------


def rand_stable_right(rng):
    """Random stable right triangle; occasionally degenerate on purpose."""
    ax, ay = rand_point(rng)
    cx = ax if rng.random() < 0.05 else rand_rational(rng)
    by = ay if rng.random() < 0.05 else rand_rational(rng)
    return StableRightTriangle(corner=(ax, ay), x_vertex=(cx, ay), y_vertex=(ax, by))


_GCD_SHIFT_COEFFS = [
    (2, 4), (2, 6), (2, 8), (4, 6), (6, 8), (3, 6), (4, 8), (6, 3), (8, 2),
]


def rand_gcd_shift_instance(rng):
    """Stable right triangle whose cleared hypotenuse a*x + b*y = c has
    gcd(a, b) > 1 (and gcd(a, b, c) = 1), exercising the parallel-shift
    reduction."""
    a, b = rng.choice(_GCD_SHIFT_COEFFS)
    g = gcd(a, b)
    cmax = min(SPAN * a, SPAN * b)
    c = rng.randint(1, cmax)
    while c % g == 0:
        c = rng.randint(1, cmax)
    tx = rng.randint(-SPAN, SPAN - (c + a - 1) // a)
    ty = rng.randint(-SPAN, SPAN - (c + b - 1) // b)
    corner = (Fraction(tx), Fraction(ty))
    return StableRightTriangle(
        corner=corner,
        x_vertex=(tx + Fraction(c, a), Fraction(ty)),
        y_vertex=(Fraction(tx), ty + Fraction(c, b)),
    )


# --- general triangles, one generator per bounding-box case -----------------


def rand_tri_stable(rng):
    ax, ay = rand_point(rng)
    dx = rand_rational(rng, 1, 8)
    dy = rand_rational(rng, 1, 8)
    if rng.random() < 0.5:
        dx = -dx
    if rng.random() < 0.5:
        dy = -dy
    return Triangle((ax, ay), (ax + dx, ay), (ax, ay + dy))


def rand_tri_two_adjacent(rng):
    x0, xm, x1 = _distinct_sorted(rng, 3)
    y0, y1 = _distinct_sorted(rng, 2)
    tri = ((x0, y0), (x1, y0), (xm, y1))
    if rng.random() < 0.5:  # exercise the transpose path
        tri = tuple((y, x) for x, y in tri)
    return Triangle(*tri)


def rand_tri_one_corner(rng):
    x0, xa, x1 = _distinct_sorted(rng, 3)
    y0, ya, y1 = _distinct_sorted(rng, 3)
    return Triangle((x0, y0), (x1, ya), (xa, y1))


def _rand_strictly_between(rng, lo, hi):
    """A random rational with denominator <= MAX_DEN strictly inside (lo, hi),
    or None when the interval holds no such value."""
    dens = list(range(1, MAX_DEN + 1))
    rng.shuffle(dens)
    for den in dens:
        lo_n = floor(lo * den) + 1
        hi_n = ceil(hi * den) - 1
        if lo_n > hi_n:
            continue
        val = Fraction(rng.randint(lo_n, hi_n), den)
        if lo < val < hi:
            return val
    return None


def rand_tri_two_opposite(rng):
    while True:
        x0, x1 = _distinct_sorted(rng, 2)
        y0, y1 = _distinct_sorted(rng, 2)
        lo, hi = (x0, y0), (x1, y1)
        if rng.random() < 0.3:  # middle vertex on a vertical box side
            side = x0 if rng.random() < 0.5 else x1
            my = _rand_strictly_between(rng, y0, y1)
            if my is None:
                continue
            mid = (side, my)
        else:
            mx = rand_rational(rng)
            my = rand_rational(rng)
            if not (x0 <= mx <= x1 and y0 <= my <= y1):
                continue
            mid = (mx, my)
        tri = Triangle(lo, hi, mid)
        if triangle_case(tri) == CASE_TWO_OPPOSITE:
            return tri


def rand_tri_degenerate(rng):
    roll = rng.random()
    if roll < 0.2:
        p = rand_point(rng)
        return Triangle(p, p, p)
    if roll < 0.4:
        p, q = rand_point(rng), rand_point(rng)
        return Triangle(p, p, q)
    base = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
    dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
    if dx == 0 and dy == 0:
        dx = 1
    t1 = Fraction(rng.randint(-8, 8), rng.randint(1, MAX_DEN))
    t2 = Fraction(rng.randint(-8, 8), rng.randint(1, MAX_DEN))
    return Triangle(
        base,
        (base[0] + t1 * dx, base[1] + t1 * dy),
        (base[0] + t2 * dx, base[1] + t2 * dy),
    )


def rand_triangle_any(rng):
    return Triangle(rand_point(rng), rand_point(rng), rand_point(rng))


CASE_GENERATORS = {
    CASE_STABLE: rand_tri_stable,
    CASE_TWO_ADJACENT: rand_tri_two_adjacent,
    CASE_TWO_OPPOSITE: rand_tri_two_opposite,
    CASE_ONE_CORNER: rand_tri_one_corner,
}


def apply_symmetry(rng, tri):
    """A random lattice symmetry: vertex shuffle, axis reflections, transpose."""
    pts = list(tri.vertices)
    rng.shuffle(pts)
    if rng.random() < 0.5:
        pts = [(-x, y) for x, y in pts]
    if rng.random() < 0.5:
        pts = [(x, -y) for x, y in pts]
    if rng.random() < 0.5:
        pts = [(y, x) for x, y in pts]
    return Triangle(*pts)


# --- simple polygons ---------------------------------------------------------


def _angular_cmp(center):
    cx, cy = center

    def cmp(p, q):
        pdx, pdy = p[0] - cx, p[1] - cy
        qdx, qdy = q[0] - cx, q[1] - cy
        ph = 0 if (pdy > 0 or (pdy == 0 and pdx > 0)) else 1
        qh = 0 if (qdy > 0 or (qdy == 0 and qdx > 0)) else 1
        if ph != qh:
            return ph - qh
        cr = pdx * qdy - pdy * qdx
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        rp = pdx * pdx + pdy * pdy
        rq = qdx * qdx + qdy * qdy
        return -1 if rp < rq else (1 if rp > rq else 0)

    return cmp


def random_simple_polygon(rng, n, integral=True, span=SPAN, max_tries=500):
    """Random simple polygon on n distinct vertices: points sorted by exact
    angle around their centroid (a star-shaped ordering); rejected and
    retried if the strict simplicity validation refuses it."""
    for _ in range(max_tries):
        pts = set()
        while len(pts) < n:
            if integral:
                pts.add((Fraction(rng.randint(-span, span)),
                         Fraction(rng.randint(-span, span))))
            else:
                pts.add(rand_point(rng))
        pts = list(pts)
        cx = sum(p[0] for p in pts) / n
        cy = sum(p[1] for p in pts) / n
        if any(p == (cx, cy) for p in pts):
            continue
        pts.sort(key=cmp_to_key(_angular_cmp((cx, cy))))
        try:
            return Polygon(tuple(pts))
        except ValueError:
            continue
    raise RuntimeError(f"could not generate a simple polygon with {n} vertices")


@contextmanager
def no_digit_limit():
    """Lift the interpreter's int <-> str digit limit, as cli.run does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
