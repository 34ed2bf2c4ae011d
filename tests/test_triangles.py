import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import rand_gcd_shift_instance, rand_point, rand_rational_300, rand_stable_right
from latticecount import cli, triangles
from latticecount.kernel import BlockTrace, floor_sum, full_strips, quadrant_blocks
from latticecount.oracle import (
    brute_halfplane_quadrant,
    brute_rect,
    brute_triangle,
)
from latticecount.polygons import Triangle, triangle_count
from latticecount.semigroup import TwoGenSemigroup
from latticecount.triangles import (
    HYPOTENUSE,
    LEG_X,
    LEG_Y,
    Segment,
    StableRightTriangle,
    quadrant_count,
    rect_count,
    segment_count,
    stable_right_count,
)
from references import brute_segment, quadrant_count_floor_form, reference_triangle

F = Fraction


def coprime_pairs(limit):
    for b in range(1, limit + 1):
        for a in range(1, b + 1):
            if gcd(a, b) == 1:
                yield a, b


# --- quadrant counts ---------------------------------------------------------


def test_quadrant_count_examples():
    assert quadrant_count(3, 7, 46) == 63
    assert quadrant_count(2, 5, 17) == 22
    assert quadrant_count(3, 7, -1) == 0
    assert quadrant_count(1, 1, 4) == 15


@pytest.mark.parametrize("a,b", [(0, 5), (-1, 3), (2, 4), (6, 9)])
def test_quadrant_count_rejects_bad_coefficients(a, b):
    with pytest.raises(ValueError):
        quadrant_count(a, b, 10)


def test_quadrant_count_against_brute_force():
    for a, b in coprime_pairs(8):
        for c in range(-5, 3 * a * b + 26):
            expected = brute_halfplane_quadrant(a, b, c)
            assert quadrant_count(a, b, c) == expected
            assert quadrant_count_floor_form(a, b, c) == expected
            assert quadrant_count(b, a, c) == expected  # symmetry


def test_floor_sum_against_direct_sum():
    rng = random.Random(4040)
    cases = [(0, 1, 0, 0), (0, 7, 5, 3), (5, 3, 0, 0), (5, 3, 0, 7), (6, 4, 9, 0),
             (6, 4, 9, 13), (1, 1, 1, 1), (9, 5, -7, -3), (40, 1, 3, 2)]
    cases += [(rng.randint(0, 40), rng.randint(1, 50), rng.randint(-200, 200),
               rng.randint(-200, 200)) for _ in range(3000)]
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)


def test_floor_sum_large_arguments():
    rng = random.Random(4041)
    for _ in range(200):
        n, m = rng.randint(0, 2000), rng.randint(1, 10**12)
        a, b = rng.randint(0, 10**15), rng.randint(0, 10**15)
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_over_a_full_period_at_300_digits():
    """For gcd(a, m) = 1 the residues (a*i + b) mod m, 0 <= i < m, run over
    0..m-1 once, so floor_sum(m, m, a, b) = (a - 1)*(m - 1)/2 + b: an
    identity checked with no enumeration, on 300-digit m and signed
    50-digit a and b."""
    rng = random.Random(4043)
    for _ in range(30):
        m = rng.randrange(10**299, 10**300)
        a, b = (rng.randrange(-10**50, 10**50) for _ in range(2))
        while gcd(a, m) != 1:
            a += 1
        assert floor_sum(m, m, a, b) == (a - 1) * (m - 1) // 2 + b, (m, a, b)


def test_floor_sum_splits_its_range_at_300_digits():
    """The first n1 + n2 terms are the first n1 and then n2 terms that
    start at i = n1, where a*(i + n1) + b = a*i + (b + a*n1); n, m, a and
    b of up to 300 digits, a and b signed."""
    rng = random.Random(4044)
    for _ in range(30):
        n1, n2, m = (rng.randrange(1, 10**rng.randint(1, 300)) for _ in range(3))
        a, b = (rng.randrange(-10**300, 10**300) for _ in range(2))
        assert (floor_sum(n1 + n2, m, a, b)
                == floor_sum(n1, m, a, b) + floor_sum(n2, m, a, b + a * n1)), (n1, n2, m, a, b)


def _tiling_identity(x0, y0, x1, y1):
    """Each diagonal of the rectangle [x0, x1] x [y0, y1] cuts it into two
    closed stable right triangles that share only that diagonal, so their
    counts sum to the rectangle's plus the diagonal's: quadrant_count and
    denumerant checked against each other and against rect_count."""
    rect = rect_count((x0, y0), (x1, y1))
    for (cx, cy), (dx, dy) in (((x0, y0), (x1, y1)), ((x1, y0), (x0, y1))):
        first = StableRightTriangle(corner=(cx, cy), x_vertex=(dx, cy), y_vertex=(cx, dy))
        second = StableRightTriangle(corner=(dx, dy), x_vertex=(cx, dy), y_vertex=(dx, cy))
        diagonal = segment_count(Segment((dx, cy), (cx, dy)))
        assert stable_right_count(first) + stable_right_count(second) == rect + diagonal
    return rect, diagonal


def test_two_stable_right_triangles_tile_a_rectangle_at_300_digits():
    rng = random.Random(4045)
    for _ in range(30):
        (x0, x1), (y0, y1) = (sorted((rand_rational_300(rng), rand_rational_300(rng)))
                              for _ in range(2))
        _tiling_identity(x0, y0, x1, y1)


def test_tiling_of_an_integer_rectangle_whose_diagonal_holds_2e300_points():
    """Sides 6*10**300 and 14*10**300: each diagonal holds
    gcd(6, 14)*10**300 + 1 = 2*10**300 + 1 lattice points."""
    e = 10**300
    rect, diagonal = _tiling_identity(-5, 11, 6 * e - 5, 14 * e + 11)
    assert rect == (6 * e + 1) * (14 * e + 1)
    assert diagonal == 2 * e + 1


@pytest.mark.parametrize("n, m", [(-1, 5), (3, 0), (3, -2)])
def test_floor_sum_rejects_bad_range(n, m):
    with pytest.raises(ValueError):
        floor_sum(n, m, 1, 1)


def test_quadrant_count_against_term_by_term_twin():
    """Far past the double loop: coprime coefficients up to 1e5, bounds up
    to 1e10 and past it, against the oracle's partial strip summed term
    by term."""
    rng = random.Random(4042)
    checked = 0
    while checked < 400:
        a, b = rng.randint(1, 10**5), rng.randint(1, 10**5)
        if gcd(a, b) != 1:
            continue
        c = rng.choice([rng.randint(0, 10**10), rng.randint(0, 3 * a * b),
                        rng.randint(0, a * b) + a * b * rng.randint(0, 50)])
        assert quadrant_count(a, b, c) == quadrant_count_floor_form(a, b, c), (a, b, c)
        checked += 1


def test_quadrant_count_roadmap_anchors():
    assert quadrant_count(1000001, 1000003, 6000022000016) == 18000066000057
    t = Triangle((F(1, 3), F(-7, 5)), (F(10**9, 7), F(3, 11)), (F(5, 2), F(10**9, 13)))
    assert triangle_count(t) == 5494505582971353
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        triangle_count(t)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01, f"the 1e9 triangle took {best:.4f}s"


def test_quadrant_count_monotone_in_bound():
    for a, b in coprime_pairs(7):
        prev = 0
        for c in range(-3, 3 * a * b + 10):
            cur = quadrant_count(a, b, c)
            assert cur >= prev
            prev = cur


def test_new_diagonal_adds_denumerant():
    for a, b in coprime_pairs(8):
        s = TwoGenSemigroup(a, b)
        for c in range(0, 3 * a * b + 11):
            diff = quadrant_count(a, b, c) - quadrant_count(a, b, c - 1)
            assert diff == s.denumerant(c)


def test_blocks_worked_instance():
    trace = quadrant_blocks(3, 7, 46)
    assert trace.k == 2
    assert trace.block_counts == (41, 20, 2)
    assert sum(trace.block_counts) == 63


def test_blocks_small_cases():
    trace = quadrant_blocks(3, 7, 4)
    assert trace.k == 0
    assert trace.block_counts == (2,)
    trace = quadrant_blocks(1, 1, 4)
    assert trace.k == 4
    assert trace.block_counts == (5, 4, 3, 2, 1)
    assert sum(trace.block_counts) == 15


def test_blocks_of_negative_bound_are_empty():
    assert quadrant_blocks(3, 7, -1) == BlockTrace(0, (), ())


def test_blocks_sum_and_semigroup_sections():
    for a, b in coprime_pairs(8):
        s = TwoGenSemigroup(a, b)
        for c in range(0, 3 * a * b + 5):
            trace = quadrant_blocks(a, b, c)
            assert sum(trace.block_counts) == quadrant_count(a, b, c)
            # each strip is a section of the semigroup: counts in [0, c - i*ab]
            for i, size in enumerate(trace.block_counts):
                assert size == s.count_upto(c - i * a * b)


def test_blocks_are_the_full_strip_differences():
    """The full blocks built as one arithmetic progression equal the
    per-block differences of full_strips, for either order of (a, b)."""
    rng = random.Random(11)
    seen = Counter()
    for _ in range(3000):
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        if gcd(a, b) != 1:
            continue
        c = rng.randint(0, 40 * a * b)
        lo, hi = sorted((a, b))
        k = c // (a * b)
        expected = tuple(full_strips(lo, hi, i + 1, c) - full_strips(lo, hi, i, c)
                         for i in range(k))
        trace = quadrant_blocks(a, b, c)
        assert (trace.k, trace.block_counts[:-1]) == (k, expected), (a, b, c)
        assert sum(trace.block_counts) == quadrant_count(a, b, c), (a, b, c)
        seen["a > b"] += a > b
        seen["k = 0"] += k == 0
    assert min(seen["a > b"], seen["k = 0"]) >= 20, seen


# --- rectangles ---------------------------------------------------------------


def test_rect_count_examples():
    assert rect_count((F(1, 2), F(-6, 5)), (F(7, 2), 1)) == 9
    assert rect_count((0, 0), (2, 3)) == 12
    assert rect_count((F(1, 3), 0), (F(2, 3), 5)) == 0


def test_rect_count_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        rect_count((1, 0), (0, 1))


# --- segments -----------------------------------------------------------------


def test_shapes_hold_integer_points():
    """A shape holds its scale, the lcm of its denominators, and its
    vertices times the scale, as integer pairs; an int, a Fraction or a
    rational string is read alike.  Its vertices read as Fraction pairs."""
    x, y = F(1, 3), F(-7, 2)
    seg = Segment((x, 2), (y, "5/4"))
    assert seg == (12, ((4, 24), (-42, 15))) and (seg.scale, seg.points) == tuple(seg)
    assert seg.p == (x, 2) and seg.q == (y, F(5, 4))
    assert {type(c) for c in seg.p + seg.q} == {Fraction}
    t = StableRightTriangle(corner=(x, y), x_vertex=(5, y), y_vertex=(x, 4))
    assert (t.scale, t.points) == (6, ((2, -21), (30, -21), (2, 24)))
    assert t.corner == (x, y) and t.x_vertex == (5, y) and t.y_vertex == (x, 4)
    assert t.vertices == ((x, y), (F(5), y), (x, F(4)))
    assert {type(c) for p in t.vertices for c in p} == {Fraction}
    assert {type(c) for p in t.points for c in p} == {int}
    assert Triangle((0.5, 0), (1, 0), (0, 1)) == Triangle((F(1, 2), 0), ("1", 0), (0, 1))


def test_segment_count_examples():
    assert segment_count(Segment((0, 0), (6, 4))) == 3
    assert segment_count(Segment((F(1, 2), 0), (F(5, 2), 2))) == 0
    assert segment_count(Segment((0, 0), (0, F(7, 2)))) == 4
    assert segment_count(Segment((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))) == 0
    assert segment_count(Segment((2, 3), (2, 3))) == 1


def test_segment_count_integral_endpoints_gcd_rule():
    rng = random.Random(7)
    for _ in range(200):
        p = (rng.randint(-15, 15), rng.randint(-15, 15))
        q = (rng.randint(-15, 15), rng.randint(-15, 15))
        expected = gcd(q[0] - p[0], q[1] - p[1]) + 1 if p != q else 1
        assert segment_count(Segment(p, q)) == expected
    # near 1e18, with a common factor of the differences up to 1e9
    for _ in range(200):
        p = (rng.randint(-10**18, 10**18), rng.randint(-10**18, 10**18))
        k = rng.randint(1, 10**9)
        q = (p[0] + k * rng.randint(-10**9, 10**9), p[1] + k * rng.randint(-10**9, 10**9))
        expected = gcd(q[0] - p[0], q[1] - p[1]) + 1 if p != q else 1
        assert segment_count(Segment(p, q)) == expected, (p, q)


def test_segment_count_on_a_primitive_direction_far_from_the_origin():
    """An independent reference that does not use the corner lift.  On the
    segment z + lam*(u, v), lam in [s, t], with z an integer point and
    (u, v) primitive, the lattice points are those with lam an integer:
    max(0, floor(t) - ceil(s) + 1) of them."""
    rng = random.Random(15)
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    nonzero = 0
    for _ in range(20_000):
        z = (rng.randint(-10**18, 10**18), rng.randint(-10**18, 10**18))
        if rng.random() < 0.2:
            u, v = rng.choice(axes)
        else:
            u, v = rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(-10**6, 10**6)
            d = gcd(u, v)
            u, v = u // d, v // d
        den_s = rng.randint(1, rng.choice((1, 16, 10**6)))
        den_t = rng.randint(1, rng.choice((1, 16, 10**6)))
        s = F(rng.randint(-3 * den_s, 3 * den_s), den_s)
        # a fraction of a step, or that plus up to 1e6 whole steps
        t = s + F(rng.randint(0, den_t), den_t) + rng.choice((0, rng.randint(1, 10**6)))
        p, q = (z[0] + s * u, z[1] + s * v), (z[0] + t * u, z[1] + t * v)
        if rng.random() < 0.5:
            p, q = q, p
        expected = max(0, floor(t) - ceil(s) + 1)
        assert segment_count(Segment(p, q)) == expected, (z, (u, v), s, t)
        nonzero += expected > 0
    assert min(nonzero, 20_000 - nonzero) > 1_000, nonzero


@pytest.mark.parametrize("p, q", [((0, 0), (6, 4)), ((F(1, 2), -3), (F(1, 2), 5)), ((2, 3), (2, 3))],
                         ids=["slanted", "vertical", "point"])
def test_segment_count_makes_one_lift_and_no_quadrant_count(monkeypatch, p, q):
    """A segment is one closed corner lift and one denumerant: no second
    lift for the open triangle, no quadrant count, and no
    StableRightTriangle built for the lift."""
    calls = []
    lift, quadrant = triangles._corner_lift, triangles.quadrant_count
    new = triangles.StableRightTriangle.__new__
    monkeypatch.setattr(triangles, "_corner_lift",
                        lambda *args: calls.append("lift") or lift(*args))
    monkeypatch.setattr(triangles, "quadrant_count",
                        lambda *args: calls.append("quadrant") or quadrant(*args))
    monkeypatch.setattr(triangles.StableRightTriangle, "__new__",
                        lambda cls, *args, **kwargs: calls.append("triangle")
                        or new(cls, *args, **kwargs))
    assert segment_count(Segment(p, q)) == brute_segment(Segment(p, q))
    assert calls == ["lift"]


def test_segment_count_against_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        seg = Segment(rand_point(rng), rand_point(rng))
        assert segment_count(seg) == brute_segment(seg)


def test_segments_and_rectangles_on_every_sixth_grid_pair():
    """Every unordered pair of points on {k/6 : -6 <= k <= 6}^2, a point
    paired with itself included: the segment between them and the
    rectangle they span, against the oracle."""
    grid = [(F(i, 6), F(j, 6)) for i in range(-6, 7) for j in range(-6, 7)]
    kinds = Counter()
    for p, q in combinations_with_replacement(grid, 2):
        kinds["point" if p == q else "vertical" if p[0] == q[0]
              else "horizontal" if p[1] == q[1] else "slanted"] += 1
        seg = Segment(p, q)
        assert segment_count(seg) == brute_segment(seg), seg
        lo, hi = (min(p[0], q[0]), min(p[1], q[1])), (max(p[0], q[0]), max(p[1], q[1]))
        assert rect_count(lo, hi) == brute_rect(lo, hi), (lo, hi)
    assert kinds == {"point": 169, "vertical": 1014, "horizontal": 1014, "slanted": 12168}


# --- stable right triangles -----------------------------------------------------


def test_stable_right_requires_axis_parallel_legs():
    with pytest.raises(ValueError):
        StableRightTriangle(corner=(0, 0), x_vertex=(1, 1), y_vertex=(0, 2))


def test_stable_right_examples():
    t = StableRightTriangle(corner=(0, 0), y_vertex=(0, F(7, 4)), x_vertex=(F(7, 2), 0))
    assert stable_right_count(t) == 6
    a, b, c, m = triangles._corner_lift(*t, ())
    assert (a, b, c // m) == (1, 2, 3)

    t = StableRightTriangle(
        corner=(F(1, 2), F(1, 2)),
        y_vertex=(F(1, 2), F(7, 2)),
        x_vertex=(F(9, 2), F(1, 2)),
    )
    assert stable_right_count(t) == 6

    degenerate = StableRightTriangle(
        corner=(F(1, 2), F(1, 2)),
        y_vertex=(F(1, 2), F(1, 2)),
        x_vertex=(F(1, 2), F(1, 2)),
    )
    assert stable_right_count(degenerate) == 0


def test_stable_right_degenerate_segments():
    t = StableRightTriangle(corner=(0, 0), y_vertex=(0, F(7, 2)), x_vertex=(0, 0))
    assert stable_right_count(t) == 4
    t = StableRightTriangle(corner=(1, 1), y_vertex=(1, 1), x_vertex=(4, 1))
    assert stable_right_count(t) == 4


def test_stable_right_against_brute_force():
    rng = random.Random(2024)
    for _ in range(120):
        t = rand_stable_right(rng)
        assert stable_right_count(t) == brute_triangle(Triangle(*t.vertices))
    for _ in range(30):
        t = rand_gcd_shift_instance(rng)
        assert stable_right_count(t) == brute_triangle(Triangle(*t.vertices))


def test_stable_right_symmetry_invariance():
    rng = random.Random(5)
    for _ in range(40):
        t = rand_stable_right(rng)
        base = stable_right_count(t)
        ax, ay = t.corner
        cx = t.x_vertex[0]
        by = t.y_vertex[1]
        variants = [
            ((ax + 3, ay - 2), (cx + 3, ay - 2), (ax + 3, by - 2)),  # translation
            ((-ax, ay), (-cx, ay), (-ax, by)),  # mirror x
            ((ax, -ay), (cx, -ay), (ax, -by)),  # mirror y
            ((ay, ax), (by, ax), (ay, cx)),  # transpose: legs swap roles
        ]
        for corner, x_vertex, y_vertex in variants:
            v = StableRightTriangle(corner=corner, x_vertex=x_vertex, y_vertex=y_vertex)
            assert stable_right_count(v) == base


def test_boundary_exclusions_worked_triangle():
    t = StableRightTriangle(corner=(0, 0), y_vertex=(0, F(46, 7)), x_vertex=(F(46, 3), 0))
    assert stable_right_count(t) == 63
    on_hypotenuse = TwoGenSemigroup(3, 7).denumerant(46)
    assert stable_right_count(t, exclude={HYPOTENUSE}) == 63 - on_hypotenuse == 61
    assert stable_right_count(t, exclude={LEG_Y}) == 63 - 7
    assert stable_right_count(t, exclude={LEG_X}) == 63 - 16
    interior = stable_right_count(t, exclude={HYPOTENUSE, LEG_X, LEG_Y})
    # brute force with strict inequalities x > 0, y > 0, 3x + 7y < 46
    assert interior == reference_triangle(Triangle(*t.vertices), include_boundary=False)
    assert interior == 39


def test_boundary_exclusions_reject_unknown_part():
    t = StableRightTriangle(corner=(0, 0), y_vertex=(0, 2), x_vertex=(2, 0))
    with pytest.raises(ValueError):
        stable_right_count(t, exclude={"edge"})
    with pytest.raises(ValueError):
        triangles._corner_lift(*t, {"edge"})


_SUBSETS = [frozenset(c) for r in range(4) for c in combinations((HYPOTENUSE, LEG_X, LEG_Y), r)]


def _degenerate_triangles():
    """Points and axis-parallel segments in both directions, on an
    integral corner, a non-integral one and two integral in one coordinate
    only."""
    out = []
    for corner in ((2, -1), (F(1, 2), F(-1, 3)), (2, F(1, 3)), (F(1, 2), 3)):
        cx, cy = corner
        out.append(StableRightTriangle(corner=corner, x_vertex=corner, y_vertex=corner))
        for length in (F(7, 2), -4):
            out.append(StableRightTriangle(corner=corner, x_vertex=corner,
                                           y_vertex=(cx, cy + length)))
            out.append(StableRightTriangle(corner=corner, x_vertex=(cx + length, cy),
                                           y_vertex=corner))
    return out


def test_boundary_exclusions_against_brute_force():
    """Every exclusion subset.  Each left-out part is a strict inequality:
    a lifted corner for a leg, c - 1 for the hypotenuse before the
    gcd(a, b) > 1 flooring; a degenerate triangle is a zero-width box
    from the lifted corner, all of it hypotenuse."""
    rng = random.Random(99)
    triangles = [rand_stable_right(rng) for _ in range(60)]
    triangles += [rand_gcd_shift_instance(rng) for _ in range(40)]
    for t in triangles + _degenerate_triangles():
        for parts in _SUBSETS:
            expected = brute_triangle(Triangle(*t.vertices),
                                      exclude_segments=t.boundary_segments(parts))
            assert stable_right_count(t, exclude=parts) == expected, (t, sorted(parts))


def test_degenerate_reduction_is_the_closed_point_or_segment():
    """Whatever the exclusions, the lift of a point has a == b == 0, that
    of a horizontal segment a == 0 (a is the vertical extent) and that of a
    vertical one b == 0; c is then the count itself, with m = 1."""
    for t in _degenerate_triangles():
        expected = (t.y_vertex == t.corner, t.x_vertex == t.corner)
        for parts in _SUBSETS:
            a, b, c, m = triangles._corner_lift(*t, parts)
            assert (a == 0, b == 0) == expected, (t, sorted(parts))
            assert (c, m) == (stable_right_count(t, exclude=parts), 1), (t, sorted(parts))


def test_excluded_reduction_is_the_quadrant_count_of_the_half_open_triangle():
    t = StableRightTriangle(corner=(F(1, 3), F(1, 2)), y_vertex=(F(1, 3), F(23, 4)),
                            x_vertex=(F(19, 2), F(1, 2)))
    a, b, c, m = triangles._corner_lift(*t, ())
    assert (a, b, c // m) == (63, 110, 480)
    a, b, c, m = triangles._corner_lift(*t, {HYPOTENUSE, LEG_Y})
    assert (a, b, c // m) == (63, 110, 480)
    assert quadrant_count(a, b, c // m) == stable_right_count(
        t, exclude={HYPOTENUSE, LEG_Y}) == 23


@pytest.mark.parametrize("coords", [("0", "0", "0", "46/7", "46/3", "0"),
                                    ("1", "1", "1", "1", "4", "1"),
                                    ("1/2", "1/2", "1/2", "1/2", "1/2", "1/2")],
                         ids=["quadrant", "segment", "point"])
@pytest.mark.parametrize("flags", [[], ["--trace"], ["--exclude", "hyp,legy"],
                                   ["--trace", "--exclude", "hyp,legx,legy"]])
def test_rtri_request_makes_one_corner_lift(monkeypatch, coords, flags):
    """One rtri request lifts its triangle's corner once: its count and its
    trace read the same lift, through the CLI or through triangles."""
    calls = []
    lift = triangles._corner_lift
    spy = lambda *args: calls.append(args) or lift(*args)
    monkeypatch.setattr(triangles, "_corner_lift", spy)
    assert cli.run(["rtri", *flags, "--", *coords]) == 0
    assert len(calls) == 1, calls


@st.composite
def _big_stable_right(draw):
    """A non-degenerate stable right triangle with coordinates up to 1e12
    over small denominators."""
    coord = st.builds(F, st.integers(-10**12, 10**12), st.sampled_from((1, 1, 2, 3, 7, 12)))
    ax, ay = draw(coord), draw(coord)
    cx = draw(coord.filter(lambda v: v != ax))
    by = draw(coord.filter(lambda v: v != ay))
    return StableRightTriangle(corner=(ax, ay), x_vertex=(cx, ay), y_vertex=(ax, by))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_big_stable_right())
def test_exclusion_removes_exactly_the_boundary_points(t):
    """Past the oracle: leaving out one part removes its segment_count; all
    three remove the boundary, whose parts share the three vertices."""
    closed = stable_right_count(t)
    counts = {part: segment_count(getattr(t, part)) for part in (HYPOTENUSE, LEG_X, LEG_Y)}
    for part, on_part in counts.items():
        assert closed - stable_right_count(t, exclude={part}) == on_part
    integral_vertices = sum(p[0].denominator == p[1].denominator == 1 for p in t.vertices)
    assert (closed - stable_right_count(t, exclude=set(counts))
            == sum(counts.values()) - integral_vertices)


# --- Ehrhart dilation: each count against its exact area, at any scale -----------
#
# For a triangle P whose vertex denominators divide L, f(t) = #(tP ∩ Z²) is
# a quasi-polynomial of degree 2 with period L and leading coefficient
# area(P) (Beck and Robins, Computing the Continuous Discretely, ch. 3), so
# f(t + 2L) - 2 f(t + L) + f(t) = 2·area(P)·L² for every integer t >= 1.
# A half-open triangle is the closed one minus the points of some closed
# segments, whose counts are linear on each class mod L: the same holds.
# The area is the shoelace sum, computed with no floor sum.


def _dilation_second_difference(count, vertices, t):
    """f(t + 2L) - 2 f(t + L) + f(t), for f(k) = count(the vertices times k)
    and L the lcm of their denominators, and twice the area times L²."""
    L = lcm(*(c.denominator for p in vertices for c in p))

    def f(k):
        return count([(k * x, k * y) for x, y in vertices])

    (x0, y0), (x1, y1), (x2, y2) = vertices
    twice_area = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    return f(t + 2 * L) - 2 * f(t + L) + f(t), twice_area * L * L


def _rational_1e6(rng):
    q = rng.randint(1, 16)
    return F(rng.randint(-10**6 * q, 10**6 * q), q)


def _triangle_count_of(vertices):
    return triangle_count(Triangle(*vertices))


def test_triangle_count_dilates_as_its_area():
    """The Ehrhart identity for triangle_count: 300 random triangles at
    +-1e6 over denominators up to 16, and 30 triangles of 300 digits over
    denominators up to 10**6, dilated by t up to 10**6."""
    rng = random.Random(2026)
    for _ in range(300):
        vertices = [(_rational_1e6(rng), _rational_1e6(rng)) for _ in range(3)]
        diff, expected = _dilation_second_difference(_triangle_count_of, vertices,
                                                     rng.randint(1, 50))
        assert diff == expected, vertices
    for _ in range(30):
        vertices = [(rand_rational_300(rng), rand_rational_300(rng)) for _ in range(3)]
        diff, expected = _dilation_second_difference(_triangle_count_of, vertices,
                                                     rng.randint(1, 10**6))
        assert diff == expected, vertices


def _right_triangle_vertices(rng, coord):
    ax, ay, cx, by = (coord(rng) for _ in range(4))
    return [(ax, ay), (cx, ay), (ax, by)]


def test_half_open_stable_right_count_dilates_as_its_area():
    """The Ehrhart identity for stable_right_count under each of the 8
    subsets of excluded parts: 100 random right triangles at +-1e6 over
    denominators up to 16, and 10 of 300 digits over denominators up to
    10**6, dilated by t up to 10**6."""
    rng = random.Random(2027)
    cases = ([(_right_triangle_vertices(rng, _rational_1e6), rng.randint(1, 50))
              for _ in range(100)]
             + [(_right_triangle_vertices(rng, rand_rational_300), rng.randint(1, 10**6))
                for _ in range(10)])
    for vertices, t in cases:
        for parts in _SUBSETS:
            def count(points, parts=parts):
                return stable_right_count(StableRightTriangle(*points), exclude=parts)

            diff, expected = _dilation_second_difference(count, vertices, t)
            assert diff == expected, (vertices, sorted(parts))


def test_segment_count_second_difference_anchored_by_enumeration():
    """A closed segment S with endpoint denominators dividing L is an
    Ehrhart polytope of dimension at most 1: f(t) = #(tS ∩ Z²) is linear on
    each class t = r + k*L, so its second difference in steps of L is 0,
    and the scanned counts for t < 2L give every count,
    f(t) = f(r) + k*(f(r + L) - f(r)).  Checked on 60 segments (slanted,
    axis-parallel and points) over L up to 12, each dilated by t below 2L,
    up to 10**6 and of 300 digits."""
    rng = random.Random(2030)
    for i in range(60):
        L = rng.randint(1, 12)
        p, q = ((F(rng.randint(-2 * L, 2 * L), L), F(rng.randint(-2 * L, 2 * L), L))
                for _ in range(2))
        if i % 4 == 1:
            q = (p[0], q[1])
        elif i % 4 == 2:
            q = (q[0], p[1])
        elif i % 4 == 3:
            q = p

        def dilated(t, p=p, q=q):
            return Segment((t * p[0], t * p[1]), (t * q[0], t * q[1]))

        table = [brute_segment(dilated(t)) for t in range(2 * L)]
        for t in (rng.randrange(2 * L), rng.randint(0, 10**6), rng.randrange(10**300)):
            k, r = divmod(t, L)
            assert segment_count(dilated(t)) == table[r] + k * (table[r + L] - table[r]), (p, q, t)
