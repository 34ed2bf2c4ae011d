import copy
import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    CASE_GENERATORS,
    apply_symmetry,
    rand_point,
    rand_rational_300,
    rand_tri_degenerate,
    rand_triangle_any,
    random_simple_polygon,
)
from latticecount import TwoGenSemigroup, polygons, quadrant_blocks
from latticecount.oracle import brute_polygon, brute_triangle
from latticecount.polygons import (
    TRIANGLE_CASES,
    Polygon,
    Triangle,
    _cross,
    _in_box,
    pick_audit,
    polygon_count,
    polygon_from_text,
    signed_area2,
    triangle_case,
    triangle_count,
)
from latticecount.triangles import (
    HYPOTENUSE,
    Segment,
    StableRightTriangle,
    _integer_points,
    rect_count,
    segment_count,
    stable_right_count,
)
from references import (
    CASE_DEGENERATE,
    CASE_ONE_CORNER,
    CASE_STABLE,
    CASE_TWO_ADJACENT,
    CASE_TWO_OPPOSITE,
)

F = Fraction


# --- triangle classification and counting -------------------------------------


def test_case_examples():
    assert triangle_case(Triangle((0, 0), (4, 1), (1, 3))) == CASE_ONE_CORNER
    assert triangle_case(Triangle((0, 0), (F(7, 2), 0), (0, F(7, 2)))) == CASE_STABLE
    assert triangle_case(Triangle((0, 0), (4, 0), (1, 3))) == CASE_TWO_ADJACENT
    assert triangle_case(Triangle((0, 0), (4, 4), (1, 3))) == CASE_TWO_OPPOSITE
    assert triangle_case(Triangle((0, 0), (1, 1), (2, 2))) == CASE_DEGENERATE


def test_triangle_count_examples():
    assert triangle_count(Triangle((0, 0), (4, 1), (1, 3))) == 8
    assert triangle_count(Triangle((0, 0), (F(7, 2), 0), (0, F(7, 2)))) == 10
    assert triangle_count(Triangle((0, 0), (1, 1), (2, 2))) == 3


def test_triangle_count_degenerate_forms():
    assert triangle_count(Triangle((1, 1), (1, 1), (1, 1))) == 1
    assert triangle_count(Triangle((F(1, 2), 0), (F(1, 2), 0), (F(1, 2), 0))) == 0
    assert triangle_count(Triangle((0, 0), (0, 0), (3, 3))) == 4
    assert triangle_count(Triangle((0, 0), (2, 1), (4, 2))) == 3


def test_triangle_count_randomized_per_case():
    rng = random.Random(4242)
    for case, gen in CASE_GENERATORS.items():
        for _ in range(30):
            t = gen(rng)
            assert triangle_case(t) == case
            assert triangle_count(t) == brute_triangle(t), t
            s = apply_symmetry(rng, t)
            assert triangle_count(s) == brute_triangle(s), s


def test_triangle_count_randomized_any():
    rng = random.Random(31415)
    for _ in range(120):
        t = rand_triangle_any(rng)
        assert triangle_count(t) == brute_triangle(t), t
    for _ in range(40):
        t = rand_tri_degenerate(rng)
        assert triangle_case(t) == CASE_DEGENERATE
        assert triangle_count(t) == brute_triangle(t), t


def test_triangle_count_invariances():
    rng = random.Random(777)
    for _ in range(25):
        t = rand_triangle_any(rng)
        base = triangle_count(t)
        v1, v2, v3 = t.vertices
        # vertex permutation
        assert triangle_count(Triangle(v3, v1, v2)) == base
        assert triangle_count(Triangle(v2, v1, v3)) == base
        # integer translation
        shifted = Triangle(*[(x + 5, y - 7) for x, y in t.vertices])
        assert triangle_count(shifted) == base
        # the eight lattice symmetries
        for sx in (1, -1):
            for sy in (1, -1):
                for swap in (False, True):
                    pts = [(sx * x, sy * y) for x, y in t.vertices]
                    if swap:
                        pts = [(y, x) for x, y in pts]
                    assert triangle_count(Triangle(*pts)) == base


# --- unimodular invariance -------------------------------------------------------
# A map x -> M*x + t with M in GL2(Z) and t in Z^2 is a bijection of the
# lattice, so it leaves every count unchanged.  The maps are products of
# elementary shears, the swap of the axes and a reflection, which generate
# GL2(Z).


def _unimodular(pts, steps, shift):
    for kind, k in steps:
        if kind == "shear_x":
            pts = [(x + k * y, y) for x, y in pts]
        elif kind == "shear_y":
            pts = [(x, y + k * x) for x, y in pts]
        elif kind == "swap":
            pts = [(y, x) for x, y in pts]
        else:
            pts = [(-x, y) for x, y in pts]
    return [(x + shift[0], y + shift[1]) for x, y in pts]


_BIG = st.builds(F, st.integers(-10**12, 10**12), st.sampled_from((1, 2, 3, 7, 12)))
_STEP = st.tuples(st.sampled_from(("shear_x", "shear_y", "swap", "reflect")),
                  st.integers(-3, 3))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_BIG, _BIG), min_size=3, max_size=3),
       st.lists(_STEP, min_size=1, max_size=6),
       st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)))
def test_triangle_count_is_unimodular_invariant(pts, steps, shift):
    moved = _unimodular(pts, steps, shift)
    assert triangle_count(Triangle(*moved)) == triangle_count(Triangle(*pts))


def test_shears_move_one_triangle_through_every_case():
    e = 10**12
    stable = [(F(e, 3), F(-e, 7)), (F(e, 3), F(3 * e, 5)), (2 * e + F(1, 2), F(-e, 7))]
    flat = [(F(e, 3), F(-e, 7)), (F(e, 3) + 2, F(-e, 7) + 3), (F(e, 3) + 4, F(-e, 7) + 6)]
    paths = {
        CASE_STABLE: [],
        CASE_TWO_ADJACENT: [("shear_x", 1)],
        CASE_TWO_OPPOSITE: [("shear_x", -1)],
        CASE_ONE_CORNER: [("shear_x", 2), ("shear_y", 1)],
    }
    for pts in (stable, flat):
        base = triangle_count(Triangle(*pts))
        for case, steps in paths.items():
            moved = Triangle(*_unimodular(pts, steps, (5, -9)))
            assert triangle_case(moved) == (case if pts is stable else CASE_DEGENERATE)
            assert triangle_count(moved) == base, (case, pts is stable)


def test_triangle_count_on_every_half_grid_triangle():
    """Every triangle with vertices on {0, 1/2, 1, 3/2, 2}^2, in both
    orientations: each case, and each way a vertex can meet a side or a
    corner of the bounding box."""
    grid = [(F(i, 2), F(j, 2)) for i in range(5) for j in range(5)]
    cases = set()
    for a, b, c in itertools.combinations(grid, 3):
        for t in (Triangle(a, b, c), Triangle(a, c, b)):
            cases.add(triangle_case(t))
            assert triangle_count(t) == brute_triangle(t), t
    assert cases == set(TRIANGLE_CASES)


_SPLIT = st.sampled_from((F(1, 2), F(1, 3), F(3, 4))) | st.builds(
    lambda n, m: F(n, n + m), st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_BIG, _BIG), min_size=3, max_size=3), _SPLIT)
def test_triangle_count_is_additive_over_a_split(pts, t):
    """P on BC splits ABC into ABP and APC, which share the segment AP."""
    a, b, c = pts
    assume(_turn(a, b, c) != 0)
    p = (b[0] + t * (c[0] - b[0]), b[1] + t * (c[1] - b[1]))
    assert triangle_count(Triangle(a, b, c)) == (triangle_count(Triangle(a, b, p))
                                                 + triangle_count(Triangle(a, p, c))
                                                 - segment_count(Segment(a, p)))


def test_triangle_count_is_unimodular_invariant_at_300_digits():
    rng = random.Random(4046)
    kinds = ("shear_x", "shear_y", "swap", "reflect")
    for _ in range(30):
        pts = [(rand_rational_300(rng), rand_rational_300(rng)) for _ in range(3)]
        steps = [(rng.choice(kinds), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
        shift = (rng.randrange(-10**300, 10**300), rng.randrange(-10**300, 10**300))
        moved = _unimodular(pts, steps, shift)
        assert triangle_count(Triangle(*moved)) == triangle_count(Triangle(*pts)), (pts, steps)


def test_triangle_count_is_additive_over_a_split_at_300_digits():
    """As test_triangle_count_is_additive_over_a_split, with 300-digit
    coordinates and P at a ratio n/(n + m) along BC, n, m <= 10**6."""
    rng = random.Random(4047)
    for _ in range(30):
        a, b, c = ((rand_rational_300(rng), rand_rational_300(rng)) for _ in range(3))
        t = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        t /= 1 + t
        p = (b[0] + t * (c[0] - b[0]), b[1] + t * (c[1] - b[1]))
        assert triangle_count(Triangle(a, b, c)) == (triangle_count(Triangle(a, b, p))
                                                     + triangle_count(Triangle(a, p, c))
                                                     - segment_count(Segment(a, p))), (a, b, c, t)


def _bounding_box_rule(t):
    """The paper's count of a nondegenerate triangle, on exact Fractions
    through public counts only.  With every vertex on a side of its tight
    bounding box, the triangle is the box less, per slanted edge, the
    stable right triangle that the edge cuts off, hypotenuse excluded: its
    right angle is the corner of the box at (u.x, w.y) or (w.x, u.y) on the
    far side of the edge from the third vertex.  A triangle with a vertex
    strictly inside the box is cut by the vertical line through that vertex
    into two such triangles, which share the cut segment."""
    v = list(t.vertices)
    xs, ys = zip(*v)
    for i, mid in enumerate(v):
        if min(xs) < mid[0] < max(xs) and min(ys) < mid[1] < max(ys):
            lo, hi = v[i - 1], v[i - 2]
            cut = (mid[0], lo[1] + (hi[1] - lo[1]) * (mid[0] - lo[0]) / (hi[0] - lo[0]))
            return (_bounding_box_rule(Triangle(lo, mid, cut))
                    + _bounding_box_rule(Triangle(mid, hi, cut))
                    - segment_count(Segment(mid, cut)))
    total = rect_count((min(xs), min(ys)), (max(xs), max(ys)))
    for i, (u, w) in enumerate(zip(v, v[1:] + v[:1])):
        if u[0] == w[0] or u[1] == w[1]:
            continue
        third = v[i - 1]
        cut = StableRightTriangle((u[0], w[1]), w, u)
        if (_cross(u, w, cut.corner) > 0) == (_cross(u, w, third) > 0):
            cut = StableRightTriangle((w[0], u[1]), u, w)
        total -= stable_right_count(cut, exclude={HYPOTENUSE})
    return total


def test_triangle_count_equals_the_bounding_box_rule_far_from_the_origin():
    """triangle_count (one floor_sum per edge) and the paper's bounding-box
    rule are independent decompositions.  They agree on 3,000 triangles
    near 1e18 with denominators up to 1e9 + 7, far past the oracle's reach:
    each case generator's triangle under a random lattice symmetry,
    stretched and shifted per axis, which keeps its case."""
    rng = random.Random(9)
    cases = Counter()
    for i in range(3000):
        small = apply_symmetry(rng, CASE_GENERATORS[TRIANGLE_CASES[1 + i % 4]](rng))
        shift, stretch = [], []
        for _ in range(2):
            den = rng.randint(1, 10**9 + 7)
            shift.append(rng.randint(-10**18, 10**18) + F(rng.randint(0, den - 1), den))
            stretch.append(F(rng.randint(1, 10**12), rng.randint(1, 10**9 + 7)))
        t = Triangle(*((shift[0] + x * stretch[0], shift[1] + y * stretch[1])
                       for x, y in small.vertices))
        cases[triangle_case(t)] += 1
        assert triangle_count(t) == _bounding_box_rule(t), t
    assert set(cases) == set(TRIANGLE_CASES) - {CASE_DEGENERATE}


# --- polygons -------------------------------------------------------------------


def test_polygon_validation():
    Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))  # fine
    with pytest.raises(ValueError, match="at least 3"):
        Polygon(((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="repeated"):
        Polygon(((0, 0), (1, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="intersect"):
        Polygon(((0, 0), (2, 2), (2, 0), (0, 2)))  # bowtie
    with pytest.raises(ValueError, match="overlap"):
        Polygon(((0, 0), (4, 0), (2, 0)))  # backtracking edge
    with pytest.raises(ValueError, match="edges 0-1 and 3-0 overlap"):
        # the last edge ends on the first, which it also folds back onto
        Polygon(((0, 0), (4, 0), (4, 4), (2, 0)))
    with pytest.raises(ValueError, match="edges 0-1 and 3-4 intersect"):
        # vertex of one edge lying on a non-incident edge
        Polygon(((0, 0), (4, 0), (4, 4), (2, 0), (0, 4)))


# A vertex at (1/3, 1/3) lies exactly on the edge (0, 0)-(1, 1) of this
# hexagon; the same vertex moved 1/1000 to the left does not.
_ON_EDGE = ((0, 0), (1, 1), (1, 3), (-1, 3), (F(1, 3), F(1, 3)), (-1, 0))
_OFF_EDGE = ((0, 0), (1, 1), (1, 3), (-1, 3), (F(1, 3) - F(1, 1000), F(1, 3)), (-1, 0))


def test_polygon_validation_exact_incidences():
    with pytest.raises(ValueError, match="edges 0-1 and 4-5 intersect"):
        Polygon(_ON_EDGE)
    poly = Polygon(_OFF_EDGE)
    assert polygon_count(poly) == brute_polygon(poly) == 9
    # (7/6, 1/6) is the midpoint of the first edge: the second edge folds back
    with pytest.raises(ValueError, match="edges 0-1 and 1-2 overlap"):
        Polygon(((0, 0), (F(7, 3), F(1, 3)), (F(7, 6), F(1, 6)), (0, F(5, 2))))


def test_polygon_mixed_denominators():
    # (3/16, 5/6) is the midpoint of the edge (0, 0)-(3/8, 5/3)
    with pytest.raises(ValueError, match="edges 0-1 and 3-4 intersect"):
        Polygon(((0, 0), (F(3, 8), F(5, 3)), (F(-7, 5), F(9, 4)), (F(3, 16), F(5, 6)),
                 (F(-11, 13), F(-1, 7))))
    poly = Polygon(((F(1, 16), 0), (F(15, 2), F(1, 3)), (F(29, 4), F(37, 5)),
                    (F(13, 11), F(55, 9)), (F(-3, 7), F(50, 13)), (F(-5, 12), F(1, 15)),
                    (F(1, 6), F(-7, 10))))
    assert polygon_count(poly) == brute_polygon(poly) == 48


def _outcome(vertices):
    """The validation message, or the stored vertex order as indices into
    the input."""
    try:
        poly = Polygon(vertices)
    except ValueError as exc:
        return str(exc)
    index = {v: i for i, v in enumerate(vertices)}
    return [index[v] for v in poly.vertices]


def test_validation_and_triangulation_scale_invariant():
    rng = random.Random(2024)
    cases = [_ON_EDGE, _OFF_EDGE]
    for _ in range(40):
        n = rng.randint(3, 9)
        cases.append(random_simple_polygon(rng, n, integral=False).vertices)
        cases.append(tuple(rand_point(rng) for _ in range(n)))  # mostly not simple
    seen = set()
    for vertices in cases:
        base = _outcome(vertices)
        seen.add(isinstance(base, str))
        for k in (2, 3, 16, 1001):
            assert _outcome(tuple((F(x) / k, F(y) / k) for x, y in vertices)) == base
    assert seen == {True, False}


# --- the sweep against the reference scan -------------------------------------
# The reference tests every pair of edges in (i, j) order; validation names a
# pair it finds offending, and the same pair when only one offends.  On small
# half-integer grids almost every vertex list is degenerate.


def _offences(pts):
    """Every offending pair of edges (i, j), i < j, of the closed polygon pts,
    in (i, j) order, mapped to its message: adjacent edges that overlap, and
    others that touch at all.  O(n^2)."""
    n = len(pts)
    found = {}
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = pts[j], pts[(j + 1) % n]
            edges = f"edges {i}-{i + 1} and {j}-{(j + 1) % n}"
            if j == i + 1 or (i == 0 and j == n - 1):
                if polygons._folds_back(*((a, b, d) if j == i + 1 else (c, a, b))):
                    found[i, j] = f"polygon {edges} overlap"
            elif polygons._segments_touch(a, b, c, d):
                found[i, j] = f"polygon is not simple: {edges} intersect"
    return found


def _features(pts):
    """The degeneracies of an integer vertex list that the sweep must see."""
    n = len(pts)
    edges = [(pts[k], pts[(k + 1) % n]) for k in range(n)]
    found = set()
    if any(a[0] == b[0] for a, b in edges):
        found.add("vertical edge")
    if max(Counter(x for x, _ in pts).values()) >= 3:
        found.add("three vertices on one x")
    for k, (a, b) in enumerate(edges):
        for t, (c, d) in enumerate(edges):
            if (k - t) % n in (0, 1, n - 1):
                continue
            o1, o2, o3, o4 = _cross(a, b, c), _cross(a, b, d), _cross(c, d, a), _cross(c, d, b)
            if o1 == 0 and _in_box(c, a, b):
                found.add("vertex on a non-incident edge")
                if o2 == 0:
                    found.add("collinear overlapping edges")
            if o1 * o2 < 0 and o3 * o4 < 0:
                found.add("bowtie")
    return found


def test_sweep_agrees_with_the_reference_scan():
    grid = [F(k, 2) for k in range(3)]
    cases = list(itertools.product(itertools.product(grid, grid), repeat=4))
    rng = random.Random(1976)
    grid = [F(k, 2) for k in range(4)]
    cases += [tuple((rng.choice(grid), rng.choice(grid)) for _ in range(rng.randint(3, 7)))
              for _ in range(4000)]
    # edges a-b and c-d on one row, column or diagonal, joined through two
    # grid points: collinear non-adjacent edges, overlapping or not
    lines = ([[(x, y) for x in grid] for y in grid] + [[(x, y) for y in grid] for x in grid]
             + [list(zip(grid, grid)), list(zip(grid, reversed(grid)))])
    for _ in range(1000):
        a, b, c, d = rng.sample(rng.choice(lines), 4)
        cases.append((a, b, (rng.choice(grid), rng.choice(grid)),
                      c, d, (rng.choice(grid), rng.choice(grid))))
    swept, features = Counter(), Counter()
    for vertices in cases:
        base = _outcome(vertices)
        _, pts = _integer_points(vertices)
        n = len(pts)
        if len(set(pts)) < n:
            assert base == "polygon has a repeated vertex", vertices
            continue
        offences = _offences(pts)
        valid = not offences and signed_area2(pts) != 0
        assert isinstance(base, str) != valid, vertices
        if offences:  # byte-identical to the reference where one pair offends
            assert base in offences.values(), vertices
        overlaps = [m for m in offences.values() if m.endswith("overlap")]
        if overlaps:  # named before any touch, the first by (i, j)
            assert base == overlaps[0], vertices
            continue
        touch = polygons._sweep_touches(pts)
        assert (touch is not None) == bool(offences), vertices
        if touch:
            assert tuple(sorted(touch)) in offences, vertices
        swept[touch is not None] += 1
        features.update(_features(pts))
    assert min(swept[True], swept[False]) > 1000, swept
    assert len(features) == 5 and min(features.values()) > 100, features


def _comb(teeth, length):
    """A simple polygon of 4 * teeth vertices: long horizontal teeth, all
    overlapping in x, on a vertical spine."""
    pts = [(0, 0)]
    for k in range(teeth):
        pts += [(length, 2 * k), (length, 2 * k + 1)]
        if k < teeth - 1:
            pts += [(1, 2 * k + 1), (1, 2 * k + 2)]
    return pts + [(0, 2 * teeth - 1)]


def _invalid_comb(teeth):
    """2t + 5 vertices, for t teeth: a zigzag, then a bowtie whose edges
    2t-2t+1 and 2t+2-2t+3 cross, its valid twin having none of the
    vertices 2t+1 to 2t+3."""
    pts = []
    for i in range(teeth):
        pts += [(2 * i, 0), (2 * i + 1, 10)]
    x = 2 * teeth
    return pts + [(x, -5), (x - 4, -9), (x - 4, -6), (x, -9), (-1, -5)]


@pytest.mark.parametrize("shape", ["comb", "star", "invalid comb"])
def test_validation_work_is_bounded(monkeypatch, shape):
    if shape == "comb":
        pts = _comb(500, 10**6)
    elif shape == "star":
        pts = _star(random.Random(1000), 1000, 10**6, (7, 3))[1]
    else:
        pts = _invalid_comb(1000)
    calls = []

    def counted(*args, _touch=polygons._segments_touch):
        calls.append(args)
        return _touch(*args)

    monkeypatch.setattr(polygons, "_segments_touch", counted)
    n = len(pts)
    if shape == "invalid comb":
        assert n == 2005
        with pytest.raises(ValueError, match="not simple"):
            Polygon(tuple(pts))
    else:
        assert n == (2000 if shape == "comb" else 1000)
        assert len(Polygon(tuple(pts)).vertices) == n
    assert 0 < len(calls) <= 4 * n


def test_polygon_count_lattice_invariant():
    rng = random.Random(55)
    for _ in range(12):
        poly = random_simple_polygon(rng, rng.randint(3, 8), integral=False)
        base = polygon_count(poly)
        assert base == brute_polygon(poly), poly.vertices
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        moved = Polygon(tuple((x + dx, y + dy) for x, y in poly.vertices))
        assert polygon_count(moved) == base
        for sx in (1, -1):
            for sy in (1, -1):
                for swap in (False, True):
                    pts = [(sx * x, sy * y) for x, y in poly.vertices]
                    if swap:
                        pts = [(y, x) for x, y in pts]
                    assert polygon_count(Polygon(tuple(pts))) == base


def test_polygon_orientation_normalized():
    cw = Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))
    assert signed_area2(cw.vertices) > 0


def test_polygon_count_examples():
    assert polygon_count(Polygon(((0, 0), (3, 0), (3, 3), (0, 3)))) == 16
    assert polygon_count(Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))) == 8
    assert polygon_count(Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))) == 4


def test_polygon_count_rational_vertices():
    poly = Polygon(((F(-1, 2), F(-1, 2)), (F(5, 2), F(-1, 2)), (F(5, 2), F(5, 2)),
                    (F(-1, 2), F(5, 2))))
    assert polygon_count(poly) == 9


def test_polygon_count_against_brute_force():
    rng = random.Random(987)
    for _ in range(40):
        n = rng.randint(3, 10)
        poly = random_simple_polygon(rng, n, integral=True)
        assert polygon_count(poly) == brute_polygon(poly), poly.vertices
    for _ in range(30):
        n = rng.randint(3, 8)
        poly = random_simple_polygon(rng, n, integral=False)
        assert polygon_count(poly) == brute_polygon(poly), poly.vertices


# --- the edge sum's boundary corrections, one shape per rule ------------------------

_CORRECTION_SHAPES = {
    # (4, 0)-(4, 4) is an upward vertical edge with (4, 1)..(4, 3) inside it
    "upward vertical edge": ((0, 0), (4, 0), (4, 4), (1, 2)),
    # (4, 2) is a left turn with both neighbours to its left
    "convex vertex at the right": ((0, 0), (4, 2), (0, 3)),
    # (2, 2) is a reflex vertex whose two edges both leave to the right
    "reflex vertex opening right": ((0, 0), (4, 0), (2, 2), (4, 4), (0, 4)),
    # (3, 2) is a straight vertex on the vertical edge (3, 0)-(3, 4)
    "straight vertex on a vertical edge": ((0, 0), (3, 0), (3, 2), (3, 4), (0, 4)),
}


@pytest.mark.parametrize("shape", _CORRECTION_SHAPES)
def test_edge_sum_corrections_against_brute_force(shape):
    """Each rule under the 8 lattice symmetries, which turn upward edges into
    downward or horizontal ones and left into right, and at denominators
    1, 2 and 7, which move the vertices on and off the lattice."""
    for den in (1, 2, 7):
        base = [(F(5 * x, den), F(5 * y, den)) for x, y in _CORRECTION_SHAPES[shape]]
        for sx in (1, -1):
            for sy in (1, -1):
                for swap in (False, True):
                    pts = [(sx * x, sy * y) for x, y in base]
                    if swap:
                        pts = [(y, x) for x, y in pts]
                    poly = Polygon(tuple(pts))
                    assert polygon_count(poly) == brute_polygon(poly), (shape, den, pts)


def _star(rng, n, radius, dens):
    """A lattice centre and a polygon star-shaped around it, one vertex per
    angular sector, with denominators drawn from dens."""
    centre = (F(rng.randint(-10**6, 10**6)), F(rng.randint(-10**6, 10**6)))
    while True:
        pts = []
        for i in range(n):
            theta = 2 * math.pi * (i + rng.uniform(0.15, 0.85)) / n
            r = radius * rng.uniform(0.6, 1.0)
            den = rng.choice(dens)
            pts.append((F(round((centre[0] + r * math.cos(theta)) * den), den),
                        F(round((centre[1] + r * math.sin(theta)) * den), den)))
        if all(_turn(centre, pts[i - 1], pts[i]) > 0 for i in range(n)):
            return centre, pts


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def test_polygon_count_matches_the_fan_of_triangles():
    """Past the oracle: a star polygon is the fan of triangles around its
    centre, which share the spokes, and all of them the centre."""
    rng = random.Random(1906)
    for _ in range(8):
        centre, pts = _star(rng, rng.randint(5, 40), 10**6, (1, 1, 2, 3, 7, 16))
        fan = sum(triangle_count(Triangle(centre, pts[i - 1], pts[i])) for i in range(len(pts)))
        spokes = sum(segment_count(Segment(centre, p)) for p in pts)
        assert polygon_count(Polygon(tuple(pts))) == fan - spokes + 1


def _convex_hull(points):
    """Strictly convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(reversed(pts))


@st.composite
def _convex_polygon(draw):
    """A convex polygon with coordinates up to 1e12 over small denominators.
    Half of the x coordinates are taken from three lattice lines, which
    makes vertical edges and diagonals."""
    coord = st.builds(F, st.integers(-10**12, 10**12), st.sampled_from((1, 1, 2, 3, 7, 12)))
    x = coord | st.sampled_from((F(-10**12), F(0), F(10**12)))
    hull = _convex_hull(draw(st.lists(st.tuples(x, coord), min_size=4, max_size=9)))
    assume(len(hull) >= 4)
    return hull


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_convex_polygon())
def test_polygon_count_is_additive_over_every_diagonal(hull):
    n = len(hull)
    whole = polygon_count(Polygon(tuple(hull)))
    for i in range(n):
        for j in range(i + 2, n - (i == 0)):
            part, rest = hull[i:j + 1], hull[j:] + hull[:i + 1]
            assert whole == (polygon_count(Polygon(tuple(part)))
                             + polygon_count(Polygon(tuple(rest)))
                             - segment_count(Segment(hull[i], hull[j]))), (i, j)


# --- Pick audit -------------------------------------------------------------------


def test_pick_audit_examples():
    audit = pick_audit(Polygon(((0, 0), (4, 1), (1, 3))))
    assert audit == (F(11, 2), 5, 3, True)
    audit = pick_audit(Polygon(((0, 0), (3, 0), (3, 3), (0, 3))))
    assert audit == (F(9), 4, 12, True)
    audit = pick_audit(Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))))
    assert audit == (F(3), 0, 8, True)


def test_pick_audit_rejects_rational_vertices():
    with pytest.raises(ValueError, match="integral"):
        pick_audit(Polygon(((0, 0), (F(7, 2), 0), (0, F(7, 2)))))


def test_pick_audit_randomized():
    rng = random.Random(321)
    for _ in range(40):
        poly = random_simple_polygon(rng, rng.randint(3, 10), integral=True)
        assert pick_audit(poly).holds


# --- polygon file format ------------------------------------------------------------


def test_polygon_from_text():
    text = """# an L-shaped hexagon
    0 0
    2 0

    2 1
    1 1
    1 2
    0 2
    """
    poly = polygon_from_text(text)
    assert polygon_count(poly) == 8


def test_polygon_from_text_rationals():
    poly = polygon_from_text("0 0\n7/2 0\n7/2 3.5\n0 3.5\n")
    assert polygon_count(poly) == 16


def test_polygon_from_text_errors():
    with pytest.raises(ValueError, match="line 2"):
        polygon_from_text("0 0\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="line 2: malformed rational 'x'"):
        polygon_from_text("0 0\n1 x\n2 2\n")
    with pytest.raises(ValueError, match="line 2: zero denominator in '1/0'"):
        polygon_from_text("0 0\n1/0 1\n2 2\n")
    with pytest.raises(ValueError, match="intersect"):
        polygon_from_text("0 0\n2 2\n2 0\n0 2\n")


# the invalid shapes of the validation tests above
_INVALID = {
    "bowtie": ((0, 0), (2, 2), (2, 0), (0, 2)),
    "repeated vertex": ((0, 0), (1, 0), (1, 0), (0, 1)),
    "vertex on an edge": _ON_EDGE,
    "vertex on an edge, mixed denominators": (
        (0, 0), (F(3, 8), F(5, 3)), (F(-7, 5), F(9, 4)), (F(3, 16), F(5, 6)),
        (F(-11, 13), F(-1, 7))),
    "fold-back": ((0, 0), (F(7, 3), F(1, 3)), (F(7, 6), F(1, 6)), (0, F(5, 2))),
    "zero area": ((0, 0), (4, 0), (2, 0)),
    "fewer than 3 vertices": ((0, 0), (1, 1)),
}


def _token(rng, c):
    """c in one of the accepted text forms: p/q unreduced, with leading
    zeros or a sign, or a decimal with trailing zeros when c has one."""
    c = F(c)
    k = rng.randint(1, 6)
    forms = [str(c), f"{c.numerator * k}/{c.denominator * k}",
             f"{'+' if c >= 0 else '-'}00{abs(c.numerator)}/0{c.denominator}"]
    tens = 10 ** 6
    if tens % c.denominator == 0:
        scaled = abs(c.numerator) * (tens // c.denominator)
        forms.append(f"{'-' if c < 0 else ''}{scaled // tens}.{scaled % tens:06d}00")
    return rng.choice(forms)


def _text(rng, vertices):
    return "".join(f"{_token(rng, x)} {_token(rng, y)}\n" for x, y in vertices)


def _polygon_or_message(build, arg):
    try:
        return build(arg)
    except ValueError as exc:
        return str(exc)


def test_polygon_from_text_is_the_polygon_of_its_vertices():
    """Parsed to integer pairs, a polygon file gives the polygon of its
    vertices: equal, with the same Fraction vertices and count, and the
    same message for every invalid shape."""
    rng = random.Random(19)
    shapes = list(_INVALID.values()) + [
        _OFF_EDGE, ((0, 0), (0, 1), (1, 1), (1, 0)),
        ((F(1, 16), 0), (F(15, 2), F(1, 3)), (F(29, 4), F(37, 5)), (F(13, 11), F(55, 9)),
         (F(-3, 7), F(50, 13)), (F(-5, 12), F(1, 15)), (F(1, 6), F(-7, 10))),
        ((F(-1, 2), F(-1, 2)), (F(5, 2), F(-1, 2)), (F(5, 2), F(5, 2)), (F(-1, 2), F(5, 2))),
    ]
    for _ in range(60):
        shapes.append(random_simple_polygon(rng, rng.randint(3, 12),
                                            integral=rng.random() < 0.3).vertices)
    rejected = 0
    for vertices in shapes:
        built = _polygon_or_message(Polygon, vertices)
        rejected += isinstance(built, str)
        for _ in range(3):
            parsed = _polygon_or_message(polygon_from_text, _text(rng, vertices))
            if isinstance(built, str):
                assert parsed == built, vertices
                continue
            assert parsed == built and hash(parsed) == hash(built)
            assert parsed.vertices == built.vertices
            assert {type(c) for p in parsed.vertices for c in p} == {Fraction}
            assert (parsed.scale, parsed.points) == (built.scale, built.points)
            assert repr(parsed) == repr(built)
            assert polygon_count(parsed) == polygon_count(built)
            assert (_polygon_or_message(pick_audit, parsed)
                    == _polygon_or_message(pick_audit, built))
    assert rejected == len(_INVALID)


def test_polygon_holds_its_points():
    """The polygon holds its scale and counterclockwise integer points; its
    Fraction vertices are built from them, and it stays immutable."""
    poly = Polygon(((0, 0), (0, F(3, 2)), (F(4, 3), 1)))  # clockwise
    assert (poly.scale, poly.points) == (6, ((8, 6), (0, 9), (0, 0)))
    assert poly.vertices == ((F(4, 3), 1), (0, F(3, 2)), (0, 0))
    assert poly.vertices == poly.vertices
    assert repr(poly) == "Polygon(scale=6, points=((8, 6), (0, 9), (0, 0)))"
    assert Polygon(poly.vertices) == poly and hash(Polygon(poly.vertices)) == hash(poly)
    for name in ("scale", "points", "vertices"):
        with pytest.raises(AttributeError):
            setattr(poly, name, None)


def test_shapes_copy_and_replace_through_their_constructors():
    """Copies and pickle round trips are equal instances of the same class,
    and the _make and _replace of a shape or a semigroup convert and check
    their fields as its constructor does."""
    values = [Polygon(((0, 0), (0, F(3, 2)), (F(4, 3), 1))), Triangle((0, 0), (4, 1), (1, 3)),
              Segment((0, 0), (F(1, 2), 3)), StableRightTriangle((0, 0), (3, 0), (0, 2)),
              TwoGenSemigroup(3, 7), quadrant_blocks(3, 7, 46)]
    for value in values:
        for twin in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
            assert type(twin) is type(value) and twin == value
        assert type(value)._make(tuple(value)) == value and value._replace() == value
    t = StableRightTriangle((0, 0), (3, 0), (0, 2))
    assert t._replace(scale=2) == StableRightTriangle((0, 0), (F(3, 2), 0), (0, 1))
    assert t._replace(scale=2, points=((0, 0), (7, 0), (0, 4))) == (
        StableRightTriangle((0, 0), (F(7, 2), 0), (0, 2)))
    assert t._replace(scale=6, points=((0, 0), (6, 0), (0, 3))) == (2, ((0, 0), (2, 0), (0, 1)))
    with pytest.raises(ValueError, match="legs must be parallel"):
        t._replace(points=((0, 0), (3, 1), (0, 2)))
    assert Segment((0, 0), (1, 1))._replace(scale=2).q == (F(1, 2), F(1, 2))
    assert Triangle((0, 0), (1, 0), (0, 1))._replace(points=((0, 0), (1, 0), (0, 3))).v3 == (0, 3)
    poly = Polygon(((0, 0), (2, 0), (0, 2)))
    assert poly._replace(scale=2) == Polygon(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not simple"):
        poly._replace(points=((0, 0), (2, 2), (2, 0), (0, 2)))  # a bowtie
    # a wrong vertex count, a scale below 1, or a non-int scale or coordinate is
    # refused with ValueError
    tri, seg = Triangle((0, 0), (1, 0), (0, 1)), Segment((0, 0), (1, 1))
    for bad in (lambda: tri._replace(points=((0, 0), (1, 0), (0, 1), (1, 1))),
                lambda: Triangle._make((1, ((0, 0), (1, 0)))),
                lambda: seg._replace(points=((0, 0), (1, 1), (2, 2))),
                lambda: t._replace(points=((0, 0), (3, 0))),
                lambda: seg._replace(scale=0), lambda: seg._replace(scale=-2),
                lambda: poly._replace(scale=-1), lambda: seg._replace(scale=1.5),
                lambda: seg._replace(points=((0, 0), (1.5, 1)))):
        with pytest.raises(ValueError):
            bad()
    # a semigroup's fields are its generators; frobenius and genus are read off them
    s = TwoGenSemigroup(3, 7)
    assert s._replace(b=8) == TwoGenSemigroup(3, 8) and TwoGenSemigroup._make((3, 7)) == s
    for changes in {"b": 9}, {"genus": 6}:
        with pytest.raises(ValueError):
            s._replace(**changes)
