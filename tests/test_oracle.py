import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from latticecount import oracle
from latticecount.polygons import Polygon, Triangle, polygon_count, triangle_count
from latticecount.triangles import Segment
from references import (
    brute_denumerant2_table,
    brute_equation3_table,
    brute_segment,
    brute_tetra_table,
    reference_polygon,
    reference_rect,
    reference_segment,
    reference_triangle,
)


def test_brute_halfplane_quadrant_examples():
    assert oracle.brute_halfplane_quadrant(3, 7, 46) == 63
    assert oracle.brute_halfplane_quadrant(2, 5, 17) == 22
    assert oracle.brute_halfplane_quadrant(5, 3, 0) == 1
    assert oracle.brute_halfplane_quadrant(3, 7, -2) == 0


def test_budget_refuses_large_regions():
    with pytest.raises(oracle.BudgetError):
        oracle.brute_halfplane_quadrant(1, 1, 10**6, budget=1000)
    with pytest.raises(oracle.BudgetError):
        oracle.brute_tetra(1, 1, 1, 10**4, budget=1000)
    # the budget is overridable
    assert oracle.brute_halfplane_quadrant(1, 1, 100, budget=None) == 5151


def test_brute_triangle_examples():
    assert oracle.brute_triangle(Triangle((0, 0), (1, 0), (1, 1))) == 3
    assert oracle.brute_triangle(Triangle((0, 0), (4, 1), (1, 3))) == 8
    assert oracle.brute_triangle(Triangle((0, 0), (2, 2), (1, 1))) == 3
    assert oracle.brute_triangle(Triangle((0, 0), (3, 0), (0, 3)), include_boundary=False) == 1


def test_brute_polygon_examples():
    square = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert oracle.brute_polygon(square) == 4
    assert oracle.brute_polygon(square, include_boundary=False) == 0
    big = Polygon(((0, 0), (3, 0), (3, 3), (0, 3)))
    assert oracle.brute_polygon(big) == 16
    assert oracle.brute_polygon(big, include_boundary=False) == 4


def test_brute_segment_and_rect():
    assert brute_segment(Segment((0, 0), (6, 4))) == 3
    assert oracle.brute_rect((0, 0), (2, 3)) == 12


def test_brute_tetra_examples():
    assert oracle.brute_tetra(1, 2, 3, 3) == 7
    assert oracle.brute_tetra(6, 10, 15, 21) == 9
    assert oracle.brute_tetra(1, 1, 1, -2) == 0


def test_tetra_tables_match_pointwise_brute():
    rng = random.Random(8)
    for _ in range(10):
        a1, a2, a3 = (rng.randint(1, 9) for _ in range(3))
        bmax = rng.randint(0, 40)
        table = brute_tetra_table(a1, a2, a3, bmax)
        eq = brute_equation3_table(a1, a2, a3, bmax)
        assert len(table) == len(eq) == bmax + 1
        for b in range(0, bmax + 1, max(1, bmax // 7)):
            assert table[b] == oracle.brute_tetra(a1, a2, a3, b)
            assert eq[b] == oracle.brute_denumerant3(a1, a2, a3, b)


def test_denumerant2_table_matches_loop():
    for a, b in [(3, 7), (2, 5), (4, 9)]:
        table = brute_denumerant2_table(a, b, 5 * a * b)
        for c in range(5 * a * b + 1):
            assert table[c] == oracle.brute_denumerant2(a, b, c)


def test_brute_semigroup_helpers():
    assert oracle.brute_gaps(3, 7) == [1, 2, 4, 5, 8, 11]
    assert oracle.brute_gaps(2, 3) == [1]
    assert oracle.brute_apery(3, 7, 3) == [0, 7, 14]
    assert oracle.brute_contains(3, 7, 12)
    assert not oracle.brute_contains(3, 7, 11)
    assert oracle.brute_count_upto(3, 7, 11) == 6


# --- the integer oracle against the Fraction reference (references.py) -------


# the bench reference's shapes: any object with .vertices, and .p/.q on segments
_Shape = namedtuple("_Shape", "vertices")
_Seg = namedtuple("_Seg", "p q")


def _rational(rng, span=5, max_den=12):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def _point(rng, max_den=12):
    return (_rational(rng, max_den=max_den), _rational(rng, max_den=max_den))


def _between(u, v, t):
    return (u[0] + t * (v[0] - u[0]), u[1] + t * (v[1] - u[1]))


def _as_given(rng, point):
    """The point with each coordinate as an int, a string or a Fraction:
    every one of them is something Fraction() accepts."""
    return tuple(rng.choice([c, str(c)] + [int(c)] * (c.denominator == 1)) for c in point)


def _triangle_vertices(rng, kind):
    if kind == "lattice":
        return [_point(rng, max_den=1) for _ in range(3)]
    if kind == "general":
        return [_point(rng) for _ in range(3)]
    a, b = _point(rng), _point(rng)
    if kind == "point":
        return [a, a, a]
    t = rng.choice([Fraction(0), Fraction(1), Fraction(rng.randint(-12, 24), 12)])
    return rng.sample([a, b, _between(a, b, t)], 3)  # collinear


def _segment_through_a_lattice_point(rng):
    """Endpoints with denominators of their own, on a lattice line."""
    g = (rng.randint(-4, 4), rng.randint(-4, 4))
    h = (g[0] + rng.randint(-2, 2), g[1] + rng.randint(-2, 2))
    s, t = (Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(2))
    return [_between(g, h, -s), _between(g, h, t)]


def _exclusion(rng, verts):
    """A triangle edge, either way round, or a segment of its own."""
    if rng.random() < 0.5:
        i = rng.randrange(3)
        return rng.sample([verts[i], verts[(i + 1) % 3]], 2)
    return _segment_through_a_lattice_point(rng)


def _polygon_with_collinear_vertices(rng):
    """A star-shaped polygon around a rational centre, with vertices added
    on some of its edges (a repeated vertex among them)."""
    den = rng.choice([1, 1, rng.randint(2, 12)])
    centre = _point(rng, max_den=1)
    angles = sorted(rng.sample(range(0, 360, 15), rng.randint(3, 8)))
    verts = []
    for a in angles:
        r = rng.uniform(1, 4)
        verts.append(tuple(Fraction(round((c + r * f(math.radians(a))) * den), den)
                           for c, f in zip(centre, (math.cos, math.sin))))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(verts))
        t = Fraction(rng.randint(0, 12), 12)
        verts.insert(i + 1, _between(verts[i], verts[(i + 1) % len(verts)], t))
    return verts


def test_integer_oracle_matches_the_fraction_reference():
    rng = random.Random(23)
    for _ in range(150):
        lo, hi = (_as_given(rng, _point(rng)) for _ in range(2))
        assert oracle.brute_rect(lo, hi) == reference_rect(lo, hi)
        seg = _Seg(*_segment_through_a_lattice_point(rng))
        assert brute_segment(seg) == reference_segment(seg)
        seg = Segment(_as_given(rng, seg.p), _as_given(rng, seg.q))
        assert brute_segment(seg) == reference_segment(seg)
    for i in range(300):
        verts = _triangle_vertices(rng, ("general", "lattice", "collinear", "point")[i % 4])
        excl = [_exclusion(rng, verts) for _ in range(rng.randint(0, 3))]
        if i % 2:
            shape = _Shape(tuple(_as_given(rng, v) for v in verts))
            segs = [_Seg(*(_as_given(rng, e) for e in pq)) for pq in excl]
        else:
            shape, segs = Triangle(*verts), [Segment(*pq) for pq in excl]
        for include_boundary in (True, False):
            assert (oracle.brute_triangle(shape, include_boundary)
                    == reference_triangle(shape, include_boundary)), shape
        assert (oracle.brute_triangle(shape, exclude_segments=segs)
                == reference_triangle(shape, exclude_segments=segs)), (shape, segs)
    for i in range(120):
        verts = _polygon_with_collinear_vertices(rng)
        shape = _Shape(tuple(_as_given(rng, v) for v in verts))
        if i % 2:
            try:
                shape = Polygon(verts)
            except ValueError:  # a repeated vertex, or not simple after rounding
                pass
        for include_boundary in (True, False):
            assert (oracle.brute_polygon(shape, include_boundary)
                    == reference_polygon(shape, include_boundary)), shape


def test_planar_oracles_build_fractions_per_vertex_not_per_cell(monkeypatch):
    """A triangle and a polygon of more than 10^4 cells each build at most
    two Fractions per vertex: the cells are tested on integers."""
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(oracle, "Fraction", counting_fraction)
    tri = Triangle((0, 0), (150, Fraction(1, 3)), (Fraction(7, 2), 100))
    poly = Polygon(((0, 0), (Fraction(241, 2), 0), (120, 50), (60, Fraction(301, 3)),
                    (Fraction(-1, 5), 100), (0, 50)))
    for shape, count, brute in ((tri, triangle_count(tri), oracle.brute_triangle),
                                (poly, polygon_count(poly), oracle.brute_polygon)):
        xs, ys = zip(*shape.vertices)
        cells = ((math.floor(max(xs)) - math.ceil(min(xs)) + 1)
                 * (math.floor(max(ys)) - math.ceil(min(ys)) + 1))
        assert cells >= 10**4
        built.clear()
        assert brute(shape) == count
        assert 0 < len(built) <= 2 * len(shape.vertices)
