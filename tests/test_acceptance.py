"""Acceptance suite: one test per exit criterion, exact equality throughout.

Each test prints a single "criterion N: PASS ..." line (visible with
pytest -s); a failing assertion keeps the line from being printed.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

from corpus import (
    CASE_GENERATORS,
    apply_symmetry,
    rand_gcd_shift_instance,
    rand_stable_right,
    rand_tri_degenerate,
    rand_triangle_any,
    random_simple_polygon,
)
from latticecount import cli, oracle
from latticecount.kernel import quadrant_blocks
from latticecount.polygons import (
    TRIANGLE_CASES,
    Triangle,
    pick_audit,
    triangle_case,
    triangle_count,
)
from latticecount.semigroup import TwoGenSemigroup
from latticecount.tetra import denumerant3, tetra_count
from latticecount.triangles import (
    StableRightTriangle,
    quadrant_count,
    stable_right_count,
)
from references import (
    CASE_DEGENERATE,
    brute_denumerant2_table,
    brute_equation3_table,
    brute_tetra_table,
    quadrant_count_floor_form,
)


def _report(number, start, text):
    print(f"criterion {number}: PASS  {text}  ({time.perf_counter() - start:.2f}s)")


def coprime_pairs(limit, strict=False):
    for b in range(1, limit + 1):
        for a in range(1, b + (0 if strict else 1)):
            if gcd(a, b) == 1:
                yield a, b


def test_criterion_1_worked_instance(capsys):
    start = time.perf_counter()
    code = cli.run(["thr", "3", "7", "46", "--trace", "--json"])
    out = capsys.readouterr().out
    obj = json.loads(out.strip())
    assert code == 0
    assert obj["count"] == "63"
    assert obj["trace"]["k"] == 2
    assert obj["trace"]["blocks"] == ["41", "20", "2"]
    # the computation itself must run in under a millisecond
    best = min(
        _timed(quadrant_blocks, 3, 7, 46) + _timed(quadrant_count, 3, 7, 46)
        for _ in range(200)
    )
    assert best < 1e-3, f"computation took {best:.6f}s"
    with capsys.disabled():
        _report(1, start, "thr 3 7 46 --trace = 63, blocks [41, 20, 2], under 1 ms")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_2_quadrant_oracle_sweep():
    start = time.perf_counter()
    checked = 0
    for a, b in coprime_pairs(12):
        for c in range(-5, 3 * a * b + 26):
            expected = oracle.brute_halfplane_quadrant(a, b, c)
            assert quadrant_count(a, b, c) == expected, (a, b, c)
            assert quadrant_count_floor_form(a, b, c) == expected, (a, b, c)
            checked += 1
    _report(2, start, f"both count forms match brute force on {checked} instances")


def test_criterion_3_semigroup_invariants():
    start = time.perf_counter()
    pairs = 0
    for a, b in coprime_pairs(40, strict=True):
        s = TwoGenSemigroup(a, b)
        gaps = oracle.brute_gaps(a, b)
        assert s.gaps() == gaps, (a, b)
        assert len(gaps) == (a - 1) * (b - 1) // 2 == s.genus, (a, b)
        if gaps:
            assert max(gaps) == a * b - a - b == s.frobenius, (a, b)
        pairs += 1
    _report(3, start, f"gap count and Frobenius number verified on {pairs} semigroups")


def test_criterion_4_denumerant_sweep():
    start = time.perf_counter()
    checked = 0
    for a, b in coprime_pairs(30, strict=True):
        s = TwoGenSemigroup(a, b)
        table = brute_denumerant2_table(a, b, 5 * a * b)
        for c in range(5 * a * b + 1):
            d = s.denumerant(c)
            assert d == table[c], (a, b, c)
            if table[c] > 0:
                k = c // (a * b)
                assert d in (k, k + 1), (a, b, c)
            checked += 1
    _report(4, start, f"denumerant matches representation counts on {checked} instances")


def test_criterion_5_hypotenuse_identity():
    start = time.perf_counter()
    for a, b in coprime_pairs(12):
        s = TwoGenSemigroup(a, b)
        prev = quadrant_count(a, b, -6)
        for c in range(-5, 3 * a * b + 26):
            cur = quadrant_count(a, b, c)
            assert cur - prev == s.denumerant(c), (a, b, c)
            prev = cur
    _report(5, start, "each new diagonal adds exactly its denumerant")


def test_criterion_6_stable_right_triangles():
    start = time.perf_counter()
    rng = random.Random(60606)
    instances = [rand_stable_right(rng) for _ in range(270)]
    instances += [rand_gcd_shift_instance(rng) for _ in range(28)]
    from fractions import Fraction as F

    known_a = StableRightTriangle(corner=(0, 0), y_vertex=(0, F(7, 4)), x_vertex=(F(7, 2), 0))
    known_b = StableRightTriangle(
        corner=(F(1, 2), F(1, 2)), y_vertex=(F(1, 2), F(7, 2)), x_vertex=(F(9, 2), F(1, 2))
    )
    instances += [known_a, known_b]
    assert len(instances) == 300
    assert stable_right_count(known_a) == 6  # 2x + 4y <= 7 reduced by gcd 2
    assert stable_right_count(known_b) == 6
    for t in instances:
        assert stable_right_count(t) == oracle.brute_triangle(Triangle(*t.vertices)), t
    _report(6, start, "300 stable right triangles match brute force")


def test_criterion_7_general_triangles():
    start = time.perf_counter()
    rng = random.Random(70707)
    triangles = []
    for case, gen in CASE_GENERATORS.items():
        triangles.extend(apply_symmetry(rng, gen(rng)) for _ in range(60))
    triangles.extend(rand_tri_degenerate(rng) for _ in range(40))
    triangles.extend(rand_triangle_any(rng) for _ in range(220))
    assert len(triangles) == 500
    seen = Counter()
    for t in triangles:
        seen[triangle_case(t)] += 1
        assert triangle_count(t) == oracle.brute_triangle(t), t
    for case in TRIANGLE_CASES:
        if case != CASE_DEGENERATE:
            assert seen[case] >= 25, seen
    assert seen[CASE_DEGENERATE] >= 25, seen
    summary = ", ".join(f"{case}={seen[case]}" for case in TRIANGLE_CASES)
    _report(7, start, f"500 triangles match brute force ({summary})")


def test_criterion_8_pick_audit():
    start = time.perf_counter()
    rng = random.Random(80808)
    for _ in range(200):
        n = rng.randint(3, 10)
        poly = random_simple_polygon(rng, n, integral=True)
        audit = pick_audit(poly)
        assert audit.holds, poly.vertices
        assert audit.area == audit.interior + Fraction(audit.boundary, 2) - 1
    _report(8, start, "Pick's identity holds on 200 random integral polygons")


def test_criterion_9_tetrahedra():
    start = time.perf_counter()
    bmax = 200
    assert tetra_count(6, 10, 15, 21) == 9
    tables = {}
    for a1 in range(1, 10):
        for a2 in range(1, 10):
            for a3 in range(1, 10):
                key = tuple(sorted((a1, a2, a3)))
                if key not in tables:  # enumeration is symmetric in the generators
                    tables[key] = (
                        brute_tetra_table(*key, bmax),
                        brute_equation3_table(*key, bmax),
                    )
                counts, ways = tables[key]
                prev = 0
                for b in range(bmax + 1):
                    got = tetra_count(a1, a2, a3, b)
                    assert got == counts[b], (a1, a2, a3, b)
                    assert got - prev == ways[b], (a1, a2, a3, b)
                    prev = got
                for b in range(0, bmax + 1, 10):
                    assert denumerant3(a1, a2, a3, b) == ways[b], (a1, a2, a3, b)
    _report(9, start, "729 generator triples, bounds to 200: counts and "
                      "3-generator denumerants match enumeration")


def test_criterion_10_desk_scale_note():
    # Large-scale verification claims are out of scope; acceptance rests on
    # the oracle-equivalence and invariant suites above.
    print("criterion 10: SKIP  large-scale claims are out of scope at desk scale")
