import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm

import pytest

from latticecount import cli, kernel, tetra
from latticecount.oracle import brute_denumerant3, brute_tetra
from latticecount.semigroup import TwoGenSemigroup
from latticecount.tetra import (
    _reduce,
    _tetra_closed_form,
    denumerant3,
    tetra_count,
    tetra_slice_counts,
)
from latticecount.triangles import quadrant_count
from references import brute_equation3_table, brute_tetra_table


def test_tetra_examples():
    assert tetra_count(1, 2, 3, 3) == 7
    assert tetra_slice_counts(1, 2, 3, 3) == (6, 1)
    assert tetra_count(6, 10, 15, 21) == 9
    assert tetra_slice_counts(6, 10, 15, 21) == (7, 2)
    assert tetra_count(2, 3, 5, -1) == 0


@pytest.mark.parametrize("gens", [(0, 1, 2), (1, -1, 3), (1, 2, 0)])
def test_tetra_rejects_nonpositive_generators(gens):
    with pytest.raises(ValueError):
        tetra_count(*gens, 5)


@pytest.mark.parametrize("count, args", [
    (kernel.quadrant_count, (3, 7, Fraction(93, 2))),
    (kernel.quadrant_count, (3, 7, 46.5)),
    (kernel.quadrant_count, (3.0, 7, 46)),
    (kernel.quadrant_blocks, (3, 7, 46.5)),
    (tetra_count, (1, 2, 3, 10.5)),
    (tetra_count, (1, 2, Fraction(3), 10)),
    (tetra_slice_counts, (1, 2, 3, 10.5)),
    (denumerant3, (1, 2, 3, 10.5)),
], ids=lambda x: getattr(x, "__name__", None) or repr(x))
def test_counts_refuse_non_int_arguments(count, args):
    """A float or Fraction argument is refused, not counted wrong: the
    points with 3x + 7y <= 46.5 number 63 and those of the tetrahedron
    x + 2y + 3z <= 10.5 number 67, where the closed forms, run on a
    non-int bound, would give 64 and 77."""
    assert (kernel.quadrant_count(3, 7, 46), tetra_count(1, 2, 3, 10)) == (63, 67)
    with pytest.raises(ValueError, match="must be integers"):
        count(*args)


def test_denumerant3_examples():
    assert denumerant3(3, 5, 7, 10) == 2
    assert denumerant3(1, 2, 3, 0) == 1
    assert denumerant3(6, 10, 15, 21) == 1
    assert denumerant3(2, 3, 5, -3) == 0


def test_tetra_against_brute_force():
    for a1 in range(1, 6):
        for a2 in range(a1, 6):
            for a3 in range(a2, 6):
                for b in range(-2, 61):
                    assert tetra_count(a1, a2, a3, b) == brute_tetra(a1, a2, a3, b)


def test_tetra_permutation_invariance():
    cases = [(2, 3, 5, 40), (6, 10, 15, 77), (4, 4, 9, 50), (1, 8, 8, 33)]
    for a1, a2, a3, b in cases:
        counts = {tetra_count(*perm, b) for perm in permutations((a1, a2, a3))}
        assert len(counts) == 1


def test_consecutive_difference_is_denumerant():
    for a1, a2, a3 in [(2, 3, 5), (6, 10, 15), (3, 5, 7), (2, 2, 3)]:
        for n in range(0, 50):
            d = denumerant3(a1, a2, a3, n)
            assert d == brute_denumerant3(a1, a2, a3, n)
            assert d >= 0
            assert d == tetra_count(a1, a2, a3, n) - tetra_count(a1, a2, a3, n - 1)


def test_consecutive_difference_is_denumerant_at_1000_digits():
    """tetra(b) - tetra(b - 1) counts the points on the face at b, which is
    denumerant3(b): both closed forms at a bound of 10**3 digits."""
    rng = random.Random(4048)
    for a1, a2, a3 in [(6, 10, 15), (3, 5, 7), (4, 6, 9)]:
        b = rng.randrange(10**999, 10**1000)
        assert (tetra_count(a1, a2, a3, b) - tetra_count(a1, a2, a3, b - 1)
                == denumerant3(a1, a2, a3, b)), (a1, a2, a3)


def test_single_slice_matches_reduced_planar_count():
    for a1, a2, b in [(2, 3, 25), (6, 10, 48), (4, 6, 30)]:
        big = b + 1  # third generator too large to allow any x3 > 0
        d = gcd(a1, a2)
        assert tetra_count(a1, a2, big, b) == quadrant_count(a1 // d, a2 // d, b // d)



def test_tetra_count_is_a_cubic_on_each_class_anchored_by_enumeration():
    """With M = lcm(a1, a2, a3), tetra_count(b) is an Ehrhart
    quasi-polynomial of period M with leading coefficient
    1/(6*a1*a2*a3) (Beck and Robins, Computing the Continuous Discretely,
    ch. 3): on each class b = r + k*M it is a cubic in k whose third
    difference is M**3/(a1*a2*a3).  So the enumerated counts for b < 3M
    give every count by Newton's forward formula on b's class: 150
    generator triples up to 12, each at b below 3M, up to 10**6 and up to
    10**30.  The enumeration anchors the cubic; a bias of the closed form
    that does not depend on b would cancel in the differences alone."""
    rng = random.Random(2028)
    for _ in range(150):
        gens = tuple(rng.randint(1, 12) for _ in range(3))
        M = lcm(*gens)
        # the budget counts the cells a triple loop would scan; the table is 3M sums
        table = brute_tetra_table(*gens, 3 * M - 1, budget=None)
        third = M**3 // (gens[0] * gens[1] * gens[2])
        for b in (rng.randrange(3 * M), rng.randint(0, 10**6), rng.randint(0, 10**30)):
            k, r = divmod(b, M)
            f0, f1, f2 = table[r], table[r + M], table[r + 2 * M]
            predicted = (f0 + k * (f1 - f0) + comb(k, 2) * (f2 - 2 * f1 + f0)
                         + comb(k, 3) * third)
            assert tetra_count(*gens, b) == predicted, (gens, b)

# generator triples by their sorted pair (p, q) and largest generator s:
# a non-coprime pair (d = gcd(p, q) > 1, with gcd(s, d) 1 or not), a
# generator of 1, and p*q/d^2 both above and below the number of slices
SLICE_CASES = [
    (6, 10, 15), (4, 6, 7), (12, 18, 20), (6, 9, 12), (8, 12, 16),
    (1, 5, 7), (1, 1, 1), (2, 3, 1), (1, 1, 4),
    (7, 11, 13), (13, 17, 19), (2, 3, 5),
]


@pytest.mark.parametrize("gens", SLICE_CASES, ids=str)
def test_tetra_and_denumerant3_against_enumeration(gens):
    bmax = 200
    ways = brute_equation3_table(*gens, bmax)
    running = 0
    for b in range(bmax + 1):
        running += ways[b]
        for perm in (gens, gens[::-1]):
            assert tetra_count(*perm, b) == running, (perm, b)
            assert denumerant3(*perm, b) == ways[b], (perm, b)


@pytest.mark.parametrize("gens", SLICE_CASES, ids=str)
def test_slices_are_reduced_quadrant_counts(gens):
    """Each slice equals its own kernel call, whether its residue is met
    for the first time or again."""
    p, q, s = sorted(gens)
    d = gcd(p, q)
    for b in (0, 1, 59, 997, 5003):
        expected = tuple(quadrant_count(p // d, q // d, (b - s * i) // d) for i in range(b // s + 1))
        assert tetra_slice_counts(*gens, b) == expected, b


def _class_period(gens):
    """(stride, P, T) of tetra_slice_counts: the slices of one class modulo
    stride have bounds falling by sigma = s/gcd(s, d), their second
    differences repeat with period P, and the classes with T = stride*P."""
    p, q, s, d = _reduce(*gens, 0)
    stride, sigma = d // gcd(s, d), s // gcd(s, d)
    period = p * q // gcd(sigma, p * q)
    return stride, period, stride * period


def test_slice_rows_against_the_slice_definition():
    """Each class of slices, its head from the kernel and the rest from
    its periodic second differences, gives each slice its own kernel
    count, in every regime of the class period P, the period T and the
    slice count n: in particular class lengths m = P + 1, P + 2 and P + 3,
    where the head ends and the running sums take over."""
    rng = random.Random(60)
    seen = dict.fromkeys(("n < T", "T <= n < 2T", "stride > 1", "m = P + 1", "m = P + 2",
                          "m = P + 3", "gcd(s, d) > 1", "repeated residues", "b < s", "b < 0",
                          "(1, 1, 1)"), 0)
    for case in range(1500):
        gens = [1, 1, 1] if case % 50 == 0 else [rng.randint(1, 60) for _ in range(3)]
        p, q, s, d = _reduce(*gens, 0)
        stride, P, T = _class_period(gens)
        periods = rng.randint(1, 3) * T
        head = stride * (P + rng.randint(0, 2)) + 1 + rng.randrange(stride)  # m = P + 1..3
        n = rng.choice([periods - 1, periods, periods + 1, head, head,
                        rng.randint(1, 3 * T + 300), 1, 0])
        b = s * (n - 1) + rng.randrange(s)
        expected = tuple(quadrant_count(p, q, (b - s * i) // d) for i in range(n))
        assert tetra_slice_counts(*gens, b) == expected, (gens, b)
        lengths = {len(range(t, n, stride)) for t in range(stride)}
        seen["n < T"] += 0 < n < T
        seen["T <= n < 2T"] += T <= n < 2 * T
        seen["stride > 1"] += stride > 1 and n > stride
        for k in (1, 2, 3):
            seen[f"m = P + {k}"] += P + k in lengths
        seen["gcd(s, d) > 1"] += gcd(s, d) > 1
        seen["repeated residues"] += gcd(s, d * p * q) < d and n > 1
        seen["b < s"] += 0 <= b < s
        seen["b < 0"] += b < 0
        seen["(1, 1, 1)"] += gens == [1, 1, 1]
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("gens, b", [
    ((5, 7, 12), 12 * 10**6 - 1),
    ((4, 6, 7), 7 * 10**6 - 1),  # stride 2, P = 6
    ((4, 6, 7), 7 * 600 - 1),  # T = 12, each residue twice per period
    ((100, 102, 10301), 10301 * 5100 - 1),  # n = T = 5100, each residue twice
], ids=["10**6 slices", "10**6 slices, stride 2", "rows of two periods", "one period"])
def test_slice_rows_bound_the_kernel_calls(monkeypatch, gens, b):
    """At most min(T, p*q) kernel calls: the P + 2 first slices of a class
    meet only P residues, and no residue modulo p*q is counted twice."""
    calls = []
    kernel = tetra.quadrant_count
    monkeypatch.setattr(tetra, "quadrant_count", lambda *args: calls.append(args) or kernel(*args))
    slices = tetra_slice_counts(*gens, b)
    p, q, s, d = _reduce(*gens, b)
    n = b // s + 1
    _, _, T = _class_period(gens)
    assert len(slices) == n
    assert 0 < len(calls) <= min(T, p * q), len(calls)
    assert len(set(calls)) == len(calls)
    assert slices[-1] == quadrant_count(p, q, (b - s * (n - 1)) // d)
    assert slices[-2] == quadrant_count(p, q, (b - s * (n - 2)) // d)


def test_million_slice_trace_sums_to_the_count():
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["tetra", "5", "7", "12", "11999999", "--trace", "--json"], out, err) == 0
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    slices = report["trace"]["slices"]
    assert len(slices) == 10**6
    total = sum(map(int, slices))
    reduced = _reduce(5, 7, 12, 11999999)
    assert total == int(report["count"]) == _tetra_closed_form(*reduced, 11999999)


def test_denumerant3_with_no_admissible_slice():
    # every x1*12 + x2*18 is a multiple of 6 and 20*x3 is even: odd n has none
    assert [denumerant3(12, 18, 20, n) for n in (1, 7, 999, 10**6 + 1)] == [0, 0, 0, 0]
    assert denumerant3(12, 18, 20, 6000) == brute_denumerant3(12, 18, 20, 6000)


# --- the closed forms against the slice loop ----------------------------------


def _slice_loop_denumerant3(a1, a2, a3, n):
    """The denumerant as one pass over the admissible slices, adding
    k + D(r) for c = k*p*q + r: the reference for the closed form."""
    if n < 0:
        return 0
    p, q, s, d = _reduce(a1, a2, a3, n)
    pq = p * q
    g = gcd(s, d)
    if n % g:
        return 0
    step = d // g
    first = (n // g) * pow(s // g, -1, step) % step
    q_inv = pow(q, -1, p)  # r < p*q is in <p, q> iff r >= (r * q_inv % p) * q
    total = 0
    for x3 in range(first, n // s + 1, step):
        k, r = divmod((n - s * x3) // d, pq)
        total += k + (r >= r * q_inv % p * q)
    return total


def test_closed_forms_against_the_slice_loop():
    rng = random.Random(20261018)
    seen = dict.fromkeys(("non-coprime", "one", "repeated", "negative", "no slice"), 0)
    for _ in range(20000):
        gens = [rng.randint(1, 40) for _ in range(3)]
        b = rng.randint(-3, 3000)
        slices = sum(tetra_slice_counts(*gens, b))
        assert tetra_count(*gens, b) == slices, (gens, b)
        if b >= 0:
            assert _tetra_closed_form(*_reduce(*gens, b), b) == slices, (gens, b)
        expected = _slice_loop_denumerant3(*gens, b)
        assert denumerant3(*gens, b) == expected, (gens, b)
        p, q, s = sorted(gens)
        seen["non-coprime"] += gcd(p, q) > 1
        seen["one"] += p == 1
        seen["repeated"] += len(set(gens)) < 3
        seen["negative"] += b < 0
        seen["no slice"] += b >= 0 and not any(
            (b - s * x3) % gcd(p, q) == 0 for x3 in range(b // s + 1))
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("gens", [(3, 5, 7), (6, 10, 15), (1, 1, 4), (4, 9, 13), (12, 18, 20)],
                         ids=str)
def test_route_switch_boundary(monkeypatch, gens):
    """tetra_count slices while b//s + 1 < p + q and takes the closed form
    from there on; both sides agree with enumeration."""
    p, q, s, _ = _reduce(*gens, 0)
    sliced = []
    slice_counts = tetra.tetra_slice_counts
    monkeypatch.setattr(tetra, "tetra_slice_counts",
                        lambda *args: sliced.append(args) or slice_counts(*args))
    for slices in (p + q - 1, p + q):
        for b in ((slices - 1) * s, slices * s - 1):
            sliced.clear()
            assert tetra_count(*gens, b) == brute_tetra(*gens, b), b
            assert bool(sliced) == (b // s + 1 < p + q), b


def test_floor_sums2_against_direct_sums():
    rng = random.Random(8)
    for _ in range(3000):
        n, m = rng.randint(0, 40), rng.randint(1, 30)
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        u = [(a * i + b) // m for i in range(n)]
        expected = (sum(u), sum(i * x for i, x in enumerate(u)), sum(x * x for x in u))
        assert kernel._floor_sums2(n, m, a, b) == expected, (n, m, a, b)


def test_floor_sums2_long_euclid_chain():
    # consecutive Fibonacci numbers make the longest Euclid chain, here
    # about 1,400 steps: more than the default recursion limit
    a, b = 1, 1
    while b < 10**300:
        a, b = b, a + b
    n = 5
    u = [(a * i + 3) // b for i in range(n)]
    assert kernel._floor_sums2(n, b, a, 3) == (
        sum(u), sum(i * x for i, x in enumerate(u)), sum(x * x for x in u))
    bound = 10**302  # a few hundred slices
    assert tetra_count(a, a, b, bound) == sum(tetra_slice_counts(a, a, b, bound))


@pytest.mark.parametrize("argv", [
    ["tetra", "1", "1", "1", str(10**12)],
    ["tetra", "1000", "1001", "1003", str(10**30)],
    ["denumerant3", "6", "10", "15", str(10**60)],
])
def test_large_bounds_return_quickly(capsys, argv):
    start = time.perf_counter()
    code = cli.run(argv + ["--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0, elapsed
    assert int(json.loads(out)["count"]) > 0


def test_tetra_over_the_step_limit_exits_1(capsys):
    start = time.perf_counter()
    code = cli.run(["tetra", "1000000007", "1000000009", "1000000021", str(10**30)])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: tetra_count would take ") and err.count("\n") == 1
    assert cli.run(["tetra", "100000", "100001", "100003", str(10**30)]) == 0
    assert int(capsys.readouterr().out.split(": ")[1]) > 0


def test_step_limit_counts_the_cheaper_route(monkeypatch):
    # tetra 6 10 15 21: 2 slices against p + q = 8; tetra 1 1 1 10**12: p + q = 2
    monkeypatch.setattr(tetra, "STEP_LIMIT", 2)
    assert tetra_count(6, 10, 15, 21) == 9
    assert tetra_count(1, 1, 1, 10**12) == comb(10**12 + 3, 3)
    monkeypatch.setattr(tetra, "STEP_LIMIT", 1)
    for gens, b in (((6, 10, 15), 21), ((1, 1, 1), 10**12)):
        with pytest.raises(ValueError, match="2 steps"):
            tetra_count(*gens, b)


def test_large_bounds_against_other_closed_forms():
    b = 10**12
    assert tetra_count(1, 1, 1, b) == comb(b + 3, 3)
    # the tetrahedra of n and n - 1 differ by the solutions of the equation
    for gens, n in (((6, 10, 15), 10**60), ((1000, 1001, 1003), 10**30), ((4, 6, 9), 10**20)):
        assert denumerant3(*gens, n) == tetra_count(*gens, n) - tetra_count(*gens, n - 1)


def test_closed_forms_without_asserts():
    """python -O strips assert statements: the closed forms, both routes
    of tetra_count and the two-generator denumerant give the same values."""
    rng = random.Random(5)
    cases = [([rng.randint(1, 40) for _ in range(3)], rng.randint(-3, 3000))
             for _ in range(300)]
    cases += [([1, 1, 1], 10**12), ([1000, 1001, 1003], 10**30), ([6, 10, 15], 10**60)]
    probe = (
        "import json, sys\n"
        "from latticecount.semigroup import TwoGenSemigroup\n"
        "from latticecount.tetra import denumerant3, tetra_count\n"
        "cases = json.load(sys.stdin)\n"
        "print(json.dumps([[str(tetra_count(*g, b)), str(denumerant3(*g, b)),\n"
        "                   str(TwoGenSemigroup(g[0], 1 + g[1] * g[0]).denumerant(b))]\n"
        "                  for g, b in cases]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", probe], input=json.dumps(cases),
                            env=env, capture_output=True, text=True, check=True)
    expected = [[str(tetra_count(*g, b)), str(denumerant3(*g, b)),
                 str(TwoGenSemigroup(g[0], 1 + g[1] * g[0]).denumerant(b))] for g, b in cases]
    assert json.loads(result.stdout) == expected
