from itertools import permutations
from math import gcd

import pytest

from latticecount.oracle import brute_denumerant3, brute_equation3_table, brute_tetra
from latticecount.tetra import denumerant3, tetra_count, tetra_slice_counts
from latticecount.triangles import quadrant_count


def test_tetra_examples():
    assert tetra_count(1, 2, 3, 3) == 7
    assert tetra_slice_counts(1, 2, 3, 3) == [6, 1]
    assert tetra_count(6, 10, 15, 21) == 9
    assert tetra_slice_counts(6, 10, 15, 21) == [7, 2]
    assert tetra_count(2, 3, 5, -1) == 0


@pytest.mark.parametrize("gens", [(0, 1, 2), (1, -1, 3), (1, 2, 0)])
def test_tetra_rejects_nonpositive_generators(gens):
    with pytest.raises(ValueError):
        tetra_count(*gens, 5)


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


def test_single_slice_matches_reduced_planar_count():
    for a1, a2, b in [(2, 3, 25), (6, 10, 48), (4, 6, 30)]:
        big = b + 1  # third generator too large to allow any x3 > 0
        d = gcd(a1, a2)
        assert tetra_count(a1, a2, big, b) == quadrant_count(a1 // d, a2 // d, b // d)


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
        expected = [quadrant_count(p // d, q // d, (b - s * i) // d) for i in range(b // s + 1)]
        assert tetra_slice_counts(*gens, b) == expected, b


def test_denumerant3_with_no_admissible_slice():
    # every x1*12 + x2*18 is a multiple of 6 and 20*x3 is even: odd n has none
    assert [denumerant3(12, 18, 20, n) for n in (1, 7, 999, 10**6 + 1)] == [0, 0, 0, 0]
    assert denumerant3(12, 18, 20, 6000) == brute_denumerant3(12, 18, 20, 6000)
