import random
import timeit
from math import gcd

import pytest

from latticecount.oracle import brute_apery, brute_denumerant2, brute_gaps
from latticecount.semigroup import TwoGenSemigroup
from references import brute_denumerant2_table


def coprime_pairs(limit, strict=True):
    for b in range(1, limit + 1):
        for a in range(1, b + (0 if strict else 1)):
            if gcd(a, b) == 1:
                yield a, b


def test_invariants_examples():
    s = TwoGenSemigroup(3, 7)
    assert s.frobenius == 11
    assert s.genus == 6
    assert TwoGenSemigroup(2, 3).frobenius == 1
    assert TwoGenSemigroup(1, 5).frobenius == -1
    assert TwoGenSemigroup(1, 5).genus == 0
    assert TwoGenSemigroup(1, 1).genus == 0


@pytest.mark.parametrize("a,b", [(0, 5), (2, 4), (-3, 7), (6, 9)])
def test_bad_generators_rejected(a, b):
    with pytest.raises(ValueError):
        TwoGenSemigroup(a, b)


def test_gaps_examples():
    assert TwoGenSemigroup(2, 3).gaps() == [1]
    assert TwoGenSemigroup(3, 7).gaps() == [1, 2, 4, 5, 8, 11]
    assert TwoGenSemigroup(1, 9).gaps() == []


def test_gaps_against_brute_force():
    for a, b in coprime_pairs(25):
        s = TwoGenSemigroup(a, b)
        gaps = s.gaps()
        assert gaps == brute_gaps(a, b)
        assert len(gaps) == s.genus
        if s.genus > 0:
            assert max(gaps) == s.frobenius


def test_apery_examples():
    s = TwoGenSemigroup(3, 7)
    assert s.apery(3) == [0, 7, 14]
    assert s.apery(7) == [0, 15, 9, 3, 18, 12, 6]
    assert TwoGenSemigroup(1, 5).apery(1) == [0]
    with pytest.raises(ValueError):
        s.apery(4)


def test_apery_indexing_and_minimality():
    for a, b in coprime_pairs(14):
        s = TwoGenSemigroup(a, b)
        for gen in {a, b}:
            ap = s.apery(gen)
            assert ap == brute_apery(a, b, gen)
            for residue, w in enumerate(ap):
                assert w % gen == residue


def test_contains_examples():
    s = TwoGenSemigroup(3, 7)
    assert not s.contains(11)
    assert s.contains(12)
    assert not s.contains(-1)
    assert 12 in s and 11 not in s


def test_contains_complements_gaps():
    for a, b in coprime_pairs(12):
        s = TwoGenSemigroup(a, b)
        gapset = set(s.gaps())
        for n in range(0, s.frobenius + a * b + 1):
            assert s.contains(n) != (n in gapset)
        assert s.contains(s.frobenius + 1)


def test_count_upto_examples():
    s = TwoGenSemigroup(3, 7)
    assert s.count_upto(46) == 41
    assert s.count_upto(11) == 6
    assert s.count_upto(-1) == 0


def test_count_upto_increments_by_membership():
    for a, b in coprime_pairs(10):
        s = TwoGenSemigroup(a, b)
        for c in range(0, 3 * a * b + 1):
            step = s.count_upto(c) - s.count_upto(c - 1)
            assert step == (1 if s.contains(c) else 0)


def test_count_upto_near_1e9_generators():
    """One kernel call, not a pass over the a elements of the Apery set:
    checked by symmetry (n is in S iff F - n is not, for 0 <= n <= F), past
    the Frobenius number, and by membership steps."""
    s = TwoGenSemigroup(999999937, 1000000007)
    f, g = s.frobenius, s.genus
    for c in (0, 10**9, 123456789012345678, f // 2, f - 1):
        assert s.count_upto(c) - s.count_upto(f - c - 1) == c + 1 - g
    assert s.count_upto(f) == s.count_upto(f - 1) == g
    for c in (f + 1, 10**30):
        assert s.count_upto(c) == c + 1 - g
    for c in (999999937 * 7 + 1000000007 * 3, 10**17, 10**17 + 1):
        assert s.count_upto(c) - s.count_upto(c - 1) == s.contains(c)
    best = min(timeit.repeat(lambda: s.count_upto(10**18), number=1, repeat=5))
    assert best < 0.010


def test_denumerant_examples():
    assert TwoGenSemigroup(3, 7).denumerant(46) == 2
    assert TwoGenSemigroup(3, 7).denumerant(5) == 0
    assert TwoGenSemigroup(2, 3).denumerant(6) == 2
    assert TwoGenSemigroup(3, 7).denumerant(-4) == 0
    # bound residue 0 mod a generator
    assert TwoGenSemigroup(3, 7).denumerant(21) == 2
    assert TwoGenSemigroup(3, 7).denumerant(7) == 1


def test_denumerant_degenerate_generators():
    for c in range(0, 30):
        assert TwoGenSemigroup(1, 5).denumerant(c) == c // 5 + 1
        assert TwoGenSemigroup(5, 1).denumerant(c) == c // 5 + 1
        assert TwoGenSemigroup(1, 1).denumerant(c) == c + 1


def test_denumerant_matches_brute_force_and_bound():
    for a, b in coprime_pairs(12):
        s = TwoGenSemigroup(a, b)
        for c in range(0, 5 * a * b + 1):
            d = s.denumerant(c)
            assert d == brute_denumerant2(a, b, c)
            if s.contains(c):
                k = c // (a * b)
                assert d in (k, k + 1)
            else:
                assert d == 0


def test_denumerant_is_the_enumerated_period_plus_full_periods_at_300_digits():
    """denumerant(a, b, c + a*b) = denumerant(a, b, c) + 1 for c >= 0
    (Beck and Robins, ch. 1), so the enumerated table on c < a*b gives
    every denumerant: table[c % (a*b)] + c // (a*b).  Checked for every
    coprime pair up to 30 at c of up to 300 digits."""
    rng = random.Random(2029)
    for a, b in coprime_pairs(30, strict=False):
        table, s = brute_denumerant2_table(a, b, a * b - 1), TwoGenSemigroup(a, b)
        for c in (rng.randrange(10**300), rng.randrange(10**299, 10**300),
                  rng.randrange(10**6) * a * b + rng.randrange(a * b)):
            assert s.denumerant(c) == table[c % (a * b)] + c // (a * b), (a, b, c)
