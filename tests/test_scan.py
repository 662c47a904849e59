"""Tests for the integrality scan over weight triples."""

import math
from fractions import Fraction
from itertools import compress, permutations
from operator import mod, not_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squot.errors import InputError
from squot.laurent import gamma0_closed, gamma2_closed
from squot.scan import (ScanResult, full_scan, gamma0_is_integral,
                        gamma2_ratio, hits_by_sum,
                        integral_triples, is_unit_fraction_sum,
                        pseudoreflection_obstruction, reciprocal_gamma0)

Q = Fraction


def reference_triples(level):
    """Every non-decreasing triple with a+b+c <= level and integral
    1/gamma_0, tested one at a time."""
    for a in range(1, level // 3 + 1):
        for b in range(a, (level - a) // 2 + 1):
            for c in range(b, level - a - b + 1):
                if gamma0_is_integral((a, b, c)):
                    yield a, b, c


def reference_hits_by_sum(level, triples=reference_triples):
    """Ordered hit counts indexed by a+b+c."""
    out = [0] * (level + 1)
    for t in triples(level):
        out[sum(t)] += len(set(permutations(t)))
    return out


def pair_triples(level):
    """The unit-fraction kernel by pairs (a, b): with u = a + b and
    v = ab, c = k v / (v - k u) runs over [b, level - a - b] exactly
    when k runs over one interval, whose k are tested for
    (v - k u) | k v in one pass per pair.  Lexicographic order."""
    for a in range(1, level // 3 + 1):
        for b in range(a, (level - a) // 2 + 1):
            u, v = a + b, a * b
            cmax = level - a - b
            klo = -(-b * v // (v + b * u))
            khi = cmax * v // (v + cmax * u)
            divides = map(not_, map(mod, range(klo * v, khi * v + 1, v),
                                    range(v - klo * u, v - khi * u - 1, -u)))
            for k in compress(range(klo, khi + 1), divides):
                yield a, b, k * v // (v - k * u)


class TestReciprocalGamma0:
    def test_closed_form_agreement(self):
        for t in [(1, 2, 3), (4, 5, 20), (2, 3, 6), (1, 1, 2)]:
            assert reciprocal_gamma0(t) == 1 / gamma0_closed(t)

    def test_reference_triple(self):
        assert reciprocal_gamma0((4, 5, 20)) == 27
        assert gamma0_is_integral((4, 5, 20))

    def test_sum_identity(self):
        # 1/gamma0 = a+b+c - 1/(1/a + 1/b + 1/c)
        for t in [(1, 2, 3), (2, 3, 7), (4, 5, 20), (3, 3, 4)]:
            harmonic = sum(Q(1, a) for a in t)
            assert reciprocal_gamma0(t) == sum(t) - 1 / harmonic

    def test_bounded_by_weight_sum(self):
        for t in [(1, 2, 3), (4, 5, 20), (7, 11, 13)]:
            assert reciprocal_gamma0(t) < sum(t)


class TestEgyptianEquivalence:
    def test_to_level_100(self):
        for a in range(1, 34):
            for b in range(a, (100 - a) // 2 + 1):
                for c in range(b, 100 - a - b + 1):
                    t = (a, b, c)
                    assert gamma0_is_integral(t) == is_unit_fraction_sum(t), t

    @pytest.mark.parametrize("b", range(1, 31))
    def test_one_one_b_never_integral(self, b):
        assert not gamma0_is_integral((1, 1, b))

    def test_hits_never_pairwise_coprime(self):
        for t in integral_triples(60):
            a, b, c = t
            pairwise_coprime = (math.gcd(a, b) == math.gcd(a, c)
                                == math.gcd(b, c) == 1)
            assert not pairwise_coprime, t


def gamma2_condition(triple):
    """Whether 12 gamma_2 / gamma_0 is an integer."""
    return gamma2_ratio(triple).denominator == 1


def ratio_by_gcds(triple):
    """12 gamma_2 / gamma_0 = 1 + sum_j (g_j^2 - 1)
    + sum_j g_j^2 a_j^2 / e_2, g_j the gcd of the other two weights and
    e_2 = ab + bc + ca."""
    a, b, c = triple
    gcds = [math.gcd(b, c), math.gcd(a, c), math.gcd(a, b)]
    return (1 + sum(g * g - 1 for g in gcds)
            + Q(sum(g * g * x * x for g, x in zip(gcds, triple)),
                a * b + b * c + c * a))


class TestGamma2Condition:
    def test_reference_triple(self):
        assert gamma2_ratio((4, 5, 20)) == 46
        assert gamma2_condition((4, 5, 20))
        assert gamma2_ratio((4, 5, 20)) == \
            12 * gamma2_closed((4, 5, 20)) / gamma0_closed((4, 5, 20))

    @given(st.tuples(*[st.integers(1, 200)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_ratio_by_gcds(self, triple):
        assert gamma2_ratio(triple) == ratio_by_gcds(triple)

    def test_integral_on_every_hit(self):
        # the lemma in pseudoreflection_obstruction's docstring: an
        # integral 1/gamma_0 makes 12 gamma_2 / gamma_0 integral
        hits = list(integral_triples(600))
        assert len(hits) == 2460
        assert all(gamma2_condition(t) for t in hits)


class TestObstruction:
    def test_reference_triple_impossible(self):
        # divisors of 27 give steps 8, 80, 728; none reach 46
        assert pseudoreflection_obstruction((4, 5, 20)) is False

    def test_not_applicable(self):
        with pytest.raises(InputError, match="1/gamma_0 = 60/11 is not an"):
            pseudoreflection_obstruction((1, 2, 3))

    def test_achievable_case(self):
        # (2,3,6): 1/gamma0 = 10, ratio 15 = 5 * (2^2 - 1) with 2 | 10
        assert reciprocal_gamma0((2, 3, 6)) == 10
        assert gamma2_ratio((2, 3, 6)) == 15
        assert pseudoreflection_obstruction((2, 3, 6)) is True

    def test_impossible_even_when_integral(self):
        # (2,4,4): ratio 28 cannot be reached from steps 8 and 80
        assert gamma2_ratio((2, 4, 4)) == 28
        assert pseudoreflection_obstruction((2, 4, 4)) is False


class TestProbabilityScan:
    def test_level_three_single_triple(self):
        (res,) = full_scan(3)
        assert res == ScanResult(3, 0, 1)

    def test_level_ten_hand_count(self):
        # hand-derived: hits are (3,3,3) once and (2,4,4) three times
        res = full_scan(10)[-1]
        assert res.hits == 4 and res.total == math.comb(10, 3)
        assert Fraction(res.hits, res.total) == Q(1, 30)

    def test_total_is_ordered_triple_count(self):
        for level in (3, 5, 12, 20):
            total = sum(1 for a in range(1, level + 1)
                        for b in range(1, level + 1)
                        for c in range(1, level + 1) if a + b + c <= level)
            assert math.comb(level, 3) == total

    def test_cumulative_consistency(self):
        rows = full_scan(25)
        assert [r.level for r in rows] == list(range(3, 26))
        for prev, cur in zip(rows, rows[1:]):
            assert cur.hits >= prev.hits

    def test_brute_force_ordered_agreement(self):
        level = 15
        hits = 0
        for a in range(1, level + 1):
            for b in range(1, level + 1):
                for c in range(1, level + 1):
                    if a + b + c <= level and gamma0_is_integral((a, b, c)):
                        hits += 1
        res = full_scan(level)[-1]
        assert res.hits == hits

    def test_fixed_level_300(self):
        assert hits_by_sum(300) == reference_hits_by_sum(300)

    def test_bad_levels(self):
        with pytest.raises(InputError, match="max_level must be >= 3"):
            full_scan(2)
        with pytest.raises(InputError, match="max_level must be >= 3"):
            full_scan(1)


class TestKernelAgainstTripleLoop:
    def test_hits_by_sum_matches_reference(self):
        # a count by exact sum does not depend on the level above it
        want = reference_hits_by_sum(250)
        for level in range(3, 251):
            assert hits_by_sum(level) == want[:level + 1], level

    def test_integral_triples_same_order(self):
        every = list(reference_triples(120))
        for level in range(3, 121):
            assert list(integral_triples(level)) \
                == [t for t in every if sum(t) <= level], level

    def test_pair_kernel_matches_triple_loop(self):
        assert list(pair_triples(150)) == list(reference_triples(150))


class TestReducedDivisorTest:
    def test_lemma_exhaustive(self):
        """(r b - s) | s b exactly when (r' b - s') | s'^2, where
        r' = r/g and s' = s/g with g = gcd(r, s)."""
        for r in range(1, 61):
            for s in range(1, 61):
                g = math.gcd(r, s)
                rr, ss = r // g, s // g
                for b in range(s // r + 1, 201):
                    assert (s * b % (r * b - s) == 0) \
                        == (ss * ss % (rr * b - ss) == 0), (r, s, b)


class TestKernelAgainstPairKernel:
    """The (a, k) intervals against the (a, b) kernel above the levels
    the triple loop reaches; the interval ends depend on the level, so
    each level is its own call."""

    def test_hits_by_sum_levels_251_to_400(self):
        want = reference_hits_by_sum(400, pair_triples)
        for level in range(251, 401):
            assert hits_by_sum(level) == want[:level + 1], level

    @pytest.mark.parametrize("level", [1000, 1500])
    def test_hits_by_sum_large(self, level):
        assert hits_by_sum(level) == reference_hits_by_sum(level,
                                                           pair_triples)

    @pytest.mark.parametrize("level", [400, 1500])
    def test_integral_triples_same_order(self, level):
        assert list(integral_triples(level)) == list(pair_triples(level))
