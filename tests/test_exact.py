"""Unit tests for the exact arithmetic layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squot.errors import DenominatorVanishesAtZero, ReconstructionMismatch
from squot.exact import (FactoredDenominator, LaurentExpansion, QPolynomial,
                         RationalFunction, laurent_at_one, laurent_prototype,
                         poly_mul, rational_reconstruct, resultant_transform,
                         series_div, series_of_rational)

Q = Fraction


def reference_laurent_at_one(f, order):
    """Laurent data at x = 1 by the plain Fraction route: expand the
    denominator, substitute x = 1 - u by Horner's rule, and divide the
    u-series in Fraction arithmetic."""
    def one_minus(poly):
        acc = QPolynomial()
        for c in reversed(poly.coeffs):
            acc = acc * QPolynomial([1, -1]) + c
        return acc

    nu = one_minus(f.numerator)
    de = one_minus(f.expanded_denominator)
    if nu.is_zero():
        return LaurentExpansion(0, tuple([Q(0)] * (order + 1)))
    vn, vd = nu.valuation(), de.valuation()
    body = series_div(nu.coeffs[vn:], de.coeffs[vd:],
                      order + max(0, vn - vd))
    pole = vd - vn
    if pole >= 0:
        return LaurentExpansion(pole, tuple(body[:order + 1]))
    zeros = [Q(0)] * (-pole)
    return LaurentExpansion(0, tuple((zeros + body)[:order + 1]))


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_polys = st.lists(small_fractions, min_size=1, max_size=6).filter(any)


@st.composite
def laurent_inputs(draw):
    """A rational function with any of the denominator kinds, and an
    order.  Factors of (1 - x) in the numerator and in the extra factor
    push the pole order to zero and below."""
    one_minus_x = QPolynomial([1, -1])
    num = QPolynomial(draw(nonzero_polys) if draw(st.booleans()) else [0])
    for _ in range(draw(st.integers(0, 8))):
        num = num * one_minus_x
    extra = QPolynomial(draw(nonzero_polys))
    for _ in range(draw(st.integers(0, 2))):
        extra = extra * one_minus_x
    if draw(st.booleans()):
        den = extra  # dense denominator
    else:
        pairs = draw(st.lists(st.tuples(st.integers(1, 6),
                                        st.integers(1, 2)), max_size=3))
        other = extra if draw(st.booleans()) else QPolynomial([1])
        den = FactoredDenominator.from_pairs(pairs, other=other)
    return RationalFunction(num, den), draw(st.integers(0, 40))


def geometric(pairs, num=(1,)):
    return RationalFunction(QPolynomial(num),
                            FactoredDenominator.from_pairs(pairs))


class TestQPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPolynomial([0, 0]).degree == -1

    def test_arithmetic(self):
        p = QPolynomial([1, 1])
        assert p * p == QPolynomial([1, 2, 1])
        assert p + 1 == QPolynomial([2, 1])
        assert p - p == QPolynomial()
        assert (p * 3)(2) == 9

    def test_divmod_exact(self):
        p = QPolynomial([1, 0, -1])
        quo, rem = p.divmod(QPolynomial([1, -1]))
        assert rem.is_zero() and quo == QPolynomial([1, 1])
        assert p.exact_div(QPolynomial([1, 1])) == QPolynomial([1, -1])
        with pytest.raises(ValueError):
            QPolynomial([1, 1, 1]).exact_div(QPolynomial([1, 1]))

    def test_gcd_is_monic(self):
        a = QPolynomial([1, -1]) * QPolynomial([2, 2])
        b = QPolynomial([1, -1]) * QPolynomial([3, 0, 3])
        assert a.gcd(b) == QPolynomial([-1, 1])

    @given(st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6))
    def test_mul_commutes(self, a, b):
        pa, pb = QPolynomial(a), QPolynomial(b)
        assert poly_mul(pa, pb) == poly_mul(pb, pa)

    def test_palindrome(self):
        assert QPolynomial([1, 2, 1]).is_palindromic()
        assert not QPolynomial([1, 2]).is_palindromic()


class TestSeries:
    def test_geometric(self):
        s = series_of_rational(geometric([(1, 1)]), 5)
        assert s.coefficients == (1, 1, 1, 1, 1, 1)

    def test_two_factor_matches_division(self):
        f = geometric([(2, 1), (3, 2)], num=(1, 5))
        dense = RationalFunction(f.numerator, f.expanded_denominator)
        assert (series_of_rational(f, 40).coefficients
                == series_of_rational(dense, 40).coefficients)

    def test_pole_at_zero_rejected(self):
        bad = RationalFunction(QPolynomial([1]), QPolynomial([0, 1]))
        with pytest.raises(DenominatorVanishesAtZero):
            series_of_rational(bad, 3)

    def test_multisection(self):
        s = series_of_rational(geometric([(1, 2)]), 10)  # 1,2,3,...
        assert s.multisect(3).coefficients == (1, 4, 7, 10)

    def test_series_div_vs_fraction(self):
        got = series_div([1], [2, -1], 6)
        assert got == [Q(1, 2 ** (k + 1)) for k in range(7)]


class TestReconstruction:
    def test_roundtrip(self):
        den = FactoredDenominator.from_pairs([(2, 1), (5, 1)])
        num = QPolynomial([1, 3, 0, -2])
        prefix = series_of_rational(RationalFunction(num, den), 40)
        assert rational_reconstruct(prefix, den, 3, slack=16) == num

    def test_wrong_denominator_detected(self):
        prefix = series_of_rational(geometric([(3, 1)]), 40)
        with pytest.raises(ReconstructionMismatch):
            rational_reconstruct(prefix, FactoredDenominator.from_pairs(
                [(2, 1)]).expand(), 2, slack=16)

    def test_prefix_too_short(self):
        prefix = series_of_rational(geometric([(1, 1)]), 10)
        with pytest.raises(ValueError):
            rational_reconstruct(prefix, FactoredDenominator.from_pairs(
                [(1, 1)]), 4, slack=16)


def binomial_factor(m):
    return QPolynomial([1] + [0] * (m - 1) + [-1])


class TestResultantTransform:
    def test_matches_rule_exhaustively(self):
        # the factored rule (1-x^m) -> (1-x^(lcm(a,m)/a))^gcd(a,m) must
        # agree with the root-power transform, for all a, m <= 12
        for a in range(1, 13):
            for m in range(1, 13):
                got = resultant_transform(binomial_factor(m), a)
                g = math.gcd(a, m)
                want = QPolynomial([1])
                for _ in range(g):
                    want = want * binomial_factor(math.lcm(a, m) // a)
                assert got == want, (a, m)

    def test_product_input(self):
        den = binomial_factor(2) * binomial_factor(3)
        got = resultant_transform(den, 2)
        want = (binomial_factor(1) * binomial_factor(1)
                * binomial_factor(3))  # (1-x)^2 (1-x^3)
        assert got == want

    def test_constant_normalization(self):
        den = QPolynomial([2, 0, -1])
        got = resultant_transform(den, 3)
        assert got.coeffs[0] == 8

    @given(st.integers(1, 6), st.lists(st.integers(1, 6), min_size=1,
                                       max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, a, ms):
        # transform of a product is the product of transforms
        polys = [binomial_factor(m) for m in ms]
        product = QPolynomial([1])
        expected = QPolynomial([1])
        for p in polys:
            product = product * p
            expected = expected * resultant_transform(p, a)
        assert resultant_transform(product, a) == expected


class TestLaurent:
    def test_simple_pole(self):
        f = RationalFunction(QPolynomial([1]), QPolynomial([1, 0, -1]))
        ex = laurent_at_one(f, 4)
        assert ex.pole_order == 1
        assert ex.coefficients == (Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16),
                                   Q(1, 32))

    def test_no_pole(self):
        f = RationalFunction(QPolynomial([0, 1]), QPolynomial([1]))
        ex = laurent_at_one(f, 2)
        assert ex.pole_order == 0
        assert ex.coefficients == (1, -1, 0)

    def test_zero_cancellation(self):
        # (1-x^2)/(1-x)^2 has a simple pole only
        f = RationalFunction(QPolynomial([1, 0, -1]),
                             QPolynomial([1, -2, 1]))
        assert laurent_at_one(f, 3).pole_order == 1

    @given(laurent_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        f, order = case
        got = laurent_at_one(f, order)
        want = reference_laurent_at_one(f, order)
        assert got.pole_order == want.pole_order
        assert got.coefficients == want.coefficients

    def test_negative_pole_order_padded(self):
        # (1-x)^3 / (1-x^2): a double zero, so gamma_0 = gamma_1 = 0
        f = RationalFunction(QPolynomial([1, -3, 3, -1]),
                             FactoredDenominator.from_pairs([(2, 1)]))
        ex = laurent_at_one(f, 3)
        assert ex.pole_order == 0
        assert ex.coefficients == (0, 0, Q(1, 2), Q(1, 4))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            laurent_at_one(geometric([(1, 1)]), -1)

    @pytest.mark.parametrize("t", range(1, 21))
    def test_prototype_matches_engine(self, t):
        f = geometric([(t, 1)])
        engine = laurent_at_one(f, 8)
        proto = laurent_prototype(t, 8)
        assert proto.pole_order == engine.pole_order == 1
        assert proto.coefficients == engine.coefficients

    def test_prototype_leading_terms(self):
        ex = laurent_prototype(Q(5, 3), 3)
        t = Q(5, 3)
        assert ex.coefficients[0] == 1 / t
        assert ex.coefficients[1] == (t - 1) / (2 * t)
        assert ex.coefficients[2] == (t * t - 1) / (12 * t)
        assert ex.coefficients[3] == (t * t - 1) / (24 * t)


class TestFactoredDenominator:
    def test_expand(self):
        den = FactoredDenominator.from_pairs([(1, 2), (2, 1)])
        assert den.expand() == (binomial_factor(1) * binomial_factor(1)
                                * binomial_factor(2))
        assert den.degree == 4

    def test_pair_merge(self):
        den = FactoredDenominator.from_pairs([(2, 1), (2, 2)])
        assert den.factors == ((2, 3),)

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            FactoredDenominator.from_pairs([(0, 1)])
