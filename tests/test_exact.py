"""Unit tests for the exact arithmetic layer."""

import json
import math
import random
from collections import deque
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import (accumulate, chain, combinations_with_replacement,
                       islice, repeat)
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squot.circle import (_lanes, hilbert_off_clustered, hilbert_series,
                          normalize_weights)
from squot.cli import _grouped, laurent_payload, main, series_payload
from squot.errors import (InputError, ReciprocityMismatch,
                          ReconstructionMismatch)
from squot.finite import FiniteDiagonalGroup, analyze_group, molien_series
from squot.laurent import gamma0_closed, gamma2_closed, symplectic_check
from squot.scan import full_scan
import squot.exact
from squot.exact import (PACKED_MIN_M, FactoredDenominator,
                         QPolynomial, RationalFunction,
                         _expand_factored, _mirrored, _peeled,
                         _cut_rows, _packed_multisection, _psi_passes,
                         _w_row, check_reciprocity, cleared,
                         deferred_quotient, laurent_at_one,
                         laurent_prototype, mul_truncated,
                         multisected_prefix,
                         rational_reconstruct, resultant_transform,
                         series_of_rational)

from polyring import ONE, Poly, factored

Q = Fraction


def binomial_factor(m):
    return Poly([1] + [0] * (m - 1) + [-1])


@lru_cache(maxsize=None)
def psi(d):
    """1 - x for d = 1, the d-th cyclotomic polynomial otherwise."""
    import sympy
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    return Poly([-c for c in coeffs] if d == 1 else coeffs)


def dense_psi(pairs):
    """prod psi(d)^e over the (d, e) pairs, multiplied out densely."""
    out = ONE
    for d, e in pairs:
        for _ in range(e):
            out = out * psi(d)
    return out


def dense_denominator(den):
    """A denominator as one dense polynomial: the binomials of its
    passes with e > 0 multiplied out, then those with e < 0 divided out
    by long division."""
    out = ONE
    for m, e in den.factors:
        for _ in range(e):
            out = out * binomial_factor(m)
    for m, e in den.factors:
        for _ in range(-e):
            out = Poly(reference_exact_div(out, binomial_factor(m)).coeffs)
    return out


def expanded_denominator(f):
    return dense_denominator(f.denominator)


def dense_series_div(num, den, order):
    """Coefficients 0..order of num/den by the Fraction recurrence of
    long division; den[0] must be nonzero."""
    out = []
    for k in range(order + 1):
        acc = Q(num[k]) if k < len(num) else Q(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def same_function(f, g):
    """Equality as rational functions, by cross multiplication."""
    return (f.numerator * expanded_denominator(g)
            == g.numerator * expanded_denominator(f))


def reference_expand_factored(num, den, order):
    """Taylor coefficients 0..order of num/den by long division by the
    dense denominator."""
    return dense_series_div(num.coeffs, dense_denominator(den).coeffs, order)


def reference_multiply_into(den, coeffs):
    """coeffs times the dense denominator, truncated."""
    dense = dense_denominator(den).coeffs
    return [sum(coeffs[k - j] * c for j, c in enumerate(dense[:k + 1]))
            for k in range(len(coeffs))]


def value(expansion):
    """(pole order, gamma_0..gamma_K) of a Laurent record: records of
    equal value may differ in scale."""
    return expansion.pole_order, expansion.coefficients


def reference_laurent_at_one(f, order):
    """(pole order, gamma_0..gamma_order) at x = 1 by the plain Fraction
    route: expand the denominator, substitute x = 1 - u by Horner's
    rule, and divide the u-series in Fraction arithmetic."""
    def one_minus(poly):
        acc = Poly()
        for c in reversed(poly.coeffs):
            acc = acc * Poly([1, -1]) + c
        return acc

    nu = one_minus(f.numerator)
    de = one_minus(expanded_denominator(f))
    if not nu:
        return 0, tuple([Q(0)] * (order + 1))
    vn, vd = nu.valuation(), de.valuation()
    body = dense_series_div(nu.coeffs[vn:], de.coeffs[vd:],
                            order + max(0, vn - vd))
    pole = vd - vn
    if pole >= 0:
        return pole, tuple(body[:order + 1])
    zeros = [Q(0)] * (-pole)
    return 0, tuple((zeros + body)[:order + 1])


def reference_u_laurent(f, order):
    """(pole order, gamma_0..gamma_order) at x = 1 by the integer route
    in u alone: the numerator Taylor-shifted to x = 1 - u by synthetic
    addition, each pass (1 - x^m)^e written as u^e P_m(u)^e with
    P_m(u) = sum_(k=1..m) (-1)^(k+1) C(m,k) u^(k-1), and the quotient
    by one recurrence over a shared denominator S."""
    work = list(f.numerator.coeffs)
    if not any(work):
        return 0, (Q(0),) * (order + 1)

    def shifted():  # s * p(1 - u), lowest degree first
        for i in range(len(work)):
            work[i:] = reversed(list(accumulate(reversed(work[i:]))))
            yield -work[i] if i & 1 else work[i]

    terms = shifted()
    for val, first in enumerate(terms):
        if first:
            break
    terms = chain((first,), terms)
    passes = f.denominator.factors
    pole = sum(e for _, e in passes) - val
    length = max(0, order + 1 + min(pole, 0))
    gammas = []
    if length:
        a = list(islice(terms, length))
        a += [0] * (length - len(a))
        b = [1]
        for m, e in passes:
            p_m = [(-1) ** (k + 1) * math.comb(m, k)
                   for k in range(1, min(m, length) + 1)]
            for _ in range(e):
                b = mul_truncated(b, p_m, length)
            for _ in range(-e):
                a = mul_truncated(a, p_m, length)
        b0, tail = b[0], b[1:]
        shared = 1
        window = deque(maxlen=len(tail))
        for a_k in a:
            x = a_k * shared - sum(map(mul, tail, reversed(window)))
            g = math.gcd(x, b0)
            if g != b0:
                shared *= b0 // g
                window = deque(map(mul, window, repeat(b0 // g)), len(tail))
            window.append(x // g)
            gammas.append(Q(x // g, shared))
    if pole >= 0:
        return pole, tuple(gammas)
    zeros = [Q(0)] * (-pole)
    return 0, tuple((zeros + gammas)[:order + 1])


def reference_divmod(a, b):
    """Quotient and remainder of polynomial division over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dq = len(rem) - len(b.coeffs)
    if dq < 0:
        return Poly(), a
    quo = [Q(0)] * (dq + 1)
    lead = b.coeffs[-1]
    db = b.degree
    for k in range(dq, -1, -1):
        c = rem[k + db]
        if c:
            q = Q(c, 1) / lead
            quo[k] = q
            for j, c_b in enumerate(b.coeffs):
                rem[k + j] -= q * c_b
    return Poly(quo), Poly(rem)


def reference_exact_div(a, b):
    quo, rem = reference_divmod(a, b)
    if rem:
        raise ValueError("polynomial division is not exact")
    return quo


def reference_gcd(a, b):
    """Monic gcd over Q, by sympy; a Euclidean loop over Fraction takes
    tens of seconds on the larger degenerate numerators."""
    import sympy
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly(list(reversed(p.coeffs)), x, domain=sympy.QQ)

    g = to_sympy(a).gcd(to_sympy(b)).monic()
    return Poly(Q(int(c.p), int(c.q)) for c in reversed(g.all_coeffs()))


def reference_reduce(f):
    """(numerator, denominator) in lowest terms by a gcd over Q, the
    denominator expanded and normalized to constant term 1."""
    num, den = f.numerator, expanded_denominator(f)
    if not num:
        return num, ONE
    g = reference_gcd(num, den)
    if g.degree > 0:
        num = reference_exact_div(num, g)
        den = reference_exact_div(den, g)
    scale = Q(1) / den.coeffs[0]
    return Poly(num.coeffs) * scale, den * scale


def reference_regroup(den):
    """(factors, leftover) of a dense denominator with constant term 1:
    greedy (1 - x^m) factors by trial division, largest m first, and
    the dense polynomial left over."""
    coeffs = list(den.coeffs)
    pairs = []
    m = len(coeffs) - 1
    while m >= 1 and len(coeffs) > 1:
        # 1 - x^m divides den iff den vanishes modulo x^m - 1
        if any(sum(coeffs[i::m]) for i in range(m)):
            m -= 1
            continue
        pairs.append((m, 1))
        coeffs = coeffs[:len(coeffs) - m]
        for k in range(m, len(coeffs)):  # q_k = c_k + q_(k-m)
            coeffs[k] += coeffs[k - m]
    return FactoredDenominator.from_pairs(pairs).factors, Poly(coeffs)


def reference_payload(f):
    """The JSON payload of f in lowest terms, from the dense references
    alone: numerator, (1 - x^m) factors, and any leftover multiplied
    out as the extra factor."""
    num, den = reference_reduce(f)
    pairs, leftover = reference_regroup(den)
    payload = {"numerator": [int(c) if Q(c).denominator == 1 else str(c)
                             for c in num.coeffs],
               "denominator": [[m, e] for m, e in pairs]}
    if leftover != ONE:
        payload["extraFactor"] = [int(c) for c in leftover.coeffs]
    return payload


def reference_mirrored(window, top, sign):
    """`_mirrored` with its mirror and fill as sign * c comprehensions
    over reversed slices: the reference for its results and its
    ReconstructionMismatch texts."""
    reach = len(window) - 1
    for k in range(top + 1, reach + 1):
        if window[k]:
            raise ReconstructionMismatch(
                f"nonzero verification coefficient {window[k]} at "
                f"degree {k}")
    if not sign:
        return window[:top + 1]
    low, high = max(top - reach, 0), min(reach, top)
    mirror = [sign * c for c in reversed(window[top - high:top - low + 1])]
    if window[low:high + 1] != mirror:
        k = next(k for k, c in enumerate(mirror, low) if window[k] != c)
        raise ReconstructionMismatch(
            f"coefficient {window[k]} at degree {k} breaks the "
            f"mirror of degree {top - k} ({window[top - k]})")
    return window[:top + 1] + [sign * c for c in reversed(window[:low])]


def mirrored_outcome(run, window, top, sign):
    """("ok", the list) or ("raises", the message) of run on a copy of
    the window, which must come back unchanged."""
    given_window = list(window)
    try:
        outcome = ("ok", run(given_window, top, sign))
    except ReconstructionMismatch as exc:
        outcome = ("raises", str(exc))
    assert given_window == window
    return outcome


nonzero_polys = st.lists(st.integers(-30, 30), min_size=1,
                         max_size=6).filter(any)
#: Psi_d exponents of an extra factor: (d, e) pairs, d >= 2, entering
#: the passes through `from_psi` (`factored`).
psi_parts = st.lists(st.tuples(st.integers(2, 30), st.integers(1, 2)),
                     max_size=2)


#: A seeded sample of 20 triples from the n = 3 sweep (gcd 1, weights
#: up to 15), which Laurent data is taken of at order 119.
SWEEP_SAMPLE = random.Random(12).sample(
    [w for w in combinations_with_replacement(range(1, 16), 3)
     if math.gcd(*w) == 1], 20)


@st.composite
def laurent_inputs(draw):
    """A rational function over (1 - x^m) factors, Psi_d factors, both
    or neither, and an order.  Factors of (1 - x) in the numerator push
    the pole order to zero and below."""
    one_minus_x = Poly([1, -1])
    num = QPolynomial(draw(nonzero_polys) if draw(st.booleans()) else [0])
    for _ in range(draw(st.integers(0, 8))):
        num = num * one_minus_x
    pairs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 2)),
                          max_size=3))
    den = factored(pairs, draw(psi_parts))
    return RationalFunction(num, den), draw(st.integers(0, 120))


@st.composite
def reducible_inputs(draw):
    """A random product of (1 - x^m)^e, times Psi_d factors or not, over
    a numerator of degree up to about 500 in which a random product of
    Psi_d is planted, mostly with d dividing some m or among the Psi_d
    of the denominator, so that it cancels."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 3)),
                          min_size=1, max_size=4))
    extra = draw(st.lists(st.tuples(st.integers(2, 40), st.integers(1, 2)),
                          max_size=3))
    divisors = sorted({d for m, _ in pairs for d in range(1, m + 1)
                       if m % d == 0} | {d for d, _ in extra})
    planted = draw(st.lists(st.one_of(st.sampled_from(divisors),
                                      st.just(1), st.integers(1, 40)),
                            max_size=8))
    num = QPolynomial(draw(st.lists(st.integers(-9, 9), min_size=1,
                                    max_size=450)))
    assume(num)
    for d in planted:
        num = num * psi(d)
    return RationalFunction(num, factored(pairs, extra))


@st.composite
def stride_inputs(draw):
    """Integer coefficients, repeated (1 - x^m) factors, Psi_d factors
    or none, and an order that may fall below the numerator degree."""
    coeffs = draw(st.lists(st.integers(-99, 99), max_size=30))
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)),
                          max_size=4))
    den = factored(pairs, draw(psi_parts))
    return coeffs, den, draw(st.integers(0, 45))


@st.composite
def monomial_inputs(draw):
    """(c * x^v, den, order): c a nonzero integer of either sign,
    repeated (1 - x^m) factors or none, Psi_d factors or none, and
    an order below, at or above v."""
    c = draw(st.integers(-99, 99).filter(bool))
    v = draw(st.integers(0, 40))
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)),
                          max_size=4))
    den = factored(pairs, draw(psi_parts))
    order = draw(st.one_of(st.just(v), st.integers(0, 45)))
    return QPolynomial.monomial(v, c), den, order


@st.composite
def packed_inputs(draw):
    """(c, v, passes, order, a) for `_packed_multisection`: c of either
    sign, up to 2^80; one or more sorted passes, with m = 1, 2 or
    others around PACKED_MIN_M, m >= 200, or both, repeats allowed; v
    below, at or above the order; a stride of 1 to 7."""
    c = draw(st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80))
             .filter(bool))
    small = st.one_of(st.sampled_from([1, 2]),
                      st.integers(1, PACKED_MIN_M + 3))
    passes = draw(st.lists(small, max_size=3))
    passes += draw(st.lists(st.integers(200, 260),
                            min_size=0 if passes else 1, max_size=3))
    if draw(st.booleans()):  # a repeated factor
        passes.append(draw(st.sampled_from(passes)))
    order = draw(st.integers(0, 700))
    v = draw(st.one_of(st.integers(0, order + 3), st.just(order)))
    return c, v, sorted(passes), order, draw(st.integers(1, 7))


def expand_monomial(c, v, passes, order):
    """`_expand_factored` on c * x^v over the passes, as (1 - x^m)."""
    den = FactoredDenominator.from_pairs((m, 1) for m in passes)
    return _expand_factored(QPolynomial.monomial(v, c), den, order)


def geometric(pairs, num=(1,)):
    return RationalFunction(QPolynomial(num),
                            FactoredDenominator.from_pairs(pairs))


class TestQPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPolynomial([0, 0]).degree == -1

    def test_hash_and_repr(self):
        p = QPolynomial([1, -2, 0])
        assert hash(p) == hash(QPolynomial([1, -2]))
        assert len({p, QPolynomial([1, -2]), QPolynomial([1])}) == 2
        assert repr(p) == "QPolynomial([1, -2])"
        assert repr(QPolynomial()) == "QPolynomial([])"

    @pytest.mark.parametrize("coeffs", [
        [1.5, 2], [Q(1, 2), 1], [1, Q(2)], [Decimal(1), 0], [0, 1, 2.0]])
    def test_rejects_non_int_coefficients(self, coeffs):
        with pytest.raises(TypeError, match="must be ints"):
            QPolynomial(coeffs)
        with pytest.raises(TypeError, match="must be ints"):
            QPolynomial(iter(coeffs))

    def test_bools_are_ints(self):
        assert QPolynomial([True, 2, False]) == QPolynomial([1, 2])

    def test_arithmetic(self):
        # a QPolynomial holds ints and has no arithmetic: products and
        # sums run through the integer kernels, and no number equals it
        p = QPolynomial([1, 1])
        for other in (p, 1):
            with pytest.raises(TypeError):
                p + other
            with pytest.raises(TypeError):
                p - other
            with pytest.raises(TypeError):
                p * other
        with pytest.raises(TypeError):
            3 * p
        assert QPolynomial([3]) != 3 and QPolynomial() != 0

    @given(st.lists(st.integers(-9, 9), max_size=6),
           st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 12))
    def test_mul_commutes(self, a, b, n):
        assert mul_truncated(a, b, n) == mul_truncated(b, a, n)
        assert QPolynomial(mul_truncated(a, b, len(a) + len(b))) \
            == Poly(a) * Poly(b)

    def test_integer_product_stays_integer(self):
        prod = mul_truncated([1, -2, 3], [4, 0, 5], 5)
        assert prod == [4, -8, 17, -10, 15]
        assert all(type(c) is int for c in prod)
        den = FactoredDenominator.from_pairs([(2, 1), (3, 2)])
        assert all(type(c) is int for c in den.expand().coeffs)


class TestSharedKernels:
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=8),
           st.integers(-9, 9).filter(lambda d: d not in (0, 1, -1)),
           st.lists(st.integers(-30, 30), max_size=6),
           st.integers(1, 10))
    @settings(max_examples=200)
    def test_deferred_quotient_matches_series_div(self, a, d0, tail, n):
        b = [d0] + tail
        got = deferred_quotient(a, b, n)
        want = dense_series_div(a, b, n - 1)
        assert all(type(c) is int for c in got)
        assert got == [q * d0 ** (k + 1) for k, q in enumerate(want)]

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=12),
           st.integers(1, 40))
    @settings(deadline=None)  # the first call imports sympy
    def test_deferred_quotient_undoes_cyclotomic_product(self, q, d):
        b = psi(d).coeffs
        prod = mul_truncated(q, b, len(q) + len(b) - 1)
        assert deferred_quotient(prod, b, len(q)) == q


class TestSeries:
    def test_geometric(self):
        s = series_of_rational(geometric([(1, 1)]), 5)
        assert s.coefficients == (1, 1, 1, 1, 1, 1)

    def test_two_factor_matches_division(self):
        for psi_part in ((), ((4, 1), (6, 2))):
            f = RationalFunction(QPolynomial([1, 5]),
                                 factored([(2, 1), (3, 2)], psi_part))
            assert list(series_of_rational(f, 40).coefficients) \
                == dense_series_div(f.numerator.coeffs,
                                    expanded_denominator(f).coeffs, 40)

    def test_multisection(self):
        f = geometric([(1, 2)])  # 1, 2, 3, ...
        assert multisected_prefix(f, 3, 3) == [1, 4, 7, 10]

    @given(stride_inputs())
    @settings(max_examples=150, deadline=None)
    def test_strided_sums_match_reference(self, case):
        coeffs, den, order = case
        num = QPolynomial(coeffs)
        assert _expand_factored(num, den, order) \
            == reference_expand_factored(num, den, order)
        prefix = coeffs + [0] * (order - len(coeffs))
        assert den.multiply_into(prefix) \
            == reference_multiply_into(den, prefix)

    @given(monomial_inputs())
    @settings(max_examples=200, deadline=None)
    def test_monomial_first_pass_matches_running_sums(self, case):
        num, den, order = case
        assert _expand_factored(num, den, order) \
            == reference_expand_factored(num, den, order)

    @pytest.mark.parametrize("v,order,pairs", [
        (7, 5, [(2, 1)]),            # v above the order: all zero
        (5, 5, [(3, 2)]),            # v at the order, e > 1
        (0, 12, [(1, 1), (4, 3)]),
        (3, 20, [(20, 1)]),          # m above order - v: one term
    ])
    def test_monomial_first_pass_cases(self, v, order, pairs):
        den = FactoredDenominator.from_pairs(pairs)
        for c in (1, -3, -14):
            num = QPolynomial.monomial(v, c)
            assert _expand_factored(num, den, order) \
                == reference_expand_factored(num, den, order)

    def test_series_div_vs_fraction(self):
        got = deferred_quotient([1], [2, -1], 7)
        assert [Q(n, 2 ** (k + 1)) for k, n in enumerate(got)] \
            == dense_series_div([1], [2, -1], 6) \
            == [Q(1, 2 ** (k + 1)) for k in range(7)]


class TestPackedMultisection:
    """Packed rows against every a-th coefficient of `_expand_factored`."""

    @given(packed_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_strided_expansion(self, case):
        c, v, passes, order, a = case
        assert _packed_multisection(c, v, passes, order, a) \
            == expand_monomial(c, v, passes, order)[::a]

    @pytest.mark.parametrize("c,v,passes,order,a", [
        (1, 0, [1, 200], 999, 3),             # m = 1 beside m >= 200
        (1, 0, [2, 201], 999, 5),
        (-1, 3, [1, 2, 383, 384], 2000, 7),   # a negative c
        (1, 5, [1, 1, 250, 250], 1500, 4),    # repeated factors
        (1, 2, [211, 211, 223], 3000, 3),
        (1, 601, [1, 300], 600, 2),           # v above the order: zeros
        (-1, 600, [2, 300], 600, 5),          # v at the order
        (1, 0, [1, 250], 700, 1),             # a = 1
        (3, 1, [7, 230, 231], 1234, 6),       # order a multiple of no m
        (23, 0, [20, 20], 199, 1),            # 1-byte lanes up to 230
        (2 ** 70, 4, [1, 2, 200], 900, 3),    # lanes above 8 bytes
        (-(2 ** 70), 4, [205, 206], 900, 1),
        # the start's rows of m = (third pass // q) * q lanes, v below,
        # at and above m and above the order
        (1, 3, [7, 10, 200], 1500, 3),        # m = 200, gcd(7, 200) = 1
        (1, 200, [7, 10, 200], 1500, 3),      # v = m: one whole zero row
        (-1, 413, [7, 10, 200], 1500, 2),     # v > 2m: zero rows, head
        (1, 1501, [7, 10, 200], 1500, 2),     # v above the order
        (1, 1500, [7, 10, 200], 1500, 2),     # v at the order
        (1, 4, [5, 10, 200], 1500, 7),        # first divides m
        (1, 4, [6, 10, 205], 1500, 7),        # m = 200, gcd 2: neither
        (2, 9, [3, 201, 250], 1200, 4),       # q = m: G = 1
        (1, 5, [7, 300], 1300, 3),            # two passes: m = q
        (-5, 11, [230], 900, 2),              # a single pass
        (1, 0, [250], 600, 1),
        # lanes at their bound: 1 bit (all 0 or 1), 2 bits (lane 600
        # holds 2), one whole byte (every value 255)
        (1, 0, [200, 201], 150, 1),
        (1, 0, [200, 300], 600, 1),
        (255, 2, [220], 700, 1),
        # clustered weights, (191, 192, 193): the first two passes of
        # m = 1 or 2 written down at once, as rows of 383 or 382 lanes
        (1, 0, [1, 1, 383, 385], 76608, 192),
        (-1, 5, [1, 2, 383, 384], 76209, 191),
        # passes below PACKED_MIN_M folded into the start beside the
        # second: rows of a multiple of their lcm, or of the lcm itself
        # when the next pass is smaller (rows then cut into shorter ones)
        (-1, 7, [1, 2, PACKED_MIN_M - 1, 300], 2000, 3),
        (-1, 7, [1, 2, PACKED_MIN_M, 300], 2000, 3),
        (1, 3, [2, 3, 4, 5, 300, 301], 3000, 7),
        (1, 0, [1, 3, 4, 5, 6, 250], 2500, 5),
        (1, 2, [1, 1, 2, 4, 5, 7, 497, 503], 4000, 3),
        # rows of the lcm 60, far past the order: lanes there outgrow
        # the width, unread, and carry only upwards
        (1, 0, [1, 3, 4, 5], 10, 1),
        (-3, 1, [2, 3, 4, 5], 40, 1),
    ])
    def test_cases(self, c, v, passes, order, a):
        assert _packed_multisection(c, v, passes, order, a) \
            == expand_monomial(c, v, passes, order)[::a]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cut_rows_matches_one_int(self, data):
        # cutting rows of `held` bits into rows of `wanted` bits is the
        # same as cutting their concatenation, zeros past its end
        held, wanted, count = (data.draw(st.integers(1, 90)),
                               data.draw(st.integers(1, 90)),
                               data.draw(st.integers(0, 14)))
        rows = data.draw(st.lists(st.integers(0, (1 << held) - 1),
                                  max_size=12))
        whole = sum(row << held * i for i, row in enumerate(rows))
        mask = (1 << wanted) - 1
        assert _cut_rows(rows, held, wanted, count) \
            == [whole >> wanted * j & mask for j in range(count)]

    @pytest.mark.parametrize("reach,pairs,num,packed", [
        (4095, [(1, 1), (300, 1)], [0, 0, -1], True),
        (40, [(1, 1), (300, 1)], [0, 0, -1], True),  # a short prefix
        (4095, [(1, 1), (PACKED_MIN_M, 1)], [1], True),
        (4095, [(1, 1), (PACKED_MIN_M - 1, 1)], [1], True),
        (4095, [(1, 1), (300, 1)], [1, 1], False),
        (4095, [(300, 1)], [1], True),
    ])
    def test_selection(self, reach, pairs, num, packed):
        # packed rows for an integer monomial over one factor or more,
        # whatever its m and however long the prefix
        f = geometric(pairs, num)
        with mock.patch.object(squot.exact, "_packed_multisection",
                               wraps=_packed_multisection) as spy:
            got = multisected_prefix(f, 1, reach)
        assert spy.called == packed
        assert got == _expand_factored(f.numerator, f.denominator, reach)

    # Psi_6 = (1 - x^6)(1 - x) / (1 - x^2)(1 - x^3) leaves two passes
    # that multiply, which packed rows cannot take, under a unit or a
    # scaled monomial
    @pytest.mark.parametrize("num,other", [([1], ((6, 1),)),
                                           ([0, -2], ((6, 1),))])
    def test_extra_factor_and_fraction_stay_on_the_list(self, num, other):
        den = factored([(1, 1), (300, 1)], other)
        f = RationalFunction(QPolynomial(num), den)
        with mock.patch.object(squot.exact, "_packed_multisection") as spy:
            got = multisected_prefix(f, 2, 4096)
        assert not spy.called
        assert got == _expand_factored(f.numerator, den, 2 * 4096)[::2]


class TestReconstruction:
    def test_roundtrip(self):
        den = FactoredDenominator.from_pairs([(2, 1), (5, 1)])
        num = QPolynomial([1, 3, 0, -2])
        prefix = series_of_rational(RationalFunction(num, den), 40)
        assert rational_reconstruct(prefix, den, 3) == num

    def test_wrong_denominator_detected(self):
        prefix = series_of_rational(geometric([(3, 1)]), 40)
        with pytest.raises(ReconstructionMismatch):
            rational_reconstruct(prefix, FactoredDenominator.from_pairs(
                [(2, 1)]), 2)

    def test_prefix_too_short(self):
        prefix = series_of_rational(geometric([(1, 1)]), 10)
        with pytest.raises(InputError, match="too short for degree bound"):
            rational_reconstruct(prefix, FactoredDenominator.from_pairs(
                [(1, 1)]), 4)


class TestMirrored:
    @pytest.mark.parametrize("sign", [-1, 0, 1])
    @pytest.mark.parametrize("top", [0, 1, 6, 9])
    def test_matches_comprehension_reference(self, sign, top):
        # windows shorter than, as long as and longer than top + 1,
        # whole or with one entry off by +-1 (in the mirrored part, the
        # vanishing tail or the fill's source)
        rng = random.Random(10 * top + sign)
        num = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(top + 1)]
        if sign:
            for k in range(top // 2 + 1, top + 1):
                num[k] = sign * num[top - k]
            if top % 2 == 0 and sign < 0:
                num[top // 2] = 0
        raised = 0
        for length in range(top + 5):
            window = (num + [0] * 4)[:length]
            want = reference_mirrored(window, top, sign)
            assert mirrored_outcome(_mirrored, window, top, sign) \
                == ("ok", want)
            if length >= (top + 1 if not sign else top // 2 + 1):
                assert want == num
            for k in range(length):
                for delta in (-1, 1):
                    faulted = list(window)
                    faulted[k] += delta
                    got = mirrored_outcome(_mirrored, faulted, top, sign)
                    assert got == mirrored_outcome(reference_mirrored,
                                                   faulted, top, sign)
                    raised += got[0] == "raises"
        assert raised


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

    @pytest.mark.parametrize("a", [0, -2])
    def test_a_below_1_rejected(self, a):
        with pytest.raises(InputError, match="a must be >= 1"):
            resultant_transform(binomial_factor(2), a)

    @pytest.mark.parametrize("coeffs", [(), (0, 1), (0, 0, 3)], ids=str)
    def test_vanishing_at_0_rejected(self, coeffs):
        with pytest.raises(InputError, match="must not vanish at 0"):
            resultant_transform(QPolynomial(coeffs), 2)

    @pytest.mark.parametrize("c, a", [(1, 1), (-3, 2), (2, 5)])
    def test_constant_den(self, c, a):
        assert resultant_transform(QPolynomial([c]), a) \
            == QPolynomial([c ** a])

    def test_non_integral_result_rejected(self):
        # integer coefficients always give the integer resultant (see
        # the next test); 1/2 + x, whose transform 1/4 - x would not be
        # integral, is rejected by QPolynomial's integer contract
        with pytest.raises(TypeError, match="must be ints"):
            resultant_transform(QPolynomial([Q(1, 2), 1]), 2)

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=5)
           .filter(lambda c: c[0] and c[-1]), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_integral_for_any_leading_coefficient(self, coeffs, a):
        # +-lead^a prod (x - r_i^a) is Res_z(den(z), z^a - x), an
        # integer polynomial, whatever the leading coefficient
        import sympy
        x, z = sympy.symbols("x z")
        res = sympy.Poly(sympy.resultant(
            sum(c * z ** k for k, c in enumerate(coeffs)), z ** a - x, z), x)
        want = [int(c) for c in reversed(res.all_coeffs())]
        sign = 1 if want[0] == coeffs[0] ** a else -1
        got = resultant_transform(QPolynomial(coeffs), a)
        assert all(type(c) is int for c in got.coeffs)
        assert got == QPolynomial(sign * c for c in want)

    @given(st.integers(1, 6), st.lists(st.integers(1, 6), min_size=1,
                                       max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, a, ms):
        # transform of a product is the product of transforms
        polys = [binomial_factor(m) for m in ms]
        product = expected = ONE
        for p in polys:
            product = product * p
            expected = expected * resultant_transform(p, a)
        assert resultant_transform(product, a) == expected


class TestLaurent:
    def test_simple_pole(self):
        f = geometric([(2, 1)])
        ex = laurent_at_one(f, 4)
        assert ex.pole_order == 1
        assert ex.coefficients == (Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16),
                                   Q(1, 32))

    def test_no_pole(self):
        f = RationalFunction(QPolynomial([0, 1]), FactoredDenominator(()))
        ex = laurent_at_one(f, 2)
        assert ex.pole_order == 0
        assert ex.coefficients == (1, -1, 0)

    def test_zero_cancellation(self):
        # (1-x^2)/(1-x)^2 has a simple pole only
        f = geometric([(1, 2)], num=(1, 0, -1))
        assert laurent_at_one(f, 3).pole_order == 1

    @given(laurent_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        f, order = case
        assert value(laurent_at_one(f, order)) \
            == reference_laurent_at_one(f, order)

    @pytest.mark.parametrize("weights", SWEEP_SAMPLE + [(7, 8, 8, 8)],
                             ids=str)
    def test_sweep_sample_at_order_119(self, weights):
        f = hilbert_series(weights).on_shell
        if weights == (7, 8, 8, 8):
            assert _grouped(f.denominator)[1]  # an extraFactor
        assert value(laurent_at_one(f, 119)) \
            == reference_laurent_at_one(f, 119)

    @given(laurent_inputs())
    @settings(max_examples=150, deadline=None)
    def test_integer_core_gives_the_fractions(self, case):
        # laurent_at_one holds integers n_k over one D, its coefficients
        # are n_k / D, and the CLI prints each as str(Fraction(n_k, D)),
        # zero numerators and pole orders below zero included
        f, order = case
        ex = laurent_at_one(f, order)
        nums, scale = ex.numerators, ex.scale
        assert type(scale) is int and scale > 0 and len(nums) == order + 1
        assert all(type(n) is int for n in nums)
        want = tuple(Fraction(n, scale) for n in nums)
        assert ex.coefficients == want
        assert laurent_payload(ex)["coefficients"] == list(map(str, want))

    @pytest.mark.parametrize("num, pairs, want", [
        ((0,), [(2, 1)], (0, ["0", "0", "0", "0"])),
        ((1, -3, 3, -1), [(2, 1)], (0, ["0", "0", "1/2", "1/4"])),
        ((1,), [(2, 1)], (1, ["1/2", "1/4", "1/8", "1/16"])),
        ((Q(-3, 2),), [(3, 2)], (2, ["-1/6", "-1/3", "-7/18", "-1/3"])),
    ], ids=str)
    def test_integer_core_text(self, num, pairs, want):
        # a Fraction row is read as integers and a scale first, as at a
        # file's edge, and its gamma_k are the integer row's over it
        unit, ints = cleared(num)
        f = RationalFunction(QPolynomial(ints),
                             FactoredDenominator.from_pairs(pairs))
        ex = laurent_at_one(f, 3)
        assert laurent_payload(ex._replace(scale=ex.scale * unit)) \
            == {"poleOrder": want[0], "coefficients": want[1]}

    @pytest.mark.parametrize("weights", SWEEP_SAMPLE, ids=str)
    def test_cli_prints_the_fraction_document(self, weights, capsys):
        # `laurent` formats the record's integers; its stdout is the
        # document built from its Fractions
        csv = ",".join(map(str, weights))
        assert main(["laurent", "--weights", csv, "--order", "119"]) == 0
        norm = normalize_weights(weights)
        gamma0 = gamma0_closed(norm)
        gamma2 = str(gamma2_closed(norm))
        ex = laurent_at_one(hilbert_series(weights).on_shell, 119)
        result = {"poleOrder": ex.pole_order,
                  "coefficients": [str(c) for c in ex.coefficients]}
        result["closedForms"] = {"gamma0": str(gamma0), "gamma2": gamma2,
                                 "gamma3": gamma2}
        result["agreement"] = True
        document = {"schemaVersion": "1", "command": "laurent",
                    "request": {"weights": list(weights), "order": 119},
                    "result": result}
        assert capsys.readouterr() \
            == (json.dumps(document, indent=2) + "\n", "")

    def test_negative_pole_order_padded(self):
        # (1-x)^3 / (1-x^2): a double zero, so gamma_0 = gamma_1 = 0
        f = RationalFunction(QPolynomial([1, -3, 3, -1]),
                             FactoredDenominator.from_pairs([(2, 1)]))
        ex = laurent_at_one(f, 3)
        assert ex.pole_order == 0
        assert ex.coefficients == (0, 0, Q(1, 2), Q(1, 4))

    def test_negative_order_rejected(self):
        with pytest.raises(InputError, match="order must be >= 0, got -1"):
            laurent_at_one(geometric([(1, 1)]), -1)

    @pytest.mark.parametrize("t", range(1, 21))
    def test_prototype_matches_engine(self, t):
        f = geometric([(t, 1)])
        engine = laurent_at_one(f, 8)
        proto = laurent_prototype(t, 8)
        assert proto.pole_order == engine.pole_order == 1
        assert proto.coefficients == engine.coefficients

    def test_prototype_needs_nonzero_t(self):
        with pytest.raises(InputError, match="t must be nonzero"):
            laurent_prototype(0, 3)

    def test_prototype_leading_terms(self):
        ex = laurent_prototype(Q(5, 3), 3)
        t = Q(5, 3)
        assert ex.coefficients[0] == 1 / t
        assert ex.coefficients[1] == (t - 1) / (2 * t)
        assert ex.coefficients[2] == (t * t - 1) / (12 * t)
        assert ex.coefficients[3] == (t * t - 1) / (24 * t)

    @pytest.mark.parametrize("t", [1, 2, 5, -4, Q(1, 3), Q(-7, 2)])
    def test_prototype_matches_long_division(self, t):
        # 1 / (1 - (1-u)^t), times u, as a Fraction long division
        b, binom = [], Q(1)
        for k in range(1, 14):
            binom *= (t - (k - 1)) / Q(k)
            b.append(-((-1) ** k) * binom)
        assert list(laurent_prototype(t, 12).coefficients) \
            == dense_series_div([1], b, 12)


@st.composite
def on_shell_inputs(draw):
    """The on-shell series of a random weight vector, n = 2..5."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    return hilbert_series(tuple(sorted(weights)), oracle_degree=0).on_shell


@st.composite
def molien_inputs(draw):
    """The Molien series of a random finite diagonal group."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.integers(2, 9).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(
            st.integers(0, m - 1), min_size=n, max_size=n).map(tuple))),
        min_size=1, max_size=2))
    return molien_series(FiniteDiagonalGroup.from_generators(gens))


@st.composite
def integer_inputs(draw):
    """A non-reciprocal integer numerator, x^k times its coefficients,
    over random (1 - x^m) factors and Psi_d factors."""
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
    assume(any(coeffs))
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)),
                          max_size=4))
    num = [0] * draw(st.integers(0, 3)) + coeffs
    return RationalFunction(QPolynomial(num),
                            factored(pairs, draw(psi_parts)))


@st.composite
def low_pole_inputs(draw):
    """A numerator with as many factors 1 - x as the denominator has,
    or more: pole order zero or negative."""
    f = draw(integer_inputs())
    num = f.numerator
    poles = sum(e for _, e in f.denominator.factors)
    for _ in range(poles + draw(st.integers(0, 4))):
        num = num * Poly([1, -1])
    return RationalFunction(QPolynomial(num.coeffs), f.denominator)


def in_w_calls(f, order):
    """laurent_at_one(f, order) and, for each part it maps back to u
    (A first, then (1 - x) B'), whether it has odd span and so leaves
    the factor 2 - u."""
    odd = []
    real = squot.exact._in_u

    def spy(f_w, size, shift, plus):
        odd.append(plus)
        return real(f_w, size, shift, plus)

    with mock.patch.object(squot.exact, "_in_u", spy):
        return laurent_at_one(f, order), odd


class TestLaurentInW:
    """The w-route of laurent_at_one against the u-route and the
    Fraction route."""

    @given(st.one_of(on_shell_inputs(), molien_inputs(), integer_inputs(),
                     low_pole_inputs()),
           st.integers(0, 150))
    @settings(max_examples=150, deadline=None)
    def test_matches_both_references(self, f, order):
        got = laurent_at_one(f, order)
        assert value(got) == reference_u_laurent(f, order)
        assert value(got) == reference_laurent_at_one(f, order)

    @pytest.mark.parametrize("num, pairs, psi, odd", [
        # R of odd degree: an odd count of even m, so N (1 + x) / (R (1 + x))
        ((1,), [(2, 1), (3, 1)], [], [1]),
        ((1, 1), [(2, 1), (3, 1)], [], [0]),
        ((1,), [(2, 3), (4, 2)], [], [1]),
        # A of odd degree: the factor 1 + x = 2 - u
        ((1, 1), [(1, 1), (3, 2)], [], [1]),
        ((2, 5, 5, 2), [(5, 3)], [], [1]),
        # anti-palindromic numerators: A = 0 until 1 - x is taken out
        ((1, 0, 0, -1), [(2, 1), (5, 1)], [], [1]),
        ((1, -2, 0, 2, -1), [(3, 2)], [], [1]),
        ((1, 0, -1), [(3, 1), (4, 1)], [], [0]),
        # B' = 0: palindromic numerators, even and odd span, x^2 taken out
        ((1, 0, 1), [(1, 2), (3, 1)], [], [0]),
        ((0, 0, 1, 4, 1), [(3, 1)], [], [0]),
        ((0, 0, 1, 4, 1), [(6, 1)], [], [1]),
        # neither part zero: A and (1 - x) B' of opposite parities
        ((1, 2), [(3, 1)], [], [1, 0]),
        ((1, 2), [(2, 1)], [], [0, 1]),
        ((3, 0, 1, 7), [(1, 1), (4, 2)], [], [1, 0]),
        # Psi_d passes with e < 0 multiply the numerator
        ((1,), [(6, 2)], [(4, 1)], [0]),
        ((1, 1), [(3, 1)], [(2, 1)], [0]),
        ((5, 1), [], [(2, 2), (6, 1)], [1, 0]),
    ], ids=str)
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 40])
    def test_parity_branches(self, num, pairs, psi, odd, order):
        f = RationalFunction(QPolynomial(num),
                             factored(pairs, psi))
        got, seen = in_w_calls(f, order)
        assert value(got) == reference_laurent_at_one(f, order)
        assert value(got) == reference_u_laurent(f, order)
        # every pole order here is -1 or more: from order 2 on, both
        # parts have terms left
        assert seen == (odd if order >= 2 else odd[:len(seen)])

    @pytest.mark.parametrize("weights", [(1, 1, 5, 8), (1, 1, 7, 11),
                                         (1, 6, 6, 10)])
    @pytest.mark.parametrize("order", [0, 3, 40])
    def test_multiplying_passes_above_m_1(self, weights, order):
        # a Psi_d of these on-shell series leaves a pass (m, e) with
        # m > 1 and e < 0, a (1 - x^m) that multiplies the numerator
        f = hilbert_series(weights, oracle_degree=0).on_shell
        assert any(m > 1 > e for m, e in f.denominator.factors)
        assert value(laurent_at_one(f, order)) \
            == reference_u_laurent(f, order)

    def test_negative_pole_leaves_no_terms(self):
        # (1 - x)^5 / (1 - x^2): gamma_0..gamma_3 = 0 take no w-terms
        num = ONE
        for _ in range(5):
            num = num * Poly([1, -1])
        f = RationalFunction(QPolynomial(num.coeffs),
                             FactoredDenominator.from_pairs([(2, 1)]))
        got, seen = in_w_calls(f, 3)
        assert value(got) == (0, (0, 0, 0, 0)) and seen == []
        assert value(laurent_at_one(f, 4)) == reference_laurent_at_one(f, 4)

    @pytest.mark.parametrize("m", range(2, 201))
    def test_w_rows_match_peel(self, m):
        # [m]_x has span m - 1; peeled from its low half, it is the
        # closed-form row, (1 + x) taken out for even m
        n = m // 2 + 2
        assert _peeled([1] * ((m + 1) // 2), 1 - m % 2, n) \
            == list(_w_row(m, n))
        assert list(_w_row(m, 3)) == list(_w_row(m, n))[:3]


#: Degenerate weight vectors whose off-shell result is reduced: with a
#: leftover extra factor, with cyclotomic factors cancelled, n = 3 and 4.
DEGENERATE_SAMPLE = [(13, 13, 14, 15), (15, 15, 16, 16), (5, 7, 7, 8),
                     (7, 8, 8, 8), (1, 1, 1, 2), (1, 2, 2), (3, 3, 5),
                     (2, 2, 3, 5), (4, 5, 5, 7), (6, 6, 7, 8), (1, 9, 9),
                     (8, 11, 11)]


class TestReduce:
    def test_divmod_exact(self):
        p = QPolynomial([1, 0, -1])
        quo, rem = reference_divmod(p, QPolynomial([1, -1]))
        assert not rem and quo == QPolynomial([1, 1])
        assert reference_exact_div(p, QPolynomial([1, 1])) \
            == QPolynomial([1, -1])
        with pytest.raises(ValueError):
            reference_exact_div(QPolynomial([1, 1, 1]), QPolynomial([1, 1]))

    def test_gcd_is_monic(self):
        a = Poly([1, -1]) * Poly([2, 2])
        b = Poly([1, -1]) * Poly([3, 0, 3])
        assert reference_gcd(a, b) == QPolynomial([-1, 1])

    def test_psi_passes_are_cyclotomic(self):
        # the (1 - x^j)^mu(d/j) passes multiply out to Psi_d, of degree
        # phi(d)
        import sympy
        assert _psi_passes(1) == ((1, 1),)
        for d in range(2, 201):
            den = FactoredDenominator.from_psi([(d, 1)])
            assert den.expand() == psi(d), d
            assert den.degree == sympy.totient(d), d

    def test_cancel_and_regroup(self):
        # (1 + x) / ((1 - x^2)(1 - x^3)) = 1 / ((1 - x)(1 - x^3))
        f = geometric([(2, 1), (3, 1)], num=(1, 1))
        got = f.reduce()
        assert got.numerator == QPolynomial([1])
        assert got.denominator == FactoredDenominator.from_pairs(
            [(1, 1), (3, 1)])

    def test_leftover_goes_to_extra_factor(self):
        # 2 (1 - x) / (1 - x^2) = 2 / (1 + x): no (1 - x^m) left,
        # Psi_2 = (1 - x^2) / (1 - x) printed as the extra factor
        f = geometric([(2, 1)], num=(2, -2))
        got = f.reduce()
        assert got.numerator == QPolynomial([2])
        assert got.denominator.factors == ((1, -1), (2, 1))
        assert got.denominator == FactoredDenominator.from_psi([(2, 1)])
        assert series_payload(got)["extraFactor"] == [1, 1]

    def test_zero_numerator(self):
        got = geometric([(3, 2)], num=()).reduce()
        assert not got.numerator
        assert got.denominator == FactoredDenominator(())

    @given(reducible_inputs())
    @settings(max_examples=40, deadline=None)
    def test_matches_gcd_reference(self, f):
        got = f.reduce()
        num, den = reference_reduce(f)
        pairs, leftover = reference_regroup(den)
        grouped, psi = _grouped(got.denominator)
        assert got.numerator == num
        assert tuple(grouped) == pairs
        assert dense_psi(psi) == leftover
        assert got.denominator.expand() == expanded_denominator(got)
        assert same_function(got, f)

    @given(reducible_inputs())
    @settings(max_examples=40, deadline=None)
    def test_accepts_its_own_output(self, f):
        once = f.reduce()
        assert once.reduce() == once

    @pytest.mark.parametrize("weights", DEGENERATE_SAMPLE,
                             ids=lambda w: ",".join(map(str, w)))
    def test_degenerate_payload_matches_reference(self, weights):
        (packed, width, _, _, den), _ = hilbert_off_clustered(weights)
        off = RationalFunction(QPolynomial(_lanes(packed, width)[0]), den)
        assert (json.dumps(series_payload(off.reduce()))
                == json.dumps(reference_payload(off)))


class TestReciprocity:
    def test_pure_denominator(self):
        # (1 + x^2) / (1 - x)^2 (1 - x^3): f(1/x) = -x^3 f(x)
        f = geometric([(1, 2), (3, 1)], (1, 0, 1))
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(f, 3, "f")
        # 1 / (1 - x)^2: f(1/x) = x^2 f(x), and no other shift
        check_reciprocity(geometric([(1, 2)]), 2, "g")
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(geometric([(1, 2)]), 1, "g")

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 6, 9, 10, 11])
    def test_perturbed_numerator(self, k):
        # the on-shell series of (1, 2, 3): C = 14 - 4, palindromic, so
        # any coefficient but the middle one breaks it
        num = [1, 0, 1, 3, 4, 4, 4, 3, 1, 0, 1]
        pairs = [(2, 1), (3, 1), (4, 1), (5, 1)]
        check_reciprocity(geometric(pairs, num), 4, "on shell")
        num += [0] * (k + 1 - len(num))
        num[k] += 1
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(geometric(pairs, num), 4, "perturbed")

    def test_extra_factor(self):
        # 1 / (1 - x)^2 (1 + x)^2 = x^4 f at 1/x; 1 / (1 - x)(1 + x)
        # has the sign -1
        f = RationalFunction(ONE, factored([(1, 2)], [(2, 2)]))
        check_reciprocity(f, 4, "f")
        g = RationalFunction(ONE, factored([(1, 1)], [(2, 1)]))
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(g, 2, "g")
        # (1 + 3x + x^2) over (1 - x^2) Psi_3: odd E, palindromic
        # numerator, so no shift holds
        h = RationalFunction(QPolynomial([1, 3, 1]),
                             factored([(2, 1)], [(3, 1)]))
        for shift in range(-2, 8):
            with pytest.raises(ReciprocityMismatch):
                check_reciprocity(h, shift, "h")

    def test_extra_factor_enters_the_check(self):
        # 1 / (1 - x)^2 Psi_3: f(1/x) = x^4 f(x), the degree 2 of Psi_3
        # counted beside the 2 of the binomials
        f = RationalFunction(ONE, factored([(1, 2)], [(3, 1)]))
        check_reciprocity(f, 4, "f")
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(f, 2, "f")
        # a numerator not palindromic over Psi_5 Psi_12^2
        g = RationalFunction(QPolynomial([1, 2]),
                             factored([(1, 2)], [(5, 1), (12, 2)]))
        for shift in range(14):
            with pytest.raises(ReciprocityMismatch):
                check_reciprocity(g, shift, "g")


class TestFactoredDenominator:
    def test_expand(self):
        den = FactoredDenominator.from_pairs([(1, 2), (2, 1)])
        assert den.expand() == (binomial_factor(1) * binomial_factor(1)
                                * binomial_factor(2))
        assert den.degree == 4

    def test_pair_merge(self):
        den = FactoredDenominator.from_pairs([(2, 1), (2, 2)])
        assert den.factors == ((2, 3),)

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)),
                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_regrouping_keeps_a_pure_product(self, pairs):
        # the largest m's Psi_m carries exactly its factor's exponent, so
        # the print-time grouping gives the product back, with no Psi_d
        # left over: the greedy trial division of the dense product
        den = FactoredDenominator.from_pairs(pairs)
        assert _grouped(den) == (list(den.factors), [])
        assert reference_regroup(dense_denominator(den)) \
            == (den.factors, ONE)

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)),
                    max_size=4), psi_parts)
    @settings(max_examples=100, deadline=None)
    def test_grouping_multiplies_back(self, pairs, psi):
        # the grouped factors and the Psi_d left over are the same
        # passes, and the leftovers are Psi_d with d >= 2
        den = factored(pairs, psi)
        grouped, left = _grouped(den)
        assert factored(grouped, left) == den
        assert all(e > 0 for _, e in grouped)
        assert all(d >= 2 and e > 0 for d, e in left)

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 3)),
                    max_size=4), psi_parts,
           st.lists(st.integers(1, 30), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_equal_polynomials_equal_denominators(self, pairs, psi, ms):
        # the same product grouped another way, some Psi_d into
        # (1 - x^m) factors for the drawn m and the rest left as Psi_d,
        # gives the same passes
        den = factored(pairs, psi)
        exps, other = den.psi_exponents(), []
        for m in ms:
            divisors = [d for d in range(1, m + 1) if m % d == 0]
            if k := min(exps.get(d, 0) for d in divisors):
                other.append((m, k))
                for d in divisors:
                    exps[d] -= k
        again = factored(other, [(d, e) for d, e in exps.items() if e])
        assert dense_denominator(again) == dense_denominator(den)
        assert again == den

    def test_psi_exponents(self):
        # (1 - x^4)^2 (1 - x^6) Psi_3 = Psi_1^3 Psi_2^3 Psi_4^2 Psi_3^2 Psi_6
        den = factored([(4, 2), (6, 1)], [(3, 1)])
        assert den.factors == ((1, -1), (3, 1), (4, 2), (6, 1))
        assert den.psi_exponents() == {1: 3, 2: 3, 3: 2, 4: 2, 6: 1}
        assert _grouped(den) == ([(4, 2), (6, 1)], [(3, 1)])

    def test_invalid_pairs(self):
        with pytest.raises(InputError, match="factors need m >= 1"):
            FactoredDenominator.from_pairs([(0, 1)])


class TestRecords:
    def test_fields_are_read_only(self):
        r = hilbert_series((1, 2, 3))
        a = analyze_group(FiniteDiagonalGroup.from_generators([(3, (1, 2))]))
        records = [r, r.on_shell, r.on_shell.denominator,
                   series_of_rational(r.on_shell, 4), a.laurent, a.group,
                   a.reflections, a, symplectic_check(a.laurent, 2),
                   full_scan(3)[0]]
        assert len({type(x) for x in records}) == 10
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
