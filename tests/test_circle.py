"""Tests for the circle-quotient Hilbert series engine."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, zip_longest

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import squot.circle
import squot.exact
from squot.circle import (HilbertSeriesResult, _averaged_reciprocity,
                          _cofactor_sum, _excess,
                          _kernel_coefficient, _kernel_off_counts,
                          _kronecker_off_counts, _lanes, _lattice_exponents,
                          _lifted, _mirrored,
                          _oracle_method, _packed, _pair_sum_denominator,
                          _weight_clusters, _width, _words,
                          hilbert_equal_weights,
                          hilbert_off_clustered, hilbert_on_distinct,
                          hilbert_series, normalize_weights, oracle_off_counts,
                          pair_average, residue_cluster, u_average,
                          verify_against_oracle)
from squot.errors import (InputError, OracleMismatch, ReciprocityMismatch,
                          ReconstructionMismatch)
from squot.exact import (SLACK, FactoredDenominator, QPolynomial,
                         RationalFunction, TruncatedSeries, _divide_binomial,
                         _packed_multisection, check_reciprocity, cleared,
                         deferred_quotient, laurent_at_one, mul_truncated,
                         peel_common, rational_reconstruct,
                         series_of_rational)
from squot.cli import _grouped
from squot.laurent import gamma0_closed, gamma2_closed

from polyring import ONE, Poly, factored


def reference_oracle_off_counts(weights, order):
    """Brute-force invariant monomial counts by a dense table over
    (total degree, weighted sum), every weighted sum up to
    order * max(weights) stored, whole rows convolved."""
    top = order * max(weights)
    table = [[0] * (top + 1) for _ in range(order + 1)]
    table[0][0] = 1
    for a in weights:
        for d in range(1, order + 1):
            row, prev = table[d], table[d - 1]
            for s in range(a, top + 1):
                row[s] += prev[s - a]
    counts = []
    for k in range(order + 1):
        total = 0
        for d in range(k + 1):
            left, right = table[d], table[k - d]
            total += sum(x * y for x, y in zip(left, right) if x)
        counts.append(total)
    return counts


def off_shell_equal_weights(n, order):
    """Off-shell coefficients 0..order for n equal weights: that of
    x^(2d) is C(n+d-1,d)^2."""
    coeffs = [0] * (order + 1)
    for d in range(order // 2 + 1):
        coeffs[2 * d] = math.comb(n + d - 1, d) ** 2
    return coeffs


def reference_u_average(f, a):
    """The full-length multisection: a prefix of a * (bound + 2 + SLACK)
    coefficients, every a-th one kept and reconstructed over the exact
    image denominator, with no mirror."""
    target = exact_image(f.denominator, a)
    bound = target.degree
    prefix = series_of_rational(f, a * (bound + 2 + SLACK))
    sect = TruncatedSeries(prefix.coefficients[::a])
    return RationalFunction(rational_reconstruct(sect, target, bound),
                            target)


def phi_tilde(weights, i):
    """Partial-fraction piece of coordinate i for distinct weights, the
    reference route for the Generic pieces.

    The raw piece is 1 / prod_{j != i} (1-x^(a_i-a_j))(1-x^(a_i+a_j)).
    Negative exponents are folded away with
    1/(1-x^(-m)) = -x^m/(1-x^m), so the result is analytic at 0.
    """
    a = weights[i]
    sign = 1
    shift = 0
    pairs = []
    for j, b in enumerate(weights):
        if j == i:
            continue
        for e in (a - b, a + b):
            if e == 0:
                raise ValueError(f"repeated weight in {tuple(weights)}")
            if e < 0:
                sign = -sign
                shift += -e
            pairs.append((abs(e), 1))
    return RationalFunction(QPolynomial.monomial(shift, sign),
                            FactoredDenominator.from_pairs(pairs))


def reference_hilbert_on_distinct(weights):
    """The phi_tilde route: each coordinate's piece averaged over its
    roots of unity, the pieces summed as series through the degree of
    the pair-sum denominator plus SLACK, and the sum reconstructed over
    that denominator."""
    pieces = tuple(u_average(phi_tilde(weights, i), a)
                   for i, a in enumerate(weights))
    target = _pair_sum_denominator(weights)
    bound = target.degree
    series = (series_of_rational(piece, bound + SLACK).coefficients
              for piece in pieces)
    total = TruncatedSeries(tuple(map(sum, zip(*series))))
    return (RationalFunction(rational_reconstruct(total, target, bound),
                             target), pieces)


def reference_residue_cluster(a, p, rest):
    """The route of `residue_cluster` over polynomial coefficients, for
    every p: Den(t) as a t-polynomial truncated at t^p whose
    coefficients are `Poly`s in u, the deferred quotient, the u-shift
    and a peel."""
    tmax = p - 1
    exponent = p * a - 1 + sum(pb * b for b, pb in rest)

    def binomial_in_t(top, k, sign):  # the t^1..t^tmax terms
        return [Poly.monomial(top - j, sign * math.comb(k, j))
                for j in range(1, min(k, tmax) + 1)]
    factors = [([ONE - Poly.monomial(2 * a)]
                + binomial_in_t(2 * a, a, -1), p),
               ([Poly.monomial(a - 1 - j, math.comb(a, j + 1))
                 for j in range(min(a - 1, tmax) + 1)], p)]
    scalar, shift, pairs = a ** p, p * (a - 1), [(2 * a, p)]
    for b, pb in rest:
        factors += [([ONE - Poly.monomial(a + b)]
                     + binomial_in_t(a + b, b, -1), pb),
                    ([Poly.monomial(b) - Poly.monomial(a)]
                     + binomial_in_t(b, b, 1), pb)]
        pairs += [(a + b, pb), (abs(a - b), pb)]
        shift += pb * min(a, b)
        scalar *= (-1) ** pb if b > a else 1
    den = [ONE]
    for factor, e in factors:
        for _ in range(e):
            den = mul_truncated(den, factor, p)
    # (u+t)^exponent
    powers = [Poly.monomial(exponent - j, math.comb(exponent, j))
              for j in range(min(exponent, tmax) + 1)]
    num = deferred_quotient(powers, den, p)[tmax]
    assert num.valuation() >= shift * p
    return peel_common(RationalFunction(
        QPolynomial(num.coeffs[shift * p:]),
        FactoredDenominator.from_pairs((m, e * p) for m, e in pairs))), \
        scalar ** p


def equal_in_value(got, want):
    """Whether two (g, s) pairs of `residue_cluster` give equal g / s:
    with g = N/D and h = N'/D', g/s - h/s' vanishes through degree
    max(deg N + deg D', deg N' + deg D) iff N s' D' - N' s D, a
    polynomial of that degree, is zero."""
    (g, s), (h, t) = got, want
    order = max(g.numerator.degree + h.denominator.degree,
                h.numerator.degree + g.denominator.degree)
    left, right = (series_of_rational(f, order).coefficients for f in (g, h))
    return [Fraction(c, s) for c in left] == [Fraction(c, t) for c in right]


def on_shell(case, a):
    """A (g, s) pair of `reference_residue_cluster`, off shell, times
    1 - u^(2a) in `Poly`: the value that `residue_cluster` returns."""
    g, s = case
    return RationalFunction(Poly(g.numerator.coeffs) * binomial(2 * a),
                            g.denominator), s


def scaled(f, k):
    """f with its numerator times the number k, as a `Poly`."""
    return RationalFunction(Poly(f.numerator.coeffs) * k, f.denominator)


def reference_hilbert_off_clustered(weights):
    """The Fraction pipeline: each integer residue piece averaged, then
    multiplied by its weight over its scale; the pieces merged in
    Fraction polynomial arithmetic over their expanded cofactors."""
    clusters = _weight_clusters(weights)
    pieces = []
    for a, p in clusters:
        rest = tuple((b, pb) for b, pb in clusters if b != a)
        g, s = residue_cluster(a, p, rest)
        pieces.append(scaled(u_average(g, a), Fraction(a, s)))
    merged = {}
    for piece in pieces:
        for m, e in piece.denominator.factors:
            merged[m] = max(merged.get(m, 0), e)
    total = Poly()
    for piece in pieces:
        have = dict(piece.denominator.factors)
        cofactor = [(m, e - have.get(m, 0)) for m, e in merged.items()
                    if e > have.get(m, 0)]
        part = Poly(piece.numerator.coeffs)
        if cofactor:
            part = part * FactoredDenominator.from_pairs(cofactor).expand()
        total = total + part
    # the merged sum is integral, and squot's peel_common reads ints
    ints = [Fraction(c) for c in total.coeffs]
    assert all(c.denominator == 1 for c in ints)
    off = RationalFunction(Poly(c.numerator for c in ints),
                           FactoredDenominator.from_pairs(merged.items()))
    return peel_common(off), tuple(pieces)


def binomial(m):
    """1 - x^m."""
    return Poly([1] + [0] * (m - 1) + [-1])


def reference_divide_binomial(poly, m):
    """Exact quotient of poly by (1 - x^m), or None, one add at a time."""
    d = poly.degree - m
    if d < 0:
        return None
    q = [0] * (d + 1)
    c = poly.coeffs
    for k in range(d + 1):
        q[k] = c[k] + (q[k - m] if k >= m else 0)
    for k in range(d + 1, poly.degree + 1):
        expected = -q[k - m] if 0 <= k - m <= d else 0
        if c[k] != expected:
            return None
    return Poly(q)


@st.composite
def binomial_dividends(draw):
    """(poly, m, divisible): a multiple of (1 - x^m), perhaps disturbed
    in one coefficient, or an arbitrary polynomial of degree below m;
    divisible says whether a quotient should come back."""
    m = draw(st.integers(1, 40))
    coeff = draw(st.sampled_from([
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=12)]))
    if not draw(st.integers(0, 5)):
        return Poly(draw(st.lists(coeff, max_size=m))), m, False
    quotient = Poly(draw(st.lists(coeff, min_size=1, max_size=60)))
    poly = quotient * binomial(m)
    if draw(st.booleans()):
        return poly, m, bool(quotient)
    at = draw(st.integers(0, poly.degree + 2))
    bump = draw(coeff.filter(bool))
    return poly + Poly.monomial(at, bump), m, False


@st.composite
def residue_pieces(draw):
    """The integer residue piece of a random weight cluster (without
    its scale) and its weight."""
    a = draw(st.integers(1, 6))
    p = draw(st.integers(1, 3))
    others = draw(st.lists(st.integers(1, 7).filter(lambda b: b != a),
                           max_size=2, unique=True))
    rest = tuple((b, draw(st.integers(1, 2))) for b in sorted(others))
    return residue_cluster(a, p, rest)[0], a


@st.composite
def distinct_weights(draw):
    """A sorted vector of pairwise distinct weights, n = 2..6, below 40,
    in normal form."""
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(st.integers(1, 39), min_size=n, max_size=n,
                            unique=True))
    return normalize_weights(weights)


@st.composite
def repeated_weights(draw):
    """A sorted weight vector, n = 2..5 and weights <= 12, with at
    least one repeated entry."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 12), min_size=n - 1,
                            max_size=n - 1))
    weights.append(draw(st.sampled_from(weights)))
    return tuple(sorted(weights))


@st.composite
def generic_pieces(draw):
    """A partial-fraction piece of a random distinct weight vector
    (n = 2..5, weights <= 40) and its weight."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n,
                            unique=True))
    i = draw(st.integers(0, n - 1))
    return phi_tilde(weights, i), weights[i]


@st.composite
def shared_factor_pieces(draw):
    """A partial-fraction piece of a distinct weight vector whose
    weights are pairwise not coprime (n = 2..4, multiples of one
    g = 2..6, below 60), and its weight."""
    g = draw(st.integers(2, 6))
    n = draw(st.integers(2, 4))
    weights = [g * k for k in draw(st.lists(st.integers(1, 59 // g),
                                            min_size=n, max_size=n,
                                            unique=True))]
    i = draw(st.integers(0, n - 1))
    return phi_tilde(weights, i), weights[i]


@st.composite
def pair_cases(draw):
    """(a, rest) for a weight a of multiplicity 1 beside r <= 2 other
    weights, all up to 400: n = 2, a distinct triple, a repeated
    partner, a partner that a divides, coincident factors, the
    third weight being c = 2a + b or |2a - b|, or a = uv sharing u with
    b and v with c (as 6 beside 10 and 15), so that the lattice sum
    discards some j_1."""
    shape = draw(st.sampled_from(
        ["n = 2", "triple", "repeated", "multiple", "coincident", "shared"]))
    if shape == "shared":
        u, v = draw(st.integers(2, 20)), draw(st.integers(2, 20))
        a = u * v
        b = u * draw(st.integers(1, 400 // u))
        c = v * draw(st.integers(1, 400 // v))
        assume(len({a, b, c}) == 3)
        return a, tuple(sorted([(b, 1), (c, 1)]))
    if shape == "multiple":
        a = draw(st.integers(1, 200))
        rest = [(a * draw(st.integers(2, 400 // a)), 1)]
        rest += draw(st.lists(st.integers(1, 400).filter(
            lambda c: c % a and c != rest[0][0]).map(lambda c: (c, 1)),
            max_size=1))
        return a, tuple(sorted(rest))
    top = 133 if shape == "coincident" else 400
    a = draw(st.integers(1, top))
    b = draw(st.integers(1, top).filter(lambda b: b != a))
    if shape == "n = 2":
        return a, ((b, 1),)
    if shape == "repeated":
        return a, ((b, 2),)
    if shape == "triple":
        c = draw(st.integers(1, 400).filter(lambda c: c not in (a, b)))
    else:
        c = draw(st.sampled_from([2 * a + b, abs(2 * a - b)]))
        assume(c not in (0, a, b))
    return a, tuple(sorted([(b, 1), (c, 1)]))


@st.composite
def lane_coefficients(draw):
    """Integer coefficients, negative ones among them, of up to 20, 40,
    70 or 140 bits: one C int word of a 64-bit lane, the whole lane, and
    lanes of two and three 64-bit words."""
    bits = draw(st.sampled_from([20, 40, 70, 140]))
    return draw(st.lists(st.integers(-2 ** bits, 2 ** bits), max_size=30))


@st.composite
def pass_products(draw):
    """prod (1 - x^m)^e over up to four (m, e)."""
    return FactoredDenominator.from_pairs(draw(st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=4)))


def reference_cofactor_sum(pieces):
    """The list merge: each numerator times its expanded cofactor over
    the union of the denominators, summed entry by entry."""
    merged = {}
    for g in pieces:
        for m, e in g.denominator.factors:
            merged[m] = max(merged.get(m, 0), e)
    den = FactoredDenominator.from_pairs(merged.items())
    parts = [_excess(den, g.denominator).times(g.numerator.coeffs)
             for g in pieces]
    return RationalFunction(
        QPolynomial(map(sum, zip_longest(*parts, fillvalue=0))), den)


def merged_series(merged):
    """The packed sum of `_cofactor_sum` (`hilbert_off_clustered`'s
    first result) read out as a RationalFunction."""
    packed, width, _, _, den = merged
    return RationalFunction(QPolynomial(_lanes(packed, width)[0]), den)


def reference_lift(on, target):
    """The list lift: on's numerator times the factors of target that
    on's denominator lacks, over the factors that target lacks, whole
    factors cancelled by `peel_common`."""
    return peel_common(RationalFunction(
        QPolynomial(_excess(target, on.denominator).times(
            on.numerator.coeffs)),
        _excess(on.denominator, target)))


def exact_image(den, a):
    """prod (1 - y^(lcm(a,m)/a))^e over the factors (1 - x^m)^e of den."""
    return FactoredDenominator.from_pairs((math.lcm(a, m) // a, e)
                                          for m, e in den.factors)


def reference_lattice_exponents(a, w, ms):
    """`_lattice_exponents` as a filter over every t' = w + m_1 j_1,
    keeping the t' that g divides: the reference for its output order,
    which the fault ledger's lattice site bumps by index."""
    *outer, m = sorted(ms, key=lambda k: math.gcd(a, k), reverse=True)
    first = outer[0] if outer else a
    g = math.gcd(a, m)
    n = a // g
    back = -pow(m // g, -1, n) % n
    return [(t + m * (t // g * back % n)) // a
            for t in range(w, w + math.lcm(a, first), first) if t % g == 0]


def box_lattice_exponents(a, w, ms):
    """t / a for every t = w + sum m_i j_i, 0 <= j_i < a / gcd(a, m_i),
    that a divides, by enumerating the whole box."""
    sums = [w]
    for m in ms:
        sums = [t + m * j for t in sums for j in range(a // math.gcd(a, m))]
    return [t // a for t in sums if t % a == 0]


def mirror_of(f, a):
    """(C, eps) of `_averaged_reciprocity` for f averaged over a, over
    the exact image denominator."""
    return _averaged_reciprocity(f, exact_image(f.denominator, a), a)


class TestNormalize:
    def test_signs_sort_gcd(self):
        assert normalize_weights([-6, 2, 4]) == (1, 2, 3)
        assert normalize_weights([5]) == (1,)
        assert normalize_weights([3, 3]) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(InputError, match="zero entry in weight vector"):
            normalize_weights([1, 0])
        with pytest.raises(InputError, match="empty weight vector"):
            normalize_weights([])

    @given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=5),
           st.permutations(range(5)))
    def test_invariance(self, ws, perm):
        shuffled = [ws[p % len(ws)] for p in perm[:len(ws)]]
        base = normalize_weights(ws)
        assert normalize_weights([-w for w in ws]) == base
        assert normalize_weights([3 * w for w in ws]) == base


class TestPhiTilde:
    def test_worked_example_pieces(self):
        # weights (1,2,3): the three normalized pieces
        f1 = phi_tilde((1, 2, 3), 0)
        assert f1.numerator == QPolynomial([0, 0, 0, 1])  # x^3
        assert f1.denominator.factors == ((1, 1), (2, 1), (3, 1), (4, 1))
        f2 = phi_tilde((1, 2, 3), 1)
        assert f2.numerator == QPolynomial([0, -1])  # -x
        assert f2.denominator.factors == ((1, 2), (3, 1), (5, 1))
        f3 = phi_tilde((1, 2, 3), 2)
        assert f3.numerator == QPolynomial([1])
        assert f3.denominator.factors == ((1, 1), (2, 1), (4, 1), (5, 1))

    def test_repeated_weight_rejected(self):
        # the reference route has no piece for a repeated weight
        with pytest.raises(ValueError, match="repeated weight"):
            phi_tilde((2, 2), 0)


class TestUAverage:
    def test_worked_example_intermediates(self):
        u2 = u_average(phi_tilde((1, 2, 3), 1), 2)
        assert u2.numerator == QPolynomial([0, -2, -1, -2, -1, -2])
        assert u2.denominator.factors == ((1, 2), (3, 1), (5, 1))
        u3 = u_average(phi_tilde((1, 2, 3), 2), 3)
        assert u3.numerator == QPolynomial([1, 1, 4, 5, 5, 5, 4, 1, 1])
        assert u3.denominator.factors == ((1, 1), (2, 1), (4, 1), (5, 1))

    def test_u1_is_identity(self):
        f = phi_tilde((2, 3, 7), 0)
        g = u_average(f, 1)
        assert (Poly(g.numerator.coeffs) * f.denominator.expand()
                == Poly(f.numerator.coeffs) * g.denominator.expand())

    @given(st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_multisection(self, a, k):
        # (1 + x) / ((1 - x^m) (1 - x)) has the shift w = m: it has a
        # mirror when a divides m
        m = a * k
        f = RationalFunction(QPolynomial([1, 1]),
                             FactoredDenominator.from_pairs([(m, 1), (1, 1)]))
        g = u_average(f, a)
        direct = series_of_rational(f, 30 * a).coefficients[::a]
        back = series_of_rational(g, 30)
        assert back.coefficients == direct

    @given(residue_pieces(), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_scaling_commutes_on_residue_pieces(self, case, k):
        # the pipeline hands averaging, peeling and reduction integer
        # numerators, and gets integers back; a numerator scaled by k
        # gives k times the result.  The average still matches the
        # multisected series.
        f, a = case
        g = u_average(f, a)
        for run, h in [(lambda h: u_average(h, a), f), (peel_common, g),
                       (RationalFunction.reduce, g)]:
            assert all(type(c) is int for c in h.numerator.coeffs)
            got = run(h)
            assert all(type(c) is int for c in got.numerator.coeffs)
            assert run(scaled(h, k)) == scaled(got, k)
        direct = series_of_rational(f, 20 * a).coefficients[::a]
        assert series_of_rational(g, 20).coefficients == direct


class TestHalfPrefix:
    @given(generic_pieces())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_length_on_generic_pieces(self, case):
        f, a = case
        # phi_tilde has numerator +-x^s and w = 2a(n - 1): the mirror
        # always applies
        assert mirror_of(f, a)[1] in (1, -1)
        assert u_average(f, a) == reference_u_average(f, a)

    @given(residue_pieces())
    @settings(max_examples=40, deadline=None)
    def test_matches_full_length_on_residue_pieces(self, case):
        f, a = case
        assert mirror_of(f, a)[1] in (1, -1)
        assert u_average(f, a) == reference_u_average(f, a)

    @given(shared_factor_pieces())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_length_on_shared_factor_pieces(self, case):
        # the average is held over its exact image denominator, shorter
        # than the input's by the gcds of a with the factors' m
        f, a = case
        assert mirror_of(f, a)[1] in (1, -1)
        assert exact_image(f.denominator, a).degree < f.denominator.degree
        assert u_average(f, a) == reference_u_average(f, a)

    @given(residue_pieces())
    @settings(max_examples=40, deadline=None)
    def test_residue_pieces_keep_the_2a_factor(self, case):
        # the factor (1 - x^(2a))^e has gcd a with a: its exact image
        # holds (1 - y^2)^e
        f, a = case
        e = dict(f.denominator.factors).get(2 * a, 0)
        exact = dict(exact_image(f.denominator, a).factors)
        assert exact.get(2, 0) >= e
        assert u_average(f, a) == reference_u_average(f, a)

    @given(generic_pieces(), st.integers(1, 4), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_factor_in_x_to_the_a_maps_directly(self, case, k, e):
        # a factor (1 - x^(k a)) is a function of x^a: it becomes
        # (1 - y^k) at once and stays out of the expanded prefix, and
        # the average still equals the full-length multisection
        f, a = case
        f = RationalFunction(f.numerator, FactoredDenominator.from_pairs(
            list(f.denominator.factors) + [(k * a, e)]))
        expand = squot.circle.multisected_prefix
        expanded = []

        def recording(g, stride, reach):
            expanded.append(g.denominator.factors)
            return expand(g, stride, reach)
        with mock.patch("squot.circle.multisected_prefix", recording):
            got = u_average(f, a)
        assert [m for m, _ in expanded[0] if m % a == 0] == []
        assert dict(got.denominator.factors)[k] >= e
        assert got == reference_u_average(f, a)

    def test_prefix_is_half_length(self):
        # half of C' = deg(exact image) - w/a, plus SLACK; where a
        # shares a factor with another weight, the exact image is
        # shorter than the input's denominator.  Each prefix is expanded
        # over packed rows.
        expand = squot.circle.multisected_prefix
        for weights, i, shared in [((101, 150, 199), 1, False),
                                   ((150, 175, 196), 0, True),
                                   ((150, 175, 196), 2, True)]:
            f, a = phi_tilde(weights, i), weights[i]
            top, sign = mirror_of(f, a)
            orders = []

            def recording(g, stride, reach):
                orders.append(stride * reach)
                return expand(g, stride, reach)
            with mock.patch("squot.circle.multisected_prefix", recording), \
                    mock.patch.object(squot.exact, "_packed_multisection",
                                      wraps=_packed_multisection) as packed:
                u_average(f, a)
            assert orders == [a * (top // 2 + SLACK)]
            assert packed.called
            exact = exact_image(f.denominator, a).degree
            assert orders[0] <= a * (exact // 2 + SLACK)
            assert (exact < f.denominator.degree) == shared

    @pytest.mark.parametrize("num,pairs,a", [
        ([1, 1], [(1, 1), (3, 1)], 2),     # palindromic, w = 3, 2 does not divide
        ([1, 2], [(1, 1), (2, 1)], 2),     # not palindromic
        ([1, 0, 5, 1], [(2, 2), (5, 1)], 3),
        ([0, 3, -1, 4], [(1, 2), (4, 1)], 4),
        # (1 - x^4) maps to (1 - y^2) directly; the numerator then
        # outgrows the rest of the denominator, (1 - x)
        ([1, 2, 0, 5], [(1, 1), (4, 1)], 2),
    ])
    def test_without_identity_matches_multisection(self, num, pairs, a):
        # the full-length multisection of f exists, but f has no
        # mirror, which every residue piece has: u_average refuses it
        f = RationalFunction(QPolynomial(num),
                             FactoredDenominator.from_pairs(pairs))
        g = reference_u_average(f, a)
        direct = series_of_rational(f, 40 * a).coefficients[::a]
        assert series_of_rational(g, 40).coefficients == direct
        for run in (lambda: mirror_of(f, a), lambda: u_average(f, a)):
            with pytest.raises(ReconstructionMismatch, match="no mirror"):
                run()

    def test_zero_numerator_takes_any_mirror(self):
        f = RationalFunction(QPolynomial(),
                             FactoredDenominator.from_pairs([(1, 1), (3, 2)]))
        assert mirror_of(f, 2) == (exact_image(f.denominator, 2).degree, 1)
        assert not u_average(f, 2).numerator

    def test_cyclotomic_passes(self):
        # (1 - x)(1 - x^2) Psi_3 is (1 - x^2)(1 - x^3), which averages
        # like any product; (1 - x^2) Psi_3 keeps the pass (1 - x)^-1,
        # which divides: no exact image, and a plain error before any
        # prefix is expanded
        f = RationalFunction(ONE, factored([(1, 1), (2, 1)], [(3, 1)]))
        assert f.denominator == FactoredDenominator.from_pairs([(2, 1),
                                                                (3, 1)])
        assert u_average(f, 1) == reference_u_average(f, 1)
        g = RationalFunction(ONE, factored([(2, 1)], [(3, 1)]))
        assert g.denominator.factors == ((1, -1), (2, 1), (3, 1))
        with mock.patch.object(squot.circle, "multisected_prefix") as spy:
            for run in (lambda: u_average(g, 1), lambda: u_average(g, 2),
                        lambda: pair_average(g, 2, ((1, 1),))):
                with pytest.raises(InputError,
                                   match=r"pass \(1 - x\^1\)\^-1 divides"):
                    run()
        assert not spy.called

    def test_mirror_checks_every_overlap_coefficient(self):
        num = [3, -1, 4, 1, 5, 5, 1, 4, -1, 3]  # palindromic, C = 9
        for reach in range(len(num) // 2, len(num) + 3):
            window = (num + [0, 0, 0])[:reach + 1]
            assert _mirrored(window, 9, 1) == num
            for k in range(max(9 - reach, 0), reach + 1):
                bumped = list(window)
                bumped[k] += 1
                with pytest.raises(ReconstructionMismatch):
                    _mirrored(bumped, 9, 1)
        assert _mirrored([1, 2, 0, -2], 4, -1) == [1, 2, 0, -2, -1]
        with pytest.raises(ReconstructionMismatch):
            _mirrored([1, 2, 1, -2], 4, -1)  # the centre of an odd mirror

    def test_no_mirror_needs_vanishing_tail(self):
        assert _mirrored([1, 2, 0, 0], 1, 0) == [1, 2]
        with pytest.raises(ReconstructionMismatch):
            _mirrored([1, 2, 0, 7], 1, 0)

    @pytest.mark.parametrize("weights,i", [((1, 2, 3), 2), ((4, 9, 11), 0),
                                           ((101, 150, 199), 1)])
    def test_perturbed_prefix_raises(self, weights, i):
        # a wrong last coefficient of the prefix changes the last
        # coefficient of the computed window, which the mirror checks
        f, a = phi_tilde(weights, i), weights[i]
        expand = squot.circle.multisected_prefix

        def perturbed(g, stride, reach):
            coeffs = expand(g, stride, reach)
            coeffs[-1] += 1
            return coeffs
        with mock.patch("squot.circle.multisected_prefix", perturbed):
            with pytest.raises(ReconstructionMismatch):
                u_average(f, a)


class TestPairAverage:
    @given(pair_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_prefix_route(self, case):
        # the closed form against the multisected prefix on the same
        # residue piece
        a, rest = case
        g = residue_cluster(a, 1, rest)[0]
        assert pair_average(g, a, rest) == u_average(g, a)

    @pytest.mark.parametrize("weights,prefixed", [
        ((1, 2, 3), 0), ((37, 91), 0), ((120, 131, 131), 1),
        ((1, 1, 2), 1), ((1, 2, 2, 2), 2), ((1, 2, 3, 4), 4),
        ((100, 101, 102, 103), 4),
    ])
    def test_prefix_route_for_p_2_or_r_3(self, weights, prefixed):
        # a weight of multiplicity 1 beside at most two others takes
        # the closed form, every other one the multisected prefix
        with mock.patch("squot.circle.u_average",
                        wraps=u_average) as prefix, \
                mock.patch("squot.circle.pair_average",
                           wraps=pair_average) as closed:
            hilbert_off_clustered(weights)
        assert prefix.call_count == prefixed
        assert closed.call_count == len(set(weights)) - prefixed

    @pytest.mark.parametrize("a,rest", [(2, ((1, 1), (3, 1))),
                                        (97, ((150, 1), (344, 1))),
                                        (50, ((100, 1), (151, 1))),
                                        (120, ((131, 2),)), (37, ((91, 1),))])
    def test_wrong_term_raises(self, a, rest):
        # a term with its sign flipped, or a monomial one degree off,
        # fails the exact division by (1 - y^2)^r or the mirror
        g = residue_cluster(a, 1, rest)[0]
        terms = squot.circle._pair_terms(a, rest)
        exponents = squot.circle._lattice_exponents
        for i in range(len(terms)):
            flipped = list(terms)
            flipped[i] = (-terms[i][0],) + terms[i][1:]
            with mock.patch("squot.circle._pair_terms",
                            lambda *_: flipped):
                with pytest.raises(ReconstructionMismatch):
                    pair_average(g, a, rest)

        def shifted(*args):
            out = exponents(*args)
            return out[:-1] + [out[-1] + 1] if out else out
        with mock.patch("squot.circle._lattice_exponents", shifted):
            with pytest.raises(ReconstructionMismatch):
                pair_average(g, a, rest)

    @pytest.mark.parametrize("a,rest", [(5, ((3, 1), (7, 1))),
                                        (6, ((10, 1), (15, 1)))])
    def test_no_mirror_raises(self, a, rest):
        # x times the piece: a no longer divides its shift, so there is
        # no mirror, and `_averaged_reciprocity` raises for the closed
        # form, whose sum does not read f's numerator
        g = residue_cluster(a, 1, rest)[0]
        f = RationalFunction(QPolynomial.monomial(g.numerator.degree + 1),
                             g.denominator)
        exact = squot.circle._exact_image(f.denominator, a)
        for run in (lambda: _averaged_reciprocity(f, exact, a),
                    lambda: pair_average(f, a, rest)):
            with pytest.raises(ReconstructionMismatch,
                               match=f"{a} does not divide the shift"):
                run()


class TestLatticeExponents:
    @given(st.integers(1, 60), st.integers(0, 300),
           st.lists(st.integers(1, 120), min_size=1, max_size=2))
    @settings(max_examples=400, deadline=None)
    @example(7, 5, [3])  # one m, g = 1
    @example(12, 8, [8])  # one m, g = 4
    @example(12, 9, [8])  # one m, g = 4 does not divide w: empty
    @example(30, 11, [7, 11])  # two m, g = 1
    @example(12, 4, [8, 6])  # two m, g = 4, h = gcd(6, 4) = 2 divides w
    @example(12, 1, [8, 6])  # h = 2 does not divide w: t' odd, empty
    def test_walk_matches_filter_and_box(self, a, w, ms):
        got = _lattice_exponents(a, w, ms)
        assert got == reference_lattice_exponents(a, w, ms)
        assert sorted(got) == sorted(box_lattice_exponents(a, w, ms))


class TestReciprocityCertificate:
    @pytest.mark.parametrize("weights", [(1, 2, 3), (1, 1, 1, 2), (7, 8, 8, 8),
                                         (3, 3, 3), (5,), (2, 2, 3, 3, 5)])
    def test_results_are_reciprocal(self, weights):
        r = hilbert_series(weights, oracle_degree=0)
        n = len(weights)
        check_reciprocity(r.on_shell, 2 * n - 2, "on shell")
        # off shell, 1/(1 - x^2) adds a sign: H(1/x) = -x^(2n) H(x)
        with pytest.raises(ReciprocityMismatch):
            check_reciprocity(r.off_shell, 2 * n, "off shell")

    @given(st.one_of(repeated_weights(), distinct_weights()))
    @settings(max_examples=60, deadline=None)
    def test_every_residue_and_piece_is_reciprocal(self, weights):
        # g(1/u) = u^((2n-2)a) g(u) for every on-shell residue g of a
        # weight a (`hilbert_off_clustered`), so every printed piece
        # obeys P(1/x) = x^(2n-2) P(x)
        n, clusters = len(weights), _weight_clusters(weights)
        for a, p in clusters:
            rest = tuple((b, pb) for b, pb in clusters if b != a)
            check_reciprocity(residue_cluster(a, p, rest)[0],
                              (2 * n - 2) * a, f"{weights}: residue of {a}")
        for piece in hilbert_series(weights, oracle_degree=0).pieces:
            check_reciprocity(piece, 2 * n - 2, f"{weights}: piece")

    @pytest.mark.parametrize("weights,patched", [
        ((1, 2, 3), "hilbert_on_distinct"),
        ((1, 1, 1, 2), "hilbert_off_clustered"),
        ((3, 3, 3), "hilbert_equal_weights"),
    ])
    def test_perturbed_result_raises_without_oracle(self, weights, patched):
        real = getattr(squot.circle, patched)

        def perturbed(*args):
            out = real(*args)
            if patched == "hilbert_off_clustered":  # its packed sum
                packed, width, *rest = out[0]
                top = merged_series(out[0]).numerator.degree
                return (packed + (1 << width * top), width, *rest), out[1]
            on = out if isinstance(out, RationalFunction) else out[0]
            bumped = RationalFunction(
                on.numerator + Poly.monomial(on.numerator.degree),
                on.denominator)
            return (bumped if isinstance(out, RationalFunction)
                    else (bumped,) + out[1:])
        with mock.patch(f"squot.circle.{patched}", perturbed):
            with pytest.raises(ReciprocityMismatch):
                hilbert_series(weights, oracle_degree=0)


class TestDistinctWeights:
    def test_worked_example(self):
        on, _ = hilbert_on_distinct((1, 2, 3))
        assert on.numerator == QPolynomial([1, 0, 1, 3, 4, 4, 4, 3, 1, 0, 1])
        assert on.denominator.factors == ((2, 1), (3, 1), (4, 1), (5, 1))

    @given(distinct_weights())
    @settings(max_examples=40, deadline=None)
    def test_matches_phi_tilde_route(self, weights):
        # the dispatcher's on-shell series and every printed piece equal
        # the phi_tilde route's, numerator and factored denominator
        result = hilbert_series(weights)
        on, pieces = reference_hilbert_on_distinct(weights)
        assert result.method == "Generic"
        assert result.on_shell == on
        assert result.off_shell == RationalFunction(
            on.numerator, FactoredDenominator.from_pairs(
                on.denominator.factors + ((2, 1),)))
        assert result.pieces == pieces

    def test_lift_multiplies_and_divides(self):
        # (1,2,3,4): the merged on-shell denominator holds (1 - x)^3
        # and (1 - x^3)^2, beyond the ansatz, and lacks its (1 - x^6) and
        # second (1 - x^5); the lift divides by the ones and multiplies
        # by the others
        weights = (1, 2, 3, 4)
        on = merged_series(hilbert_off_clustered(weights)[0])
        assert on.denominator.factors == ((1, 3), (2, 1), (3, 2), (4, 1),
                                          (5, 1), (7, 1))
        assert _pair_sum_denominator(weights).factors == (
            (2, 1), (3, 1), (4, 1), (5, 2), (6, 1), (7, 1))
        assert hilbert_on_distinct(weights) \
            == reference_hilbert_on_distinct(weights)


class TestClusterResidue:
    def test_two_equal_weights(self):
        r, scale = residue_cluster(1, 2, ())
        # the on-shell series of (1,1) comes out of this single cluster,
        # (1 - u^2) to 2p - 2 = 2, one factor below the off-shell 2p - 1
        assert scale == 1
        assert r.numerator == QPolynomial([1, 0, 1])
        assert r.denominator.factors == ((2, 2),)
        assert equal_in_value((r, scale),
                              on_shell(reference_residue_cluster(1, 2, ()),
                                       1))

    def test_scale_is_a_to_the_2p_minus_1(self):
        # s = +-a^(2p-1): the one factor with F(0) = a has e = p, so
        # exponent e + p - 1 = 2p - 1; negative when p_b + p - 1 summed
        # over the larger weights b is odd (their F(0) = -(1 - u^(b-a)))
        assert residue_cluster(2, 2, ((1, 1),))[1] == 8
        assert residue_cluster(2, 2, ((3, 1),))[1] == 8
        assert residue_cluster(2, 2, ((3, 2),))[1] == -8
        assert residue_cluster(3, 3, ((5, 1),))[1] == -243
        assert residue_cluster(1, 1, ((2, 2),))[1] == 1
        g, _ = residue_cluster(3, 3, ((5, 1), (7, 2)))
        assert all(type(c) is int for c in g.numerator.coeffs)

    def test_piece_in_lowest_exponents(self):
        # the a = 1 piece of (1,1,2,2): each F_i(0) to e_i + p - 1 only,
        # and (1 - u^2) one lower on shell, which leaves
        # (1 - u)(1 - u^2)^2 (1 - u^3)^3 after the peel
        g, s = residue_cluster(1, 2, ((2, 2),))
        assert s == -1
        assert g.numerator == QPolynomial([0, 0, -5, -9, -10, -9, -5])
        assert g.denominator.factors == ((1, 1), (2, 2), (3, 3))
        assert equal_in_value((g, s), on_shell(
            reference_residue_cluster(1, 2, ((2, 2),)), 1))

    @given(repeated_weights())
    @settings(max_examples=40, deadline=None)
    def test_integer_merge_matches_fraction_pipeline(self, weights):
        merged, pieces = hilbert_off_clustered(weights)
        off = merged_series(merged)
        ref_off, ref_pieces = reference_hilbert_off_clustered(weights)
        assert all(type(c) is int for c in off.numerator.coeffs)
        assert peel_common(off) == ref_off
        assert pieces == ref_pieces

    @given(repeated_weights())
    @example((1,) * 20 + (2,))
    @example((3,) * 8 + (4,) * 8 + (5,) * 8)
    @example((37,) * 3 + (38,) * 3 + (39,) * 3 + (40,) * 6)
    @settings(max_examples=40, deadline=None)
    def test_pieces_are_integer_series(self, weights):
        # each averaged numerator is divided exactly by +-a^(2p-2), so
        # every printed piece holds ints, not integer-valued Fractions
        _, pieces = hilbert_off_clustered(weights)
        assert all(type(c) is int
                   for g in pieces for c in g.numerator.coeffs), weights

    def test_matches_distinct_route(self):
        # dual route: the residue machinery on multiplicity-one clusters
        # reproduces the phi_tilde route, on shell and piece by piece
        for weights in [(1, 2), (2, 3, 5), (1, 4, 6)]:
            merged, pieces = hilbert_off_clustered(weights)
            total = merged_series(merged)
            on, ref_pieces = reference_hilbert_on_distinct(weights)
            got = series_of_rational(total, 40).coefficients
            want = series_of_rational(on, 40).coefficients
            assert got == want, weights
            assert pieces == ref_pieces, weights

    @given(st.integers(1, 8),
           st.dictionaries(st.integers(1, 9), st.integers(1, 3), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_p1_shortcut_matches_general_route(self, a, others):
        # p = 1 takes the shortcut, u^v over prod (1 - u^m)^e without
        # forming any F_i; the reference runs the general route off
        # shell, so its denominator holds one more (1 - u^(2a))
        rest = tuple(sorted((b, pb) for b, pb in others.items() if b != a))
        (g, s), (ref, ref_s) = (residue_cluster(a, 1, rest),
                                reference_residue_cluster(a, 1, rest))
        assert (g.numerator, s) == (ref.numerator, ref_s), (a, rest)
        extra = dict(ref.denominator.factors)
        for m, e in g.denominator.factors:
            extra[m] -= e
        assert {m: e for m, e in extra.items() if e} == {2 * a: 1}, (a, rest)
        assert equal_in_value(residue_cluster(a, 2, rest), on_shell(
            reference_residue_cluster(a, 2, rest), a)), (a, rest)
        assert g.numerator.degree == sum(pb * (b - a) for b, pb in rest
                                         if b > a)
        assert s in (a, -a)


    @given(st.integers(1, 40), st.integers(2, 6),
           st.dictionaries(st.integers(1, 40), st.integers(1, 3),
                           max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_packed_matches_polynomial_route(self, a, p, others):
        # the packed ints against Den(t) over polynomial coefficients
        rest = tuple(sorted((b, pb) for b, pb in others.items() if b != a))
        assert equal_in_value(residue_cluster(a, p, rest), on_shell(
            reference_residue_cluster(a, p, rest), a)), (a, p, rest)

    @given(st.integers(1, 30), st.integers(1, 5),
           st.dictionaries(st.integers(1, 30), st.integers(1, 3),
                           max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_graded_matches_reference_in_value(self, a, p, others):
        # the graded inverses against the one quotient by Den(t):
        # the grade power, the exponents e + p - 1 (2p - 2 for
        # 1 - u^(2a), on shell) and the sign of each b > a all show in
        # the value of g / s
        rest = tuple(sorted((b, pb) for b, pb in others.items() if b != a))
        assert equal_in_value(residue_cluster(a, p, rest), on_shell(
            reference_residue_cluster(a, p, rest), a)), (a, p, rest)

    @pytest.mark.parametrize("width", [32, 64, 128])
    def test_balanced_lanes_read_out(self, width):
        # lanes at the ends of their range, and (widths above a word)
        # just past a 32-bit word, which the read-out takes whole
        top, word = (1 << width - 1) - 1, 1 << 31
        for lanes in ([top], [-top], [0, 0, top, 0, -top], [-top, 0, 0, 1],
                      [1, -1, 0, 0, 0, -top], [top, -top] * 5, [0], [5],
                      [-top - 1, 3], [min(word, top), -min(word, top) - 1]):
            packed = sum(c << width * j for j, c in enumerate(lanes))
            got, bits = _lanes(packed, width)
            assert QPolynomial(got) == QPolynomial(lanes), lanes
            assert len(got) <= len(lanes) + 1
            assert all(abs(c) < 2 ** bits for c in got)

    def test_norm_bound_holds_on_degenerate_population(self):
        # the bound the width comes from is at or above max |M_j| on
        # every p >= 2 cluster of the benchmark's degenerate population
        # (n = 4 up to 10, and (a, a, a + k), (a, a + k, a + k) to 47),
        # where the width has 6 to 16 bits to spare: a byte less fails
        # on 144 of them
        pop = [w for w in combinations_with_replacement(range(1, 11), 4)
               if 1 < len(set(w)) < 4]
        for a in range(12, 46):
            for k in (1, 2):
                pop += [(a, a, a + k), (a, a + k, a + k)]
        calls = set()
        for w in pop:
            if math.gcd(*w) == 1:
                clusters = _weight_clusters(w)
                calls |= {(a, p, tuple(c for c in clusters if c[0] != a))
                          for a, p in clusters if p >= 2}
        assert len(calls) == 553
        for a, p, rest in calls:
            exponent = p * a - 1 + sum(pb * b for b, pb in rest)
            bound = _kernel_coefficient(
                a, p, rest, exponent,
                lambda terms: sum(abs(c) for _, c in terms), -1)
            n_poly = _kernel_coefficient(
                a, p, rest, exponent,
                lambda terms: sum((Poly.monomial(d, c) for d, c in terms),
                                  Poly()))
            assert max(map(abs, n_poly.coeffs)) <= bound, (a, p, rest)
            assert equal_in_value(residue_cluster(a, p, rest), on_shell(
                reference_residue_cluster(a, p, rest), a)), (a, p, rest)


class TestDivideBinomial:
    @given(binomial_dividends())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        poly, m, divisible = case
        scale, ints = cleared(poly.coeffs)
        got = _divide_binomial(ints, m)
        want = reference_divide_binomial(poly, m)
        assert (got is None) == (want is None)
        assert (got is not None) == divisible
        if got is not None:
            assert [Fraction(t, scale) for t in got] == list(want.coeffs)
            assert QPolynomial(got) * binomial(m) == QPolynomial(ints)

    def test_non_divisible_and_short(self):
        assert _divide_binomial([1, 0, 0, -1], 3) == [1]
        assert _divide_binomial([1, 0, 0, 1], 3) is None
        assert _divide_binomial([1, 0, -1], 3) is None
        assert _divide_binomial([], 1) is None

    def test_peel_common(self):
        num = QPolynomial([3, 3]) * binomial(2)
        den = FactoredDenominator.from_pairs([(2, 2), (3, 1)])
        out = peel_common(RationalFunction(num, den))
        assert out.numerator == QPolynomial([3, 3])
        assert out.denominator.factors == ((2, 1), (3, 1))
        kept = RationalFunction(QPolynomial([3, 6]), den)
        assert peel_common(kept).numerator is kept.numerator


class TestPackedLanes:
    """The merge and lift over balanced lanes of one int against the list
    reference (`FactoredDenominator.times` and `peel_common`): the merge
    hands its packed sum, width and bound to the lift."""

    @given(lane_coefficients(), st.sampled_from([64, 128, 192]))
    @settings(max_examples=200, deadline=None)
    def test_packed_round_trip(self, coeffs, width):
        words, bits = _words(coeffs)
        assert all(abs(c) < 2 ** bits for c in coeffs)
        if bits >= width:
            return
        packed = _packed(words, width)
        assert packed == sum(c << width * j for j, c in enumerate(coeffs))
        # a list fills its lanes whole, whatever the size of its ints
        assert _packed(list(coeffs), width) == packed
        lanes, bits = _lanes(packed, width)
        assert QPolynomial(lanes) == QPolynomial(coeffs)
        assert all(abs(c) < 2 ** bits for c in lanes)

    @given(st.lists(st.tuples(lane_coefficients(), pass_products()),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_cofactor_sum_matches_list_reference(self, cases):
        pieces = [RationalFunction(QPolynomial(c), d) for c, d in cases]
        merged = _cofactor_sum(pieces)
        packed, width, need, count, _ = merged
        want = reference_cofactor_sum(pieces)
        assert merged_series(merged) == want
        # every lane below the bound, which the width holds, and no
        # more lanes than the count
        assert width == _width(need)
        assert all(abs(c) < 2 ** need for c in _lanes(packed, width)[0])
        assert len(want.numerator.coeffs) <= count

    @given(st.lists(st.tuples(lane_coefficients(), pass_products()),
                    min_size=1, max_size=4), pass_products(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_merge_and_lift_match_list_reference(self, cases, target,
                                                 divisible):
        # each numerator of a divisible case is X_i times a random one,
        # X_i the factors of its denominator that target lacks, so the
        # sum over the union D times Y is divisible by X: M Y / X is
        # the sum over D Y / X = target
        if divisible:
            cases = [(_excess(d, target).times(c), d) for c, d in cases]
        pieces = [RationalFunction(QPolynomial(c), d) for c, d in cases]
        on = reference_cofactor_sum(pieces)
        want = reference_lift(on, target)
        numerator, left = _lifted(_cofactor_sum(pieces), target)
        assert QPolynomial(numerator) == want.numerator
        assert left == want.denominator.factors
        if divisible and on.numerator.coeffs:
            assert not left

    @pytest.mark.parametrize("coeffs,passes,bound,widths", [
        # 60-bit coefficients take 64-bit lanes at the merge (bound 61),
        # and the lift's eight passes of Y do not fit beside them: the
        # lift reads M's lanes once and packs them at 128 bits; a lift at
        # 64 bits would carry across lanes and read back a wrong N
        ([2 ** 60 - 1, -(2 ** 59), 3, 2 ** 60 - 5, -(2 ** 60 - 1)],
         [(1, 5), (3, 3)], 61, [128]),
        # word-sized ones give the bound 33, and 31 passes do not fit
        # beside it; read back, the lanes fit a word (32 bits) and leave
        # room for the passes at 64 bits, so nothing is packed again
        ([3, -(2 ** 31), 2 ** 31 - 1, 0, 7], [(1, 20), (2, 11)], 33, []),
    ])
    def test_lift_reads_back_and_widens(self, coeffs, passes, bound,
                                        widths):
        on = RationalFunction(QPolynomial(coeffs), FactoredDenominator(()))
        merged = _cofactor_sum([on])
        assert merged[1:3] == (64, bound)
        target = FactoredDenominator.from_pairs(passes)
        with mock.patch.object(squot.circle, "_packed",
                               wraps=_packed) as pack, \
                mock.patch.object(squot.circle, "_lanes",
                                  wraps=_lanes) as read:
            numerator, left = _lifted(merged, target)
        assert QPolynomial(numerator) == reference_lift(on, target).numerator
        assert not left
        assert [c.args[1] for c in pack.call_args_list] == widths
        assert read.call_args_list[0].args == merged[:2]

    def test_zero_sum_divides_nothing(self):
        # M = 0: no factor is divided out, as in `peel_common`, and N = 0
        f = RationalFunction(QPolynomial([1, -2, 3]),
                             FactoredDenominator.from_pairs([(1, 2), (4, 1)]))
        g = RationalFunction(QPolynomial([-1, 2, -3]), f.denominator)
        merged = _cofactor_sum([f, g])
        assert merged[0] == 0
        numerator, left = _lifted(merged, FactoredDenominator(((3, 1),)))
        assert QPolynomial(numerator) == QPolynomial([])
        assert left == ((1, 2), (4, 1))
        assert left == reference_lift(reference_cofactor_sum([f, g]),
                                      FactoredDenominator(((3, 1),))
                                      ).denominator.factors

    @given(lane_coefficients(), pass_products(), pass_products(),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lift_matches_list_reference(self, coeffs, den, target,
                                         divisible):
        # a divisible numerator is X times a random one, X the factors of
        # den that target lacks; the other kind mostly leaves some over,
        # and so does a zero numerator, as `peel_common` divides none
        if divisible:
            coeffs = _excess(den, target).times(coeffs)
        on = RationalFunction(QPolynomial(coeffs), den)
        want = reference_lift(on, target)
        numerator, left = _lifted(_cofactor_sum([on]), target)
        assert QPolynomial(numerator) == want.numerator
        assert left == want.denominator.factors
        if divisible and any(coeffs):
            assert not left

    @given(lane_coefficients(), pass_products(), pass_products())
    @settings(max_examples=100, deadline=None)
    def test_lift_leftover_message(self, coeffs, den, target):
        # hilbert_on_distinct raises the list reference's leftover, byte
        # for byte, or returns its numerator over the target
        on = RationalFunction(QPolynomial(coeffs), den)
        want = reference_lift(on, target)
        with mock.patch("squot.circle.hilbert_off_clustered",
                        return_value=(_cofactor_sum([on]), ())), \
                mock.patch("squot.circle._pair_sum_denominator",
                           return_value=target):
            if not want.denominator.factors:
                assert hilbert_on_distinct((1, 2, 3)) == (
                    RationalFunction(want.numerator, target), ())
                return
            with pytest.raises(ReconstructionMismatch) as caught:
                hilbert_on_distinct((1, 2, 3))
        assert str(caught.value) == (
            "weights (1, 2, 3): denominator factors "
            f"{want.denominator.factors} are not in the pair-sum ansatz")

    def test_lift_widens_for_a_larger_quotient(self):
        # M = N (1 - x)^2 for the triangle N = c (1, 2, ..., L, ..., 2, 1)
        # has |M_j| <= 2c, but N reaches c L: at c = 2^55 and L = 2^10, M
        # fits 64-bit lanes with room for its two passes, and N does not,
        # so the read-back check widens the lanes and redoes the lift
        c, peak = 2 ** 55, 2 ** 10
        tri = [c * k for k in range(1, peak)] + [c * k
                                                 for k in range(peak, 0, -1)]
        ones = FactoredDenominator.from_pairs([(1, 2)])
        on = RationalFunction(QPolynomial(ones.times(tri)), ones)
        numerator, left = _lifted(_cofactor_sum([on]),
                                  FactoredDenominator(()))
        assert QPolynomial(numerator) == QPolynomial(tri)
        assert not left
        assert reference_lift(on, FactoredDenominator(())).numerator \
            == QPolynomial(tri)

    def test_wide_lift_and_leftovers(self):
        # 130-bit coefficients take 192-bit lanes; (1 - x^3) divides the
        # numerator once, (1 - x^5) not at all
        big = [3 ** 80, -(2 ** 129), 7, 0, -1]
        coeffs = FactoredDenominator.from_pairs([(3, 1)]).times(big)
        on = RationalFunction(QPolynomial(coeffs), FactoredDenominator(
            ((3, 2), (5, 1))))
        target = FactoredDenominator(((2, 1),))
        numerator, left = _lifted(_cofactor_sum([on]), target)
        assert QPolynomial(numerator) == QPolynomial(
            FactoredDenominator(((2, 1),)).times(big))
        assert left == ((3, 1), (5, 1))


def small_profiles(max_n, max_w):
    for n in range(1, max_n + 1):
        yield from combinations_with_replacement(range(1, max_w + 1), n)


class TestOracle:
    def test_counts_small(self):
        # hand count for weights (1,): invariants of degree k are
        # z^a zbar^b with a = b, so only even degrees contribute, once
        assert oracle_off_counts((1,), 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_counts_two_weights(self):
        # (1,2): generators z1 zbar1, z2 zbar2, z1^2 zbar2, zbar1^2 z2
        counts = oracle_off_counts((1, 2), 4)
        assert counts[0] == 1 and counts[1] == 0
        assert counts[2] == 2  # z1 zbar1, z2 zbar2
        assert counts[3] == 2  # z1^2 zbar2, zbar1^2 z2

    @given(st.lists(st.integers(1, 250), min_size=1, max_size=4),
           st.integers(0, 40))
    @settings(max_examples=50, deadline=None)
    def test_sparse_matches_dense_reference(self, weights, order):
        assert oracle_off_counts(weights, order) \
            == reference_oracle_off_counts(weights, order)

    METHODS = [_kronecker_off_counts, _kernel_off_counts]

    @staticmethod
    def skip_one_weight(method, weights):
        if method is _kernel_off_counts and len(weights) == 1:
            pytest.skip("the kernel count solves for two weights, n >= 2")

    @pytest.mark.parametrize("method", METHODS)
    @given(weights=st.lists(st.integers(1, 60), min_size=1, max_size=5),
           order=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_method_matches_dense_reference(self, method, weights, order):
        # each method alone, whichever side of the selection rule
        assume(method is not _kernel_off_counts or len(weights) > 1)
        weights = sorted(weights)
        assert method(weights, order) \
            == reference_oracle_off_counts(weights, order)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("weights,order", [
        ((1,), 0), ((7, 9), 0), ((1,), 25), ((13,), 20),
        # max >> min: many lanes, and Kronecker's t^(+a) factors run to
        # nearly every degree
        ((1, 250), 12), ((2, 3, 240), 10), ((1, 1, 97), 15),
        # a tight cluster: Kronecker's t^(+a) factors stop at about half
        # the degree, on few lanes
        ((191, 192, 193), 30), ((60, 60, 61, 62), 20),
        # the kernel count: the two largest weights share a factor, so
        # the last sum must be a multiple of it; equal largest weights
        # (modulus 1); five weights, a three-dimensional ball
        ((3, 4, 6), 30), ((5, 7, 7), 30), ((2, 3, 5, 7, 60), 12)])
    def test_method_edge_cases(self, method, weights, order):
        self.skip_one_weight(method, weights)
        assert method(list(weights), order) \
            == reference_oracle_off_counts(weights, order)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_method_equal_weights_order_60(self, method, n):
        # C(n+d-1, d)^2 at degree 2d; at n = 8, degree 60 that is
        # C(37, 30)^2, 47 bits, in Kronecker lanes of 52 bits
        self.skip_one_weight(method, [1] * n)
        if method is _kernel_off_counts and n > 5:
            # every point of the (n - 2)-ball of radius 60 is a kernel
            # vector's head: 8.9 million at n = 6
            pytest.skip("the kernel count enumerates the 4-ball and up")
        assert method([1] * n, 60) \
            == off_shell_equal_weights(n, 60)

    def test_kernel_count_at_full_certificate_degree(self):
        # the degree through which oracle agreement certifies every
        # coefficient of the (191,192,193) numerator, of degree 1150
        assert _kernel_off_counts([191, 192, 193], 575) \
            == _kronecker_off_counts([191, 192, 193], 575)

    @pytest.mark.parametrize("weights,order,method", [
        ((1, 2, 3), 30, "kronecker"),
        ((13, 14, 15), 120, "kernel"),
        ((1, 1, 1, 1, 1, 1, 2), 60, "kronecker"),
        ((191, 192, 193), 30, "kernel"),
        ((150, 151), 30, "kernel"),
        # a cluster at a high degree: the kernel count takes about a
        # two-hundredth of the time of Kronecker substitution
        ((191, 192, 193), 575, "kernel"),
        # small dense weights at a high degree: few lanes, and many
        # short kernel vectors
        ((1, 2, 3), 200, "kronecker"),
        # a cluster of four at a high degree: the two-dimensional ball
        # of radius 600, about 720,000 points, outweighs the packed words
        ((100, 101, 102, 103), 600, "kronecker"),
        # the largest weights share the factor 37, and so must the last
        # sum: a thirty-seventh of the ball's points
        ((36, 37, 74), 30, "kernel"),
        # clusters of four at the default degree: Kronecker's words grow
        # with the weights, the kernel count's steps do not
        ((100, 101, 102, 103), 30, "kronecker"),
        ((500, 501, 502, 503), 30, "kernel")])
    def test_selection_rule(self, weights, order, method):
        methods = {"kronecker": _kronecker_off_counts,
                   "kernel": _kernel_off_counts}
        assert _oracle_method(weights, order) is methods[method]
        with mock.patch("squot.circle._kronecker_off_counts",
                        wraps=_kronecker_off_counts) as kron, \
                mock.patch("squot.circle._kernel_off_counts",
                           wraps=_kernel_off_counts) as kernel:
            counts = oracle_off_counts(weights, order)
        calls = {"kronecker": kron.call_count, "kernel": kernel.call_count}
        assert calls == {name: int(name == method) for name in methods}
        if order <= 30:
            assert counts == reference_oracle_off_counts(weights, order)

    def test_counts_depend_on_normal_form_only(self):
        assert oracle_off_counts((-3, 1, -2), 20) \
            == oracle_off_counts((2, 4, 6), 20) \
            == reference_oracle_off_counts((1, 2, 3), 20)
        with pytest.raises(InputError, match="zero entry in weight vector"):
            oracle_off_counts((0, 1), 5)

    def test_dispatcher_catches_wrong_series(self):
        wrong = RationalFunction(
            QPolynomial([1, 1]), FactoredDenominator.from_pairs([(2, 3)]))
        with pytest.raises(OracleMismatch):
            verify_against_oracle((1, 1), wrong, 10)

    def test_kronecker_path_catches_wrong_series(self):
        assert _oracle_method((1, 2, 3), 30) is _kronecker_off_counts
        off = hilbert_series((1, 2, 3)).off_shell
        verify_against_oracle((1, 2, 3), off, 30)
        wrong = RationalFunction(off.numerator + Poly.monomial(7),
                                 off.denominator)
        with pytest.raises(OracleMismatch, match="degree 7 coefficient"):
            verify_against_oracle((1, 2, 3), wrong, 30)

    def test_kernel_count_memory(self):
        # n = 7 at degree 14: the kernel count holds the ball of the first
        # n - 3 coordinates, whose peak under tracemalloc is near 0.9 MB;
        # holding the (n - 2)-ball whole peaked at 5.35 MB
        weights, order = (1, 1, 1, 1, 1, 1, 2), 14
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            counts = _kernel_off_counts(weights, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert counts == _kronecker_off_counts(weights, order)
        assert peak < 1_500_000

    def test_kernel_path_catches_wrong_series(self):
        weights = (101, 108, 115)
        assert _oracle_method(weights, 30) is _kernel_off_counts
        off = hilbert_series(weights).off_shell
        verify_against_oracle(weights, off, 30)
        wrong = RationalFunction(off.numerator + Poly.monomial(23),
                                 off.denominator)
        with pytest.raises(OracleMismatch, match="degree 23 coefficient"):
            verify_against_oracle(weights, wrong, 30)

    @pytest.mark.parametrize("weights",
                             sorted(set(normalize_weights(w)
                                        for w in small_profiles(3, 5))))
    def test_engine_matches_oracle(self, weights):
        result = hilbert_series(weights)
        got = series_of_rational(result.off_shell, 25).coefficients
        assert list(got) == oracle_off_counts(weights, 25)


class TestEqualWeights:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form_on_shell(self, n):
        on = hilbert_equal_weights(n)
        num = [0] * (2 * n - 1)
        for k in range(n):
            num[2 * k] = math.comb(n - 1, k) ** 2
        assert list(on.numerator.coeffs) == [c for c in num[:on.numerator.degree + 1]]
        if n > 1:
            assert on.denominator.factors == ((2, 2 * n - 2),)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_off_shell_binomial_squares(self, n):
        result = hilbert_series([1] * n)
        got = series_of_rational(result.off_shell, 20).coefficients
        assert list(got) == off_shell_equal_weights(n, 20)

    def test_gcd_reduction_routes_here(self):
        result = hilbert_series([7, 7, 7])
        assert result.method == "CompletelyDegenerate"
        assert result.weights == (1, 1, 1)


class TestDispatcher:
    def test_methods(self):
        assert hilbert_series([1, 2, 3]).method == "Generic"
        assert hilbert_series([1, 2, 2]).method == "DegenerateResidue"
        assert hilbert_series([4, 4]).method == "CompletelyDegenerate"
        assert hilbert_series([5]).method == "CompletelyDegenerate"

    def test_single_weight_trivial(self):
        r = hilbert_series([5])
        assert r.on_shell.numerator == QPolynomial([1])
        assert r.on_shell.denominator.factors == ()
        assert series_of_rational(r.off_shell, 6).coefficients \
            == (1, 0, 1, 0, 1, 0, 1)

    def test_on_off_relation(self):
        for weights in [(1, 2, 3), (1, 1, 2), (2, 2)]:
            r = hilbert_series(weights)
            on = series_of_rational(r.on_shell, 30).coefficients
            off = series_of_rational(r.off_shell, 30).coefficients
            # on-shell = (1 - x^2) * off-shell
            for k in range(30 + 1):
                want = off[k] - (off[k - 2] if k >= 2 else 0)
                assert on[k] == want

    def test_on_off_relation_repeated_weights_n4(self):
        # the on-shell series keeps the off-shell extra factor; 128 of
        # these vectors have one next to a (1 - x^2) factor
        profiles = [w for w in combinations_with_replacement(range(1, 9), 4)
                    if 1 < len(set(w)) < 4 and math.gcd(*w) == 1]
        assert len(profiles) == 219
        for weights in profiles:
            r = hilbert_series(weights)
            on = series_of_rational(r.on_shell, 40).coefficients
            off = series_of_rational(r.off_shell, 40).coefficients
            for k in range(40 + 1):
                assert on[k] == off[k] - (off[k - 2] if k >= 2 else 0), \
                    (weights, k)
            expansion = laurent_at_one(r.on_shell, 3)
            assert expansion.pole_order == 6, weights
            gammas = expansion.coefficients
            assert gammas[0] == gamma0_closed(weights), weights
            assert gammas[2] == gammas[3] == gamma2_closed(weights), weights

    def test_sign_and_scale_invariance(self):
        a = hilbert_series([1, -2, 3])
        b = hilbert_series([2, 4, 6])
        assert a.on_shell.numerator == b.on_shell.numerator
        assert a.weights == b.weights == (1, 2, 3)

    def test_keeps_no_state(self):
        # a stage patched between two calls with the same weights takes
        # effect on the second: no result is kept from the first
        first = hilbert_series((1, 2, 3))
        real = squot.circle.hilbert_on_distinct

        def bumped(weights):
            on, pieces = real(weights)
            num = on.numerator + Poly.monomial(on.numerator.degree)
            return RationalFunction(num, on.denominator), pieces
        with mock.patch("squot.circle.hilbert_on_distinct", bumped):
            with pytest.raises(ReciprocityMismatch):
                hilbert_series((1, 2, 3))
        assert hilbert_series((1, 2, 3)) == first

    def test_off_from_on_keeps_psi(self):
        # reduced, the on-shell series of (1,6,10) holds Psi_8, which
        # the off-shell denominator must keep: (2, 1) is appended to the
        # passes, whatever their signs
        on = hilbert_series((1, 6, 10)).on_shell.reduce()
        assert _grouped(on.denominator)[1] == [(8, 1)]
        assert any(e < 0 for _, e in on.denominator.factors)
        off = squot.circle._off_from_on(on)
        exps = on.denominator.psi_exponents().items()
        assert off.denominator == factored([], [(1, 1), (2, 1), *exps])
        assert list(series_of_rational(off, 40).coefficients) \
            == oracle_off_counts((1, 6, 10), 40)

    @pytest.mark.parametrize("weights", [(1, 1, 3, 4, 5), (1, 2, 2, 3, 5),
                                         (1, 2, 3, 5, 5), (1, 3, 4, 4, 5),
                                         (1, 1, 2, 4, 6), (1, 1, 4, 5, 6),
                                         (1, 4, 5, 6, 6), (2, 4, 5, 5, 6)])
    def test_degenerate_on_shell_in_lowest_terms(self, weights):
        # the reduced off-shell denominator prints Psi_2^2 (Psi_2^3 for
        # (1,1,4,5,6)) as its extra factor and no (1 - x^2); the pass
        # (2, 1) appended to the reduced on-shell series is the merged
        # on-shell sum over one more (1 - x^2), reduced on its own
        r = hilbert_series(weights)
        pairs, psi = _grouped(r.off_shell.denominator)
        assert 2 not in dict(pairs)
        assert psi == [(2, 3 if weights == (1, 1, 4, 5, 6) else 2)]
        assert r.on_shell.reduce() == r.on_shell
        on = merged_series(hilbert_off_clustered(weights)[0])
        off = RationalFunction(on.numerator, FactoredDenominator.from_pairs(
            on.denominator.factors + ((2, 1),)))
        assert r.off_shell == off.reduce()
        assert r.off_shell.reduce() == r.off_shell

    @pytest.mark.parametrize("weights,calls", [
        ((1, 2, 2), 1), ((1, 1, 3, 4, 5), 1), ((2, 2, 2, 3, 3, 3), 1),
        ((1, 2, 3), 0), ((2, 3, 5, 7), 0), ((3, 3, 3), 0), ((5,), 0)])
    def test_one_reduce_per_result(self, weights, calls):
        # one reduce, on shell, for repeated weights; the off-shell series
        # of every method comes from the Psi_d exponents, not a reduce
        with mock.patch.object(RationalFunction, "reduce", autospec=True,
                               side_effect=RationalFunction.reduce) as spy:
            hilbert_series(weights)
        assert spy.call_count == calls

    def test_degenerate_on_shell_pinned(self):
        # two degrees shorter than the unreduced numerator of degree 48
        on = hilbert_series((1, 1, 3, 4, 5)).on_shell
        assert on.numerator.degree == 46
        assert on.numerator.coeffs[:6] == (1, 2, 8, 22, 68, 170)
        assert on.numerator.coeffs == on.numerator.coeffs[::-1]
        assert _grouped(on.denominator) == (
            [(4, 1), (5, 2), (6, 2), (7, 1), (8, 1), (9, 1)],
            [(2, 2), (4, 1)])

    def test_torus_fixture_recovered(self):
        # (1,2,2) reproduces a printed two-torus reduction series
        r = hilbert_series([1, 2, 2])
        assert list(r.on_shell.numerator.coeffs) == [1, 0, 2, 2, 2, 0, 1]
        assert r.on_shell.denominator.factors == ((2, 2), (3, 2))
