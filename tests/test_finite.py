"""Tests for finite diagonal abelian group invariants."""

import cmath
import math
import random
from fractions import Fraction
from itertools import product

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squot.finite
from squot.errors import InputError, ReciprocityMismatch
from squot.exact import (SLACK, QPolynomial, check_reciprocity,
                         laurent_at_one, series_of_rational)
from squot.finite import (FiniteDiagonalGroup, analyze_group, element_order,
                          invariant_counts, molien_series,
                          reflection_analysis)

from polyring import Poly

Q = Fraction


def brute_force_counts(group, order):
    """Literal monomial enumeration, independent of the production DP."""
    n = group.dimension
    counts = [0] * (order + 1)

    def expo_vectors(length, total):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in expo_vectors(length - 1, total - head):
                yield (head,) + tail

    for k in range(order + 1):
        for d in range(k + 1):
            for alpha in expo_vectors(n, d):
                for beta in expo_vectors(n, k - d):
                    if all(sum(g[i] * (alpha[i] - beta[i])
                               for i in range(n)) % group.exponent == 0
                           for g in group.elements):
                        counts[k] += 1
    return counts


def reference_invariant_counts(group, order):
    """Invariant monomial counts by a dict over residue tuples (one
    residue per generator), one dict per degree; independent of the
    production character table."""
    n, mod = group.dimension, group.exponent
    steps = []
    for i in range(n):
        plus = tuple(g[i] for g in group.generators)
        steps.append(plus)
        steps.append(tuple(-x % mod for x in plus))
    zero = (0,) * len(group.generators)
    dp = [{zero: 1}] + [{} for _ in range(order)]
    for step in steps:
        for d in range(1, order + 1):
            cur, prev = dp[d], dp[d - 1]
            for state, cnt in prev.items():
                nxt = tuple((a + b) % mod for a, b in zip(state, step))
                cur[nxt] = cur.get(nxt, 0) + cnt
    return [layer.get(zero, 0) for layer in dp]


def bfs_closure(vectors, mod):
    """Sorted additive closure mod `mod` of nonempty integer vectors of
    one length, the zero vector included, by breadth-first search:
    independent of the production Smith normal form."""
    zero = (0,) * len(vectors[0])
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for el in frontier:
            for v in vectors:
                nxt = tuple((a + b) % mod for a, b in zip(el, v))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return tuple(sorted(seen))


def molien_order(group):
    """The prefix length molien_series asks invariant_counts for."""
    return 2 * sum(group.coordinate_orders()) + SLACK


def product_of_powers(generators, n):
    """Every product g_1^k_1 ... g_r^k_r with 0 <= k_j < m_j, each
    element a tuple of exponents in Q/Z, independent of the production
    closure and of its integer encoding."""
    elements = set()
    for ks in product(*(range(m) for m, _ in generators)):
        elements.add(tuple(sum(Q(k * e[i], m)
                               for k, (m, e) in zip(ks, generators)) % 1
                           for i in range(n)))
    return elements


@st.composite
def generator_lists(draw):
    """1-3 generators (modulus, exponents) on n <= 3 coordinates."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 8)] * n)
    return n, draw(st.lists(st.tuples(st.integers(1, 6), exps),
                            min_size=1, max_size=3))


@st.composite
def closure_cases(draw):
    """1-3 generators on n <= 4 coordinates with moduli <= 12, and at
    times one more: a repeat, the sum of two, or a zero generator."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-12, 24)] * n)
    gens = draw(st.lists(st.tuples(st.integers(1, 12), exps),
                         min_size=1, max_size=3))
    (mi, ei), (mj, ej) = draw(st.sampled_from(gens)), \
        draw(st.sampled_from(gens))
    top = math.lcm(mi, mj)
    extra = draw(st.sampled_from([
        [], [(mi, ei)], [(draw(st.integers(1, 12)), (0,) * n)],
        [(top, tuple(a * (top // mi) + b * (top // mj)
                     for a, b in zip(ei, ej)))]]))
    return gens + extra


class TestSmithNormalForm:
    @given(closure_cases())
    @settings(max_examples=300, deadline=None)
    def test_elements_are_the_closure(self, gens):
        group = FiniteDiagonalGroup.from_generators(gens)
        assert group.elements == bfs_closure(group.generators,
                                             group.exponent)
        assert math.prod(group.radices) == group.order
        # invariant factors: each radix above 1, dividing the one before
        assert all(r > 1 for r in group.radices)
        assert all(a % b == 0
                   for a, b in zip(group.radices, group.radices[1:]))

    @given(closure_cases())
    @settings(max_examples=300, deadline=None)
    def test_characters_are_the_character_group(self, gens):
        # c_i -> its digits extends to a bijection from H, the closure
        # of the columns, onto Z/n_1 x ... x Z/n_r (digit k as a multiple
        # of N / n_k mod N) iff the columns, the digits and the pairs of
        # both each close to |G| sums
        group = FiniteDiagonalGroup.from_generators(gens)
        mod = group.exponent
        columns = list(zip(*group.generators))
        digits = [tuple(t * (mod // r) for t, r in zip(c, group.radices))
                  for c in group.characters]
        pairs = [c + t for c, t in zip(columns, digits)]
        assert len(bfs_closure(columns, mod)) == group.order
        assert len(bfs_closure(pairs, mod)) == group.order
        assert len(bfs_closure(digits, mod)) == group.order


class TestIntegerGroupProperty:
    @given(generator_lists())
    @settings(max_examples=100, deadline=None)
    def test_order_matches_product_of_powers(self, case):
        n, gens = case
        group = FiniteDiagonalGroup.from_generators(gens)
        assert group.order == len(product_of_powers(gens, n))

    @given(generator_lists())
    @settings(max_examples=40, deadline=None)
    def test_counts_match_brute_force(self, case):
        _, gens = case
        group = FiniteDiagonalGroup.from_generators(gens)
        assert invariant_counts(group, 8) == brute_force_counts(group, 8)

    @given(generator_lists(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_redundant_generators_leave_series(self, case, data):
        _, gens = case
        want = molien_series(FiniteDiagonalGroup.from_generators(gens))
        i = data.draw(st.integers(0, len(gens) - 1))
        j = data.draw(st.integers(0, len(gens) - 1))
        (mi, ei), (mj, ej) = gens[i], gens[j]
        top = math.lcm(mi, mj)
        total = (top, tuple(a * (top // mi) + b * (top // mj)
                            for a, b in zip(ei, ej)))
        for extra in (gens + [gens[i]], gens + [total]):
            got = molien_series(FiniteDiagonalGroup.from_generators(extra))
            assert got.numerator == want.numerator
            assert got.denominator == want.denominator


class TestGroupConstruction:
    def test_cyclic_order(self):
        assert FiniteDiagonalGroup.from_generators([(6, (1,))]).order == 6
        assert FiniteDiagonalGroup.from_generators([(6, (2,))]).order == 3
        assert FiniteDiagonalGroup.from_generators([(6, (1, 5))]).order == 6

    def test_product_group(self):
        g = FiniteDiagonalGroup.from_generators([(2, (1, 0)), (3, (0, 1))])
        assert g.order == 6
        assert g.coordinate_orders() == (2, 3)

    def test_no_generators_rejected(self):
        with pytest.raises(InputError, match="at least one generator"):
            FiniteDiagonalGroup.from_generators([])

    def test_element_order(self):
        g = FiniteDiagonalGroup.from_generators([(12, (4,))])
        assert sorted(element_order(e, g.exponent)
                      for e in g.elements) == [1, 3, 3]


class TestMolienSeries:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 12])
    def test_cyclic_series_shape(self, m):
        series = molien_series(
            FiniteDiagonalGroup.from_generators([(m, (1,))]))
        # (1 + x^2 + ... + x^(2m-2)) / (1-x^m)^2
        assert list(series.numerator.coeffs) == [
            1 if k % 2 == 0 else 0 for k in range(2 * m - 1)]
        assert series.denominator.factors == ((m, 2),)

    @pytest.mark.parametrize("gens", [
        [(2, (1,))],
        [(3, (1, 1))],
        [(4, (1, 2))],
        [(2, (1, 0)), (2, (0, 1))],
        [(6, (1, 5))],
        [(2, (1, 1, 0)), (3, (0, 1, 1))],
    ])
    def test_series_matches_brute_force(self, gens):
        group = FiniteDiagonalGroup.from_generators(gens)
        series = molien_series(group)
        got = series_of_rational(series, 12).coefficients
        assert list(got) == brute_force_counts(group, 12)

    def test_trivial_group(self):
        group = FiniteDiagonalGroup.from_generators([(1, (0, 0))])
        series = molien_series(group)
        assert series.numerator.coeffs == (1,)
        assert series.denominator.factors == ((1, 4),)

    @given(generator_lists())
    @settings(max_examples=60, deadline=None)
    def test_reciprocity_holds(self, case):
        # Watanabe: the doubled group lies in SL(2n)
        n, gens = case
        group = FiniteDiagonalGroup.from_generators(gens)
        check_reciprocity(molien_series(group), 2 * n, "molien")

    def test_perturbed_numerator_raises(self):
        real = squot.finite.rational_reconstruct

        def perturbed(*args):
            num = real(*args)
            return num + Poly.monomial(num.degree - 1)
        group = FiniteDiagonalGroup.from_generators([(4, (1, 2))])
        with mock.patch("squot.finite.rational_reconstruct", perturbed):
            with pytest.raises(ReciprocityMismatch):
                molien_series(group)


class TestReflectionAnalysis:
    def test_cyclic_all_reflections(self):
        group = FiniteDiagonalGroup.from_generators([(5, (1,))])
        data = reflection_analysis(group)
        assert data.reflection_count == 4
        assert data.primitive_orders == (5,)
        assert data.two_coordinate_count == 0

    def test_mixed_axes(self):
        group = FiniteDiagonalGroup.from_generators([(2, (1, 0)),
                                                     (4, (0, 1))])
        data = reflection_analysis(group)
        assert sorted(data.primitive_orders) == [2, 4]
        assert data.reflection_count == 4  # 1 + 3
        assert data.two_coordinate_count == 3

    def test_free_action_has_none(self):
        group = FiniteDiagonalGroup.from_generators([(5, (1, 2))])
        data = reflection_analysis(group)
        assert data.primitive_orders == ()
        assert data.reflection_count == 0

    @given(generator_lists())
    @settings(max_examples=200, deadline=None)
    def test_census_matches_brute_force(self, case):
        # pseudoreflections by axis from an independent closure: each
        # moved axis, in order, holds |K_i| - 1 of them, and |K_i| is the
        # largest order among them
        _, gens = case
        group = FiniteDiagonalGroup.from_generators(gens)
        mod = group.exponent
        vectors = [tuple(x * (mod // m) % mod for x in e) for m, e in gens]
        by_axis, two = {}, 0
        for g in bfs_closure(vectors, mod):
            moved = [i for i, x in enumerate(g) if x]
            if len(moved) == 1:
                by_axis.setdefault(moved[0], []).append(g)
            two += len(moved) == 2
        axes = sorted(by_axis)
        data = reflection_analysis(group)
        assert data.primitive_orders \
            == tuple(len(by_axis[i]) + 1 for i in axes)
        assert data.primitive_orders \
            == tuple(max(element_order(g, mod) for g in by_axis[i])
                     for i in axes)
        assert data.reflection_count == sum(map(len, by_axis.values()))
        assert data.two_coordinate_count == two


class TestClosedForms:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_cyclic_gammas(self, m):
        res = analyze_group(
            FiniteDiagonalGroup.from_generators([(m, (1,))]))
        assert res.gammas[0] == Q(1, m)
        assert res.gammas[1] == 0
        assert res.gammas[2] == res.gammas[3] == Q(m * m - 1, 12 * m)
        assert res.q_contribution == 0
        assert res.gammas[3] - 2 * res.gammas[4] + res.gammas[5] == 0

    SUBGROUPS = [
        [(2, (1, 1))],
        [(3, (1, 2))],
        [(4, (1, 1))],
        [(5, (1, 2))],
        [(2, (1, 0)), (2, (0, 1))],
        [(2, (1, 0)), (3, (0, 1))],
        [(4, (1, 2)), (2, (0, 1))],
        [(6, (1, 5))],
        [(3, (1, 1, 1))],
        [(2, (1, 1, 0)), (2, (0, 1, 1))],
        [(4, (1, 3, 2))],
        [(5, (1, 2, 3))],
    ]

    @pytest.mark.parametrize("gens", SUBGROUPS)
    def test_subgroup_consistency(self, gens):
        # analyze_group raises ClosedFormMismatch if any closed form
        # disagrees with the exact series
        res = analyze_group(FiniteDiagonalGroup.from_generators(gens))
        size = res.group.order
        assert res.gammas[0] == Q(1, size)
        quad = sum(m * m - 1 for m in res.reflections.primitive_orders)
        assert res.gammas[2] == Q(quad, 12 * size)
        assert res.gammas[3] - 2 * res.gammas[4] + res.gammas[5] == 0
        assert res.laurent.pole_order == 2 * res.group.dimension

    def test_q_contribution_zero_without_q_elements(self):
        res = analyze_group(FiniteDiagonalGroup.from_generators(
            [(2, (1, 0, 0))]))
        assert res.reflections.two_coordinate_count == 0
        assert res.q_contribution == 0


def gessel_sum(kind, m):
    """Closed forms for sums over nontrivial m-th roots of unity.

    kind selects the summand f(zeta):
      quad:   zeta/(1-zeta)^2      -> -(m^2-1)/12
      cube1:  zeta/(1-zeta)^3      -> -(m^2-1)/24
      cube2:  zeta^2/(1-zeta)^3    ->  (m^2-1)/24
      quart1: zeta/(1-zeta)^4      ->  (m^4-20m^2+19)/720
      quart2: zeta^2/(1-zeta)^4    ->  (m^4+10m^2-11)/720
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    table = {
        "quad": Fraction(-(m * m - 1), 12),
        "cube1": Fraction(-(m * m - 1), 24),
        "cube2": Fraction(m * m - 1, 24),
        "quart1": Fraction(m ** 4 - 20 * m * m + 19, 720),
        "quart2": Fraction(m ** 4 + 10 * m * m - 11, 720),
    }
    if kind not in table:
        raise ValueError(f"unknown kind {kind!r}")
    return table[kind]


class TestGesselSums:
    KINDS = {
        "quad": lambda z: z / (1 - z) ** 2,
        "cube1": lambda z: z / (1 - z) ** 3,
        "cube2": lambda z: z * z / (1 - z) ** 3,
        "quart1": lambda z: z / (1 - z) ** 4,
        "quart2": lambda z: z * z / (1 - z) ** 4,
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("m", range(1, 16))
    def test_numeric_oracle(self, kind, m):
        total = sum(self.KINDS[kind](cmath.exp(2j * cmath.pi * j / m))
                    for j in range(1, m))
        want = gessel_sum(kind, m)
        assert abs(total.imag) < 1e-8
        assert abs(total.real - float(want)) < 1e-8 * max(1.0, abs(float(want)))

    def test_quart_symmetry(self):
        # z/(1-z)^4 summed equals z^3/(1-z)^4 summed (conjugation)
        for m in range(1, 12):
            total = sum((z := cmath.exp(2j * cmath.pi * j / m)) ** 3
                        / (1 - z) ** 4 for j in range(1, m))
            assert abs(total.real - float(gessel_sum("quart1", m))) < 1e-8

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            gessel_sum("quintic", 3)


class TestInvariantCountDP:
    def test_matches_brute_force_u3(self):
        group = FiniteDiagonalGroup.from_generators([(2, (1, 1, 0)),
                                                     (2, (0, 1, 1))])
        assert invariant_counts(group, 8) == brute_force_counts(group, 8)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_at_molien_order(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        gens = []
        for _ in range(rng.randint(1, 2)):
            m = rng.randint(1, 8)
            gens.append((m, tuple(rng.randrange(m) for _ in range(n))))
        group = FiniteDiagonalGroup.from_generators(gens)
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)

    @pytest.mark.parametrize("gens", [
        [(1, (0, 0))],                      # one character
        [(3, (0, 0, 0))],                   # one character, |G| = 1
        [(4, (1, 0, 2)), (2, (1, 0, 1))],   # axis 1 fixed
    ])
    def test_fixed_axes(self, gens):
        group = FiniteDiagonalGroup.from_generators(gens)
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)
        assert invariant_counts(group, 8) == brute_force_counts(group, 8)

    @staticmethod
    def radices(group):
        return group.radices

    @pytest.mark.parametrize("gens, radices", [
        ([(2, (1, 0)), (2, (0, 1))], (2, 2)),              # Z/2 x Z/2
        ([(4, (1, 0, 1)), (2, (0, 1, 1))], (4, 2)),        # Z/4 x Z/2
        ([(12, (1, 0)), (10, (0, 1))], (60, 2)),           # Z/12 x Z/10
        ([(12, (1, 5, 0)), (10, (0, 3, 7))], (60, 2)),
        ([(2, (1, 0, 0)), (2, (0, 1, 0)), (2, (0, 0, 1))], (2, 2, 2)),
    ])
    def test_non_cyclic_characters(self, gens, radices):
        group = FiniteDiagonalGroup.from_generators(gens)
        assert self.radices(group) == radices
        assert math.prod(radices) == group.order
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)
        assert invariant_counts(group, 6) == brute_force_counts(group, 6)

    @pytest.mark.parametrize("gens", [
        # five order-8 generators of one group of order 16: a grid of
        # one axis per generator would have 8^5 lanes
        [(8, (1, 0)), (8, (0, 4)), (8, (1, 4)), (8, (3, 4)), (8, (5, 0))],
        [(6, (1, 1)), (6, (5, 5)), (3, (1, 1)), (2, (1, 1))],
        [(4, (1, 2, 3))] * 4,
    ])
    def test_redundant_generators_one_lane_per_character(self, gens):
        group = FiniteDiagonalGroup.from_generators(gens)
        assert math.prod(self.radices(group)) == group.order
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)

    def test_trivial_group_one_lane(self):
        group = FiniteDiagonalGroup.from_generators([(1, (0, 0))])
        assert self.radices(group) == ()
        # every monomial of degree d in 4 variables is invariant
        assert invariant_counts(group, 12) \
            == [math.comb(d + 3, 3) for d in range(13)]

    @pytest.mark.parametrize("gens", [
        [(1, (0,))], [(6, (1,))], [(6, (4,))], [(5, (2,)), (3, (1,))],
    ])
    def test_one_coordinate(self, gens):
        group = FiniteDiagonalGroup.from_generators(gens)
        assert math.prod(self.radices(group)) == group.order
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)
        assert invariant_counts(group, 10) == brute_force_counts(group, 10)

    def test_lanes_wider_than_64_bits(self):
        group = FiniteDiagonalGroup.from_generators([(5, (1, 2, 3, 4, 1, 2))])
        order = 400
        assert math.comb(order + 11, 11).bit_length() > 64
        counts = invariant_counts(group, order)
        assert max(counts) > 2 ** 64
        assert counts == reference_invariant_counts(group, order)

    @given(generator_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, case):
        _, gens = case
        group = FiniteDiagonalGroup.from_generators(gens)
        radices = self.radices(group)
        assert math.prod(radices) == group.order
        # the greedy basis gives the invariant factors: n_(k+1) | n_k
        assert all(r > 1 for r in radices)
        assert all(a % b == 0 for a, b in zip(radices, radices[1:]))
        order = molien_order(group)
        assert invariant_counts(group, order) \
            == reference_invariant_counts(group, order)
