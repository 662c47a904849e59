"""Tests for Schur closed forms, Laurent data and the S_m constraints."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squot.circle import hilbert_series
from squot.errors import ClosedFormMismatch, InputError
from squot.exact import (FactoredDenominator, LaurentExpansion, QPolynomial,
                         RationalFunction, cleared, laurent_at_one)
from squot.laurent import (_det, check_closed_forms, circle_closed_forms,
                           complete_homogeneous, gamma0_closed,
                           gamma0_equal_weights, gamma2_closed,
                           schur_bialternant, schur_eval,
                           sqrt_series_coefficients, staircase_product,
                           symplectic_check)

Q = Fraction


def schur_by_tableaux(partition, points):
    """Independent Schur oracle: sum over semistandard tableaux."""
    n = len(points)
    shape = [r for r in partition if r]
    if not shape:
        return Q(1)

    rows = len(shape)
    total = Q(0)

    # rows weakly increase left to right, columns strictly increase down
    def rows_fill(r, prev_row, weight):
        nonlocal total
        if r == rows:
            total += weight
            return
        width = shape[r]

        def cells(c, row, w):
            if c == width:
                rows_fill(r + 1, row, w)
                return
            lo = row[c - 1] if c else 1
            if prev_row is not None:
                lo = max(lo, prev_row[c] + 1)
            for v in range(lo, n + 1):
                cells(c + 1, row + [v], w * points[v - 1])

        cells(0, [], weight)

    rows_fill(0, None, Q(1))
    return total


def reference_det(rows):
    """Determinant by Gaussian elimination over Fraction, with row
    swaps on a zero pivot."""
    m = [list(map(Q, r)) for r in rows]
    n = len(m)
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Q(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def record(gammas, pole_order=0):
    """The Laurent record of the given gammas, cleared by one lcm."""
    scale, nums = cleared([Q(g) for g in gammas])
    return LaurentExpansion(pole_order, tuple(nums), scale)


def reference_residuals(gammas, max_order):
    """S_1..S_max_order summed term by term in Fraction arithmetic."""
    residuals = []
    for m in range(1, max_order + 1):
        s = Q(0)
        for k in range(m):
            s += (-1) ** k * math.comb(m - 1, k) * Q(gammas[m + k])
        residuals.append(s)
    return residuals


def square_matrices(entries):
    """Square matrices of size 0..5, often with zero columns, equal rows
    or a zero in a pivot position."""
    return st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


sparse_ints = st.one_of(st.just(0), st.integers(-4, 4))
sparse_fractions = st.one_of(
    st.just(Q(0)), st.fractions(min_value=-3, max_value=3, max_denominator=5))


class TestDeterminant:
    @given(square_matrices(sparse_ints))
    @settings(max_examples=300)
    def test_integer_matrices(self, rows):
        assert _det(rows) == reference_det(rows)

    @given(square_matrices(sparse_fractions))
    @settings(max_examples=100)
    def test_rational_matrices(self, rows):
        assert _det(rows) == reference_det(rows)

    @pytest.mark.parametrize("rows, want", [
        ([[0, 1], [1, 0]], -1),
        ([[0, 2, 1], [0, 1, 3], [4, 0, 0]], 20),
        ([[1, 2, 3], [2, 4, 7], [1, 1, 1]], 1),  # zero pivot after step 1
        ([[1, 2], [2, 4]], 0),
        ([[0, 1], [0, 5]], 0),
        ([[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 5)]], Q(1, 60)),
        ([], 1),
    ])
    def test_known_values(self, rows, want):
        assert _det(rows) == reference_det(rows) == want


class TestSchur:
    def test_length_mismatch(self):
        with pytest.raises(InputError, match="partition length 2 != 3"):
            schur_eval((1, 0), [1, 2, 3])

    def test_increasing_partition_rejected(self):
        with pytest.raises(InputError, match="non-increasing"):
            schur_eval((0, 1), [1, 2])

    def test_no_points(self):
        # the empty determinant: s_() = 1
        assert schur_eval((), []) == 1

    def test_bialternant_length_mismatch(self):
        with pytest.raises(InputError, match="partition length 2 != 3"):
            schur_bialternant((1, 0), [1, 2, 3])

    def test_bialternant_repeated_points_rejected(self):
        with pytest.raises(InputError, match="distinct points"):
            schur_bialternant((1, 0), [3, Q(3)])

    def test_staircase_product_formula(self):
        pts = [2, 3, 5]
        assert schur_eval((2, 1, 0), pts) == staircase_product(pts)

    def test_elementary_and_complete(self):
        # s_(1,1,0) = e_2, s_(2,0,0) = h_2
        pts = [Q(1), Q(2), Q(4)]
        assert schur_eval((1, 1, 0), pts) == 1 * 2 + 1 * 4 + 2 * 4
        assert schur_eval((2, 0, 0), pts) == sum(
            pts[i] * pts[j] for i in range(3) for j in range(i, 3))

    def test_complete_homogeneous_repeated_points(self):
        h = complete_homogeneous([2, 2], 3)
        assert h == [1, 4, 12, 32]  # (k+1) 2^k

    SHAPES = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2, 0), (3, 1, 0),
              (2, 1, 1), (3, 2, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_three_routes_agree(self, shape):
        n = max(len(shape), 2)
        shape = tuple(shape) + (0,) * (n - len(shape))
        for pts in [(1, 2, 3), (2, 3, 7), (1, 4, 9)]:
            pts = pts[:n]
            jt = schur_eval(shape, pts)
            assert jt == schur_bialternant(shape, pts)
            assert jt == schur_by_tableaux(shape, pts)

    @given(st.lists(st.integers(1, 8), min_size=2, max_size=3),
           st.lists(st.integers(0, 3), min_size=2, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_jt_vs_tableaux_random(self, pts, rows):
        n = len(pts)
        shape = tuple(sorted(rows[:n], reverse=True)) + (0,) * max(0, n - len(rows))
        shape = shape[:n]
        assert schur_eval(shape, pts) == schur_by_tableaux(shape, pts)

    @given(st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=7), min_size=2, max_size=3),
           st.lists(st.integers(0, 3), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_rational_points_vs_tableaux(self, pts, rows):
        shape = tuple(sorted(rows, reverse=True))[:len(pts)]
        assert schur_eval(shape, pts) == schur_by_tableaux(shape, pts)

    def test_repeated_points_ok(self):
        # Jacobi-Trudi stays finite at coinciding points
        assert schur_eval((1, 0), [3, 3]) == 6
        assert schur_eval((2, 1, 0), [2, 2, 2]) == staircase_product([2, 2, 2])


@dataclass(frozen=True)
class GammaClosedForms:
    gamma0: Fraction
    gamma2: Fraction

    @property
    def gamma3(self) -> Fraction:
        return self.gamma2


def gamma_closed_forms(weights):
    gamma0 = gamma0_closed(weights)
    return GammaClosedForms(gamma0, gamma2_closed(weights, gamma0=gamma0))


class TestGammaClosedForms:
    def test_reference_triple(self):
        assert gamma0_closed([4, 5, 20]) == Q(1, 27)
        assert gamma2_closed([4, 5, 20]) == Q(23, 162)
        forms = gamma_closed_forms([4, 5, 20])
        assert forms.gamma3 == forms.gamma2

    def test_two_weights(self):
        assert gamma0_closed([3, 7]) == Q(1, 10)
        with pytest.raises(InputError, match="gamma2 closed form needs n"):
            gamma2_closed([3, 7])
        with pytest.raises(InputError, match="gamma0 closed form needs n"):
            gamma0_closed([3])

    def test_engine_agreement_sample(self):
        for weights in [(1, 2, 3), (2, 3, 7), (1, 1, 2), (3, 4, 5, 7)]:
            r = hilbert_series(weights)
            ex = laurent_at_one(r.on_shell, 3)
            assert ex.pole_order == 2 * len(weights) - 2
            assert ex.coefficients[0] == gamma0_closed(weights)
            assert ex.coefficients[1] == 0
            assert ex.coefficients[2] == gamma2_closed(weights)
            assert ex.coefficients[3] == gamma2_closed(weights)

    def test_equal_weights_needs_n_at_least_1(self):
        with pytest.raises(InputError, match="need n >= 1"):
            gamma0_equal_weights(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_weights_sqrt_series(self, n):
        assert gamma0_equal_weights(n) == sqrt_series_coefficients(n)[n - 1]
        assert gamma0_equal_weights(n) == Q(math.comb(2 * n - 2, n - 1),
                                            4 ** (n - 1))


class TestCheckClosedForms:
    @pytest.mark.parametrize("weights, keys", [
        ((1,), set()), ((3, 7), {0}), ((4, 5, 20), {0, 2, 3}),
        ((3, 4, 5, 7), {0, 2, 3})])
    def test_circle_table_keys(self, weights, keys):
        closed = circle_closed_forms(weights)
        assert set(closed) == keys
        if 0 in keys:
            assert closed[0] == gamma0_closed(weights)
        if 2 in keys:
            assert closed[2] == closed[3] == gamma2_closed(weights)

    @pytest.mark.parametrize("weights", [(3, 7), (4, 5, 20), (1, 1, 2),
                                         (3, 4, 5, 7)])
    def test_equal_values_at_any_scale_pass(self, weights):
        # records are not normalized: n_k and D times 6 hold the same
        # gammas and pass the same check
        closed = circle_closed_forms(weights)
        ex = laurent_at_one(hilbert_series(weights).on_shell, 5)
        scaled = ex._replace(numerators=tuple(6 * n for n in ex.numerators),
                             scale=6 * ex.scale)
        for rec in (ex, scaled):
            check_closed_forms(rec, closed, "weights",
                               pole_order=2 * len(weights) - 2)

    def test_first_disagreement_raises(self):
        rec = record([Q(1, 3), 0, Q(1, 5), Q(1, 7)], pole_order=4)
        with pytest.raises(ClosedFormMismatch,
                           match="^case: gamma2 = 1/5 but the closed "
                                 "form gives 1/6$"):
            check_closed_forms(rec, {3: Q(1, 8), 2: Q(1, 6), 0: Q(1, 3)},
                               "case")
        with pytest.raises(ClosedFormMismatch,
                           match="^case: pole order 4 != 3$"):
            check_closed_forms(rec, {}, "case", pole_order=3)

    def test_skips_k_past_the_record(self):
        rec = record([Q(1, 3), 0])
        check_closed_forms(rec, {0: Q(1, 3), 2: Q(99), 5: Q(-1)}, "case")


def off_shell_coefficients(on):
    """Laurent data of series/(1-x^2) from the data of the series.

    The pole order grows by one; the coefficients follow the recursion
    delta_k = (gamma_k + delta_{k-1}) / 2 with delta_0 = gamma_0 / 2.
    """
    out = []
    prev = Fraction(0)
    for g in on.coefficients:
        prev = (g + prev) / 2
        out.append(prev)
    return record(out, on.pole_order + 1)


class TestOffShellCoefficients:
    def test_recursion_matches_division(self):
        r = hilbert_series([1, 2, 3])
        on = laurent_at_one(r.on_shell, 6)
        off = laurent_at_one(r.off_shell, 6)
        derived = off_shell_coefficients(on)
        assert derived.pole_order == off.pole_order == on.pole_order + 1
        assert derived.coefficients == off.coefficients


def fixture_series(num, pairs):
    return RationalFunction(QPolynomial(num),
                            FactoredDenominator.from_pairs(pairs))


TORUS_2X4 = fixture_series([1, 0, 2, 2, 2, 0, 1], [(2, 2), (3, 2)])
TORUS_2X5 = fixture_series([1, 0, 3, 6, 11, 10, 14, 10, 11, 6, 3, 0, 1],
                           [(2, 2), (3, 2), (4, 2)])


class TestTorusFixtures:
    def test_2x4_gammas(self):
        ex = laurent_at_one(TORUS_2X4, 4)
        assert ex.pole_order == 4
        assert ex.coefficients == (Q(2, 9), 0, Q(11, 108), Q(11, 108),
                                   Q(49, 432))

    def test_2x5_gammas(self):
        ex = laurent_at_one(TORUS_2X5, 5)
        assert ex.pole_order == 6
        assert ex.coefficients == (Q(19, 144), 0, Q(41, 864), Q(41, 864),
                                   Q(407, 6912), Q(9, 128))


class TestSymplecticCheck:
    def test_needs_enough_coefficients(self):
        with pytest.raises(InputError, match="got R = 2 and 3 coefficients"):
            symplectic_check(record([1, 0, 0]), 2)

    def test_constant_series_passes(self):
        rep = symplectic_check(record([Q(1)] + [Q(0)] * 19), 10)
        assert rep.passed and rep.violations == ()

    def test_residual_structure(self):
        # S_1 = g1, S_2 = g2 - g3, S_3 = g3 - 2 g4 + g5
        gammas = [Q(k * k + 1) for k in range(8)]
        rep = symplectic_check(record(gammas), 3)
        s1, s2, s3 = rep.residuals
        assert s1 == gammas[1]
        assert s2 == gammas[2] - gammas[3]
        assert s3 == gammas[3] - 2 * gammas[4] + gammas[5]

    @given(st.lists(st.one_of(st.integers(-50, 50),
                              st.fractions(max_denominator=100)),
                    min_size=2, max_size=40),
           st.data())
    @settings(max_examples=100)
    def test_matches_fraction_reference(self, gammas, data):
        max_order = data.draw(st.integers(1, len(gammas) // 2))
        rep = symplectic_check(record(gammas), max_order)
        assert list(rep.residuals) == reference_residuals(gammas, max_order)
        assert rep.violations == tuple(
            m for m, s in enumerate(rep.residuals, start=1) if s)

    def test_circle_quotients_pass(self):
        for weights in [(1, 2, 3), (1, 1, 2), (2, 3, 7)]:
            r = hilbert_series(weights)
            ex = laurent_at_one(r.on_shell, 39)
            assert symplectic_check(ex, 20).passed, weights
