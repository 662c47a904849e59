"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line on success; all comparisons are
exact (no floating point, no tolerances).
"""

import cmath
import math
import os
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from squot.circle import (hilbert_equal_weights, hilbert_series,
                          normalize_weights, oracle_off_counts)
from squot.cli import load_series
from squot.exact import (FactoredDenominator, QPolynomial, RationalFunction,
                         laurent_at_one, laurent_prototype,
                         resultant_transform, series_of_rational)
from squot.laurent import (gamma0_closed, gamma0_equal_weights,
                           gamma2_closed, schur_bialternant, schur_eval,
                           sqrt_series_coefficients, symplectic_check)
from squot.scan import (gamma0_is_integral, gamma2_ratio,
                        is_unit_fraction_sum, pseudoreflection_obstruction,
                        reciprocal_gamma0)
from squot.finite import FiniteDiagonalGroup, analyze_group

Q = Fraction

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "squot",
                        "fixtures")


def fixture(name):
    return load_series([os.path.join(FIXTURES, name)])


@pytest.fixture(scope="module")
def sweep_n3():
    """Shared n = 3, weights <= 15, gcd 1 sweep (criteria 4 and 7)."""
    out = {}
    for w in combinations_with_replacement(range(1, 16), 3):
        if math.gcd(*w) != 1:
            continue
        r = hilbert_series(w)
        out[w] = laurent_at_one(r.on_shell, 119)
    return out


def test_criterion_1_worked_example():
    start = time.monotonic()
    result = hilbert_series((1, 2, 3))
    on = result.on_shell
    assert on.numerator == QPolynomial([1, 0, 1, 3, 4, 4, 4, 3, 1, 0, 1])
    assert on.denominator.factors == ((2, 1), (3, 1), (4, 1), (5, 1))
    u2, u3 = result.pieces[1], result.pieces[2]
    assert u2.numerator == QPolynomial([0, -2, -1, -2, -1, -2])
    assert u2.denominator.factors == ((1, 2), (3, 1), (5, 1))
    assert u3.numerator == QPolynomial([1, 1, 4, 5, 5, 5, 4, 1, 1])
    assert u3.denominator.factors == ((1, 1), (2, 1), (4, 1), (5, 1))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS worked example (1,2,3) exact, "
          f"{elapsed:.3f}s")


def test_criterion_2_benchmark_191_192_193():
    start = time.monotonic()
    result = hilbert_series((191, 192, 193))
    on = result.on_shell
    assert on.denominator.factors == ((2, 1), (383, 1), (384, 1), (385, 1))
    assert on.numerator.degree == 1150
    assert on.numerator.coeffs == on.numerator.coeffs[::-1]
    elapsed = time.monotonic() - start
    assert elapsed < 1800  # advisory 30 min target
    print(f"\n[criterion 2] PASS benchmark (191,192,193), {elapsed:.1f}s")


def test_criterion_3_laurent_closed_forms_4_5_20():
    weights = (4, 5, 20)
    assert gamma0_closed(weights) == Q(1, 27)
    assert gamma2_closed(weights) == Q(23, 162)
    assert gamma2_ratio(weights) == 46
    assert pseudoreflection_obstruction(weights) is False
    print("\n[criterion 3] PASS (4,5,20): 1/27, 23/162, ratio 46, "
          "obstruction impossible")


def test_criterion_4_schur_engine_sweep(sweep_n3):
    start = time.monotonic()
    for w, expansion in sweep_n3.items():
        g2 = gamma2_closed(w)
        assert expansion.coefficients[0] == gamma0_closed(w), w
        assert expansion.coefficients[1] == 0, w
        assert expansion.coefficients[2] == g2, w
        assert expansion.coefficients[3] == g2, w
        assert g2 > 0, w
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"\n[criterion 4] PASS Schur/engine sweep over {len(sweep_n3)} "
          f"weight vectors, {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    count = 0
    for n in range(1, 5):
        for w in combinations_with_replacement(range(1, 9), n):
            r = hilbert_series(w)
            got = list(series_of_rational(r.off_shell, 30).coefficients)
            assert got == oracle_off_counts(normalize_weights(w), 30), w
            count += 1
    print(f"\n[criterion 5] PASS oracle equivalence for {count} profiles "
          "through degree 30")


def test_criterion_6_completely_degenerate_family():
    for n in range(1, 11):
        result = hilbert_series((1,) * n)
        assert result.method == "CompletelyDegenerate"
        closed = hilbert_equal_weights(n)
        assert result.on_shell.numerator == closed.numerator
        assert result.on_shell.denominator == closed.denominator
        num = [math.comb(n - 1, k) ** 2 for k in range(n)]
        assert [result.on_shell.numerator[2 * k] for k in range(n)] == num
        expansion = laurent_at_one(result.on_shell, 0)
        gamma0 = expansion.coefficients[0]
        assert gamma0 == gamma0_equal_weights(n)
        assert gamma0 == sqrt_series_coefficients(n)[n - 1]
    print("\n[criterion 6] PASS completely degenerate family n <= 10, "
          "gamma0 from 1/sqrt(1-x)")


def test_criterion_7_symplectic_order_experiments(sweep_n3):
    for w, expansion in sweep_n3.items():
        assert symplectic_check(expansion, 60).passed, w

    su2 = laurent_at_one(fixture("su2_2v1.txt"), 199)
    assert symplectic_check(su2, 100).violations == (2,)

    o_n = laurent_at_one(fixture("o_n.txt"), 119)
    assert o_n.coefficients[0] == Q(5, 32)
    assert o_n.coefficients[2:6] == (Q(11, 128),) * 4
    assert symplectic_check(o_n, 60).passed
    print(f"\n[criterion 7] PASS S_1..S_60 on {len(sweep_n3)} quotients; "
          "fixtures behave as recorded")


def test_criterion_8_finite_groups():
    checked = 0
    for m in range(1, 21):
        res = analyze_group(
            FiniteDiagonalGroup.from_generators([(m, (1,))]))
        assert res.gammas[0] == Q(1, m)
        assert res.gammas[1] == 0
        assert res.gammas[2] == res.gammas[3] == Q(m * m - 1, 12 * m)
        assert res.gammas[3] - 2 * res.gammas[4] + res.gammas[5] == 0
        checked += 1

    subgroups = [
        [(2, (1, 1))], [(3, (1, 2))], [(4, (1, 1))], [(5, (1, 2))],
        [(6, (1, 5))], [(2, (1, 0)), (2, (0, 1))],
        [(2, (1, 0)), (3, (0, 1))], [(4, (1, 2)), (2, (0, 1))],
        [(8, (1, 3))], [(3, (1, 1, 1))], [(4, (1, 3, 2))],
        [(2, (1, 1, 0)), (2, (0, 1, 1))], [(5, (1, 2, 3))],
    ]
    assert len(subgroups) >= 10
    for gens in subgroups:
        group = FiniteDiagonalGroup.from_generators(gens)
        res = analyze_group(group)
        size = group.order
        quad = sum(o * o - 1 for o in res.reflections.primitive_orders)
        assert res.gammas[0] == Q(1, size), gens
        assert res.gammas[1] == 0, gens
        assert res.gammas[2] == res.gammas[3] == Q(quad, 12 * size), gens
        assert res.gammas[3] - 2 * res.gammas[4] + res.gammas[5] == 0, gens
        checked += 1
    print(f"\n[criterion 8] PASS {checked} finite groups (Z_m <= 20 and "
          f"{len(subgroups)} subgroups of U2/U3)")


def test_criterion_9_property_suites():
    # resultant transform agrees with the factored rule, a, m <= 12
    for a in range(1, 13):
        for m in range(1, 13):
            factor = QPolynomial([1] + [0] * (m - 1) + [-1])
            got = resultant_transform(factor, a)
            want = FactoredDenominator.from_pairs(
                [(math.lcm(a, m) // a, math.gcd(a, m))]).expand()
            assert got == want, (a, m)

    # Laurent prototype vs engine, t <= 20
    for t in range(1, 21):
        f = RationalFunction(QPolynomial([1]),
                             FactoredDenominator.from_pairs([(t, 1)]))
        assert laurent_prototype(t, 8).coefficients \
            == laurent_at_one(f, 8).coefficients, t

    # Schur evaluation: Jacobi-Trudi vs bialternant on small shapes
    for shape in [(1, 0), (2, 0), (1, 1), (2, 1, 0), (2, 2, 0), (3, 1, 0)]:
        n = len(shape)
        for pts in [(1, 2, 3, 4)[:n], (2, 3, 7, 11)[:n]]:
            assert schur_eval(shape, pts) == schur_bialternant(shape, pts)

    # Egyptian fraction <=> integrality of 1/gamma0, level <= 100
    for a in range(1, 34):
        for b in range(a, (100 - a) // 2 + 1):
            for c in range(b, 100 - a - b + 1):
                assert gamma0_is_integral((a, b, c)) \
                    == is_unit_fraction_sum((a, b, c)), (a, b, c)

    # (1,1,b) is never integral for b <= 30
    for b in range(1, 31):
        assert not gamma0_is_integral((1, 1, b)), b
        assert reciprocal_gamma0((1, 1, b)).denominator > 1, b
    print("\n[criterion 9] PASS property suites (resultant rule, prototype, "
          "Schur routes, Egyptian equivalence, (1,1,b))")
