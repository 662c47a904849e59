"""Laurent data of Hilbert series at x = 1.

The leading Laurent coefficients gamma_k of the on-shell Hilbert series
carry the geometry of the quotient.  For the circle case this module
provides closed forms for gamma_0 and gamma_2 = gamma_3 as ratios of
Schur polynomials evaluated at the weights, the one check of a Laurent
record against closed forms (circle and finite), and the linear
constraints ("S_m = 0") that characterize series behaving like a
symplectic quotient of order r.

The Schur values and the S_m are computed in integers: points are
cleared by one lcm, determinants are Bareiss eliminations over Z, the
S_m are sums over a Laurent record's integer numerators, and one
Fraction is built per result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import NamedTuple, Sequence, Tuple

from .errors import ClosedFormMismatch, InputError
from .exact import LaurentExpansion, cleared


def _det(rows) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination over Z.

    The matrix is cleared by the lcm L of its entries' denominators, so
    det(M) = det(L M) / L^n and every step is an exact integer division.
    A zero pivot is replaced by a row below it, with a sign change.
    """
    n = len(rows)
    scale, flat = cleared([c for row in rows for c in row])
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(c * pivot - lead * t) // prev
                           for c, t in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return Fraction(sign * m[-1][-1], scale ** n) if n else Fraction(1)


def complete_homogeneous(points: Sequence, top: int) -> list:
    """h_0..h_top of the given points, from prod 1/(1 - a_i t).

    Multiplying by 1/(1 - a t) is h_k += a h_(k-1), in increasing k;
    integer points give integer values.
    """
    h = [1] + [0] * top
    for a in points:
        for k in range(1, top + 1):
            h[k] += a * h[k - 1]
    return h


def schur_eval(partition: Sequence[int], points: Sequence) -> Fraction:
    """Schur polynomial s_partition at the given points (Jacobi-Trudi).

    Handles repeated points; the partition must be padded with zeros to
    the number of points.  The points are cleared by the lcm L of their
    denominators: s_partition is homogeneous of degree |partition|, so
    its value is s_partition(L p) / L^|partition|, a determinant of
    integers.
    """
    if len(partition) != len(points):
        raise InputError(
            f"partition length {len(partition)} != {len(points)} points")
    if any(partition[i] < partition[i + 1] for i in range(len(partition) - 1)):
        raise InputError("partition entries must be non-increasing")
    n = len(points)
    if n == 0:
        return Fraction(1)
    scale, ints = cleared(points)
    h = complete_homogeneous(ints, partition[0] + n - 1)

    def entry(i, j):
        k = partition[i] - i + j
        return h[k] if 0 <= k < len(h) else 0

    return (_det([[entry(i, j) for j in range(n)] for i in range(n)])
            / scale ** sum(partition))


def schur_bialternant(partition: Sequence[int], points: Sequence) -> Fraction:
    """Schur value as a ratio of alternants; points must be distinct."""
    if len(partition) != len(points):
        raise InputError(
            f"partition length {len(partition)} != {len(points)} points")
    n = len(points)
    pts = [Fraction(a) for a in points]
    if len(set(pts)) != n:
        raise InputError("bialternant form needs distinct points")
    top = _det([[pts[i] ** (partition[j] + n - 1 - j) for j in range(n)]
                for i in range(n)])
    return top / math.prod(p - q for p, q in combinations(pts, 2))


def staircase_product(points: Sequence):
    """s_(n-1,...,1,0) at the points: prod_{i<j} (a_i + a_j), an
    integer at integer points."""
    return math.prod(a + b for a, b in combinations(points, 2))


def _clipped_staircase(n: int, drop: int) -> Tuple[int, ...]:
    """Staircase (n-1,...,0) with the top `drop` entries clamped down:
    drop=1 gives (n-2, n-2, n-3, ..., 0), drop=2 (n-3, n-3, n-3, ...)."""
    return tuple(min(s, n - 1 - drop) for s in range(n - 1, -1, -1))


def gamma0_closed(weights: Sequence[int]) -> Fraction:
    """Leading Laurent coefficient of the on-shell circle series.

    Ratio of two Schur values at the (positive) weights; needs n >= 2.
    For n = 2 this reduces to 1/(a_1 + a_2).
    """
    n = len(weights)
    if n < 2 or min(weights) < 1:
        raise InputError("gamma0 closed form needs n >= 2 positive weights")
    return (schur_eval(_clipped_staircase(n, 1), weights)
            / staircase_product(weights))


def gamma2_closed(weights: Sequence[int], *, gamma0=None) -> Fraction:
    """Subleading coefficient gamma_2 = gamma_3 of the on-shell series.

    Needs n >= 3.  Besides a bulk term built from Schur values at all
    weights, each coordinate whose removal leaves a non-primitive
    weight vector contributes a correction through the gcd g_j of the
    remaining weights.  A caller that already holds
    gamma0_closed(weights) passes it as `gamma0`, so that its Schur
    ratio is not evaluated twice.
    """
    n = len(weights)
    if n < 3 or min(weights) < 1:
        raise InputError("gamma2 closed form needs n >= 3 positive weights")
    sum_sq = sum(a * a for a in weights)
    if gamma0 is None:
        gamma0 = gamma0_closed(weights)
    total = gamma0 / 12
    total += (schur_eval(_clipped_staircase(n, 2), weights) * sum_sq
              / (12 * staircase_product(weights)))
    for j in range(n):
        others = tuple(weights[:j]) + tuple(weights[j + 1:])
        g = math.gcd(*others)
        if g > 1:
            total += (g * g - 1) * gamma0_closed(others) / 12
    return total


def circle_closed_forms(weights: Sequence[int]) -> dict:
    """{k: closed form of gamma_k} for normalized weights (none for a
    series): gamma_0 for n >= 2, gamma_2 = gamma_3 for n >= 3."""
    closed = {0: gamma0_closed(weights)} if len(weights) >= 2 else {}
    if len(weights) >= 3:
        closed[2] = closed[3] = gamma2_closed(weights, gamma0=closed[0])
    return closed


def check_closed_forms(expansion: LaurentExpansion, closed: dict,
                       label: str, pole_order=None) -> None:
    """Raise ClosedFormMismatch at the first value off its closed form:
    the pole order if given, then gamma_k = n_k / D against c = closed[k]
    in increasing k by c.numerator * D == n_k * c.denominator, skipping
    k past the record."""
    if pole_order is not None and expansion.pole_order != pole_order:
        raise ClosedFormMismatch(
            f"{label}: pole order {expansion.pole_order} != {pole_order}")
    nums, scale = expansion.numerators, expansion.scale
    for k, c in sorted(closed.items()):
        if k < len(nums) and c.numerator * scale != nums[k] * c.denominator:
            raise ClosedFormMismatch(f"{label}: gamma{k} = "
                                     f"{Fraction(nums[k], scale)} but the "
                                     f"closed form gives {c}")


def gamma0_equal_weights(n: int) -> Fraction:
    """gamma_0 for n equal weights: C(2n-2, n-1) / 4^(n-1).

    These are exactly the Taylor coefficients of 1/sqrt(1-x).
    """
    if n < 1:
        raise InputError("need n >= 1")
    return Fraction(math.comb(2 * n - 2, n - 1), 4 ** (n - 1))


def sqrt_series_coefficients(count: int) -> list:
    """Taylor coefficients of 1/sqrt(1-x), degrees 0..count-1."""
    out = [Fraction(1)]
    for k in range(1, count):
        out.append(out[-1] * Fraction(2 * k - 1, 2 * k))
    return out


class SymplecticReport(NamedTuple):
    """Result of testing the alternating-sum constraints S_1..S_max."""

    max_order: int
    residuals: Tuple[Fraction, ...]  # S_1, S_2, ..., S_max
    violations: Tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def symplectic_check(expansion: LaurentExpansion,
                     max_order: int) -> SymplecticReport:
    """S_m = sum_k (-1)^k C(m-1,k) gamma_(m+k), m = 1..max_order, reading
    gamma_0..gamma_(2 max_order - 1): sums over the integer numerators,
    one Fraction over the expansion's scale per residual."""
    nums, scale = expansion.numerators, expansion.scale
    if not 1 <= max_order <= len(nums) // 2:  # R = 0 would pass vacuously
        raise InputError(f"S_1..S_R read 2R >= 2 coefficients, got R = "
                         f"{max_order} and {len(nums)} coefficients")
    residuals = []
    signed = [1]  # (-1)^k C(m-1, k) for k = 0..m-1
    for m in range(1, max_order + 1):
        residuals.append(Fraction(sum(map(mul, signed, nums[m:])), scale))
        signed = list(map(sub, signed + [0], [0] + signed))
    violations = tuple(m for m, s in enumerate(residuals, start=1) if s)
    return SymplecticReport(max_order, tuple(residuals), violations)
