"""Invariant series of finite diagonal abelian subgroups of U(n).

A group is given by generators diag(zeta_m^e_1, ..., zeta_m^e_n).  With
N the lcm of the generator moduli (the group exponent), every element is
stored as an integer exponent vector mod N: entry k stands for
e^(2 pi i k / N).  The quotient acts on the doubled space
(z, conjugate z), so its Hilbert series counts pairs of monomials with
opposite characters.  One Smith normal form of the generators writes
both the group and its character group as Z/n_1 x ... x Z/n_r.

Beyond the exact series, the module evaluates closed forms for the
Laurent coefficients at x = 1 in terms of the pseudoreflections of the
group (elements moving exactly one coordinate) and checks the series
against them, sharing the contribution of elements that move exactly
two coordinates between the gamma_4 and gamma_5 formulas.  One census
of the elements counts K_i, the elements moving at most coordinate i:
g -> g_i embeds it in Z/N, so it is cyclic, and its primitive
pseudoreflections have order |K_i|.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import InputError
from .exact import (SLACK, FactoredDenominator, LaurentExpansion,
                    RationalFunction, TruncatedSeries, _repunit,
                    check_reciprocity, laurent_at_one,
                    rational_reconstruct)
from .laurent import check_closed_forms

#: Exponents mod the group exponent N, one per coordinate.
Element = Tuple[int, ...]


def element_order(g: Element, exponent: int) -> int:
    """Order of an element of a group of exponent N = `exponent`."""
    return exponent // math.gcd(exponent, *g)


def _smith(rows, mod: int):
    """(d, w) with rows = U diag(d) W, U and W unimodular: a Smith
    normal form, its diagonal d_1 | d_2 | ... cut at the first zero and
    the rows of W mod `mod`.  Each column operation on the rows is
    applied inverted to the rows of W, at first the identity; row
    operations leave W alone."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    d = []
    for t in range(min(m, n)):
        while True:
            pivots = [(abs(x), i, j) for i in range(t, m)
                      for j, x in enumerate(a[i][t:], t) if x]
            if not pivots:
                return d, w
            _, i, j = min(pivots)  # the smallest entry left, to (t, t)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            w[t], w[j] = w[j], w[t]
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
                w[t] = [(x + q * y) % mod for x, y in zip(w[t], w[j])]
            if any(a[t][t + 1:]) or any(row[t] for row in a[t + 1:]):
                continue  # a remainder left, smaller than p
            # p must divide what is left: else add a row it does not
            # divide, whose remainder is then smaller than p
            bad = [row for row in a[t + 1:] if any(x % p for x in row)]
            if not bad:
                break
            a[t] = [x + y for x, y in zip(a[t], bad[0])]
        d.append(abs(p))
    return d, w


class FiniteDiagonalGroup(NamedTuple):
    """Closure of a set of diagonal unitary generators."""

    dimension: int
    exponent: int                    # N, the lcm of the generator moduli
    generators: Tuple[Element, ...]  # as given, each scaled to mod N
    elements: Tuple[Element, ...]
    radices: Tuple[int, ...]         # n_1, n_2, ...: n_(k+1) | n_k > 1
    characters: Tuple[Tuple[int, ...], ...]  # coordinate i's digits

    @staticmethod
    def from_generators(generators) -> "FiniteDiagonalGroup":
        """generators: iterable of (modulus, exponent tuple).

        With the generators mod N the rows of A = U diag(d) W (`_smith`),
        the group is Z/n_1 x ... x Z/n_r, n_k = N / gcd(N, d_k) > 1 its
        invariant factors: each element is one sum of j_k d_k W_k with
        0 <= j_k < n_k.  So is the character group, spanned by the
        columns c_i of A: A v = 0 mod N iff (W v)_k = 0 mod n_k for all
        k, so c_i has the digit W_k[i] mod n_k on axis k.
        """
        generators = list(generators)
        if any(m < 1 for m, _ in generators):
            raise InputError("modulus must be >= 1")
        if not generators:
            raise InputError("need at least one generator")
        n = len(generators[0][1])
        if any(len(e) != n for _, e in generators):
            raise InputError("generators act on different dimensions")
        exponent = math.lcm(*(m for m, _ in generators))
        gens = tuple(tuple(x * (exponent // m) % exponent for x in e)
                     for m, e in generators)
        d, w = _smith(gens, exponent)
        axes = [(exponent // math.gcd(exponent, dk), dk, wk)
                for dk, wk in zip(d, w) if dk % exponent]
        elements = [(0,) * n]
        for radix, dk, wk in axes:
            elements = [tuple((x + j * dk * y) % exponent
                              for x, y in zip(e, wk))
                        for j in range(radix) for e in elements]
        characters = tuple(tuple(wk[i] % radix for radix, _, wk in axes)
                           for i in range(n))
        return FiniteDiagonalGroup(n, exponent, gens, tuple(sorted(elements)),
                                   tuple(r for r, _, _ in axes), characters)

    @property
    def order(self) -> int:
        return len(self.elements)

    def coordinate_orders(self) -> Tuple[int, ...]:
        """Order of the character of each coordinate over the group."""
        return tuple(element_order([g[i] for g in self.generators],
                                   self.exponent)
                     for i in range(self.dimension))


def _rotation(lanes: int, width: int, radix: int, stride: int, t: int):
    """(lo, hi, up, down) that move the lanes of a packed int of `lanes`
    lanes `width` bits wide by t along the axis of `radix` and `stride`:
    ((P & lo) << up) | ((P & hi) >> down)."""
    block = radix * stride * width
    copies = _repunit(block, lanes // (radix * stride))
    up, down = t * stride * width, (radix - t) * stride * width
    low = (1 << down) - 1
    return (low * copies, ((1 << block) - 1 - low) * copies, up, down)


def invariant_counts(group: FiniteDiagonalGroup, order: int) -> list:
    """Number of invariant monomials in (z, conjugate z) per total degree.

    A monomial z^alpha zbar^beta is invariant iff for every generator g
    the residue sum(g_i (alpha_i - beta_i)) mod N vanishes: iff its
    character, the sum of the characters c_i of z_i and -c_i of zbar_i,
    is trivial.  The character group H is Z/n_1 x ... x Z/n_r (the
    group's radices, |H| = |G|), c_i has the digits characters[i], and
    the count at each degree is one int of |H| lanes in mixed radix, the
    trivial character in lane 0.  Each of the 2n steps +-c_i multiplies
    by 1/(1 - x chi): P[d] += rot(P[d - 1]), where rot rotates each axis
    by the step's digit on it.

    A lane at degree d counts monomials of degree d in the variables
    stepped so far, at most C(order + 2n - 1, 2n - 1), the number of
    all monomials of degree `order` in 2n variables; the lanes are that
    number's bit length wide.  No lane is negative and every sum is a
    final lane value, so no lane carries into the next.
    """
    n, radices = group.dimension, group.radices
    width = math.comb(order + 2 * n - 1, 2 * n - 1).bit_length()
    steps = []
    for sign in (1, -1):
        for c in group.characters:
            moves, stride = [], 1
            for radix, t in zip(radices, c):
                if t:
                    moves.append(_rotation(group.order, width, radix,
                                           stride, sign * t % radix))
                stride *= radix
            steps.append(moves)
    packed = [1] + [0] * order
    for moves in steps:
        prev, stepped = 1, [1]
        for p in packed[1:]:
            for lo, hi, up, down in moves:
                prev = (prev & lo) << up | (prev & hi) >> down
            prev += p
            stepped.append(prev)
        packed = stepped
    low = (1 << width) - 1
    return [p & low for p in packed]


def molien_series(group: FiniteDiagonalGroup) -> RationalFunction:
    """Exact Hilbert series of the doubled invariant ring.

    The denominator ansatz prod_i (1 - x^(m_i))^2, with m_i the order of
    coordinate i, always admits a polynomial numerator because z_i^(m_i)
    and its conjugate are invariant.  Every coefficient of the result is
    checked against the reciprocity H(1/x) = x^(2n) H(x).
    """
    moduli = group.coordinate_orders()
    den = FactoredDenominator.from_pairs((m, 2) for m in moduli)
    bound = den.degree
    counts = invariant_counts(group, bound + SLACK)
    prefix = TruncatedSeries(tuple(counts))
    num = rational_reconstruct(prefix, den, bound)
    series = RationalFunction(num, den)
    # the group lies in SL(2n) (Watanabe), so H(1/x) = x^(2n) H(x)
    check_reciprocity(series, 2 * group.dimension,
                      f"group of order {group.order}")
    return series


class ReflectionData(NamedTuple):
    """Pseudoreflection bookkeeping for one group."""

    primitive_orders: Tuple[int, ...]  # |K_i| of each moved axis i
    reflection_count: int
    two_coordinate_count: int


def reflection_analysis(group: FiniteDiagonalGroup) -> ReflectionData:
    """Pseudoreflection data from one census of the elements.

    K_i, the elements moving at most coordinate i, embeds in Z/N by
    g -> g_i, so it is cyclic: its |K_i| - 1 nontrivial elements are the
    pseudoreflections on axis i, and the primitive ones, which generate
    it, have order |K_i|, the largest there.
    """
    sizes, two = [1] * group.dimension, 0  # |K_i|, identity included
    for g in group.elements:
        moved = [i for i, x in enumerate(g) if x]
        if len(moved) == 1:
            sizes[moved[0]] += 1
        two += len(moved) == 2
    orders = tuple(k for k in sizes if k > 1)
    return ReflectionData(orders, sum(orders) - len(orders), two)


class FiniteGroupResult(NamedTuple):
    group: FiniteDiagonalGroup
    series: RationalFunction
    laurent: LaurentExpansion
    reflections: ReflectionData
    gammas: Tuple[Fraction, ...]  # closed forms; gamma_4 = series value
    q_contribution: Fraction      # shared two-coordinate term in gamma_4/5


def analyze_group(group: FiniteDiagonalGroup) -> FiniteGroupResult:
    """Series, Laurent data and closed-form coefficients for one group.

    gamma_0..gamma_3 are evaluated directly from the pseudoreflection
    orders.  gamma_4 and gamma_5 share an unknown contribution q of the
    elements moving two coordinates, solved from gamma_4, the series
    value, so gamma_4 is certified only through gamma_5, whose closed
    form moves by 2/|G| with it (gamma_3 - 2 gamma_4 + gamma_5 = 0 holds
    term by term in m).  One check compares the pole order with 2n, and
    gamma_0..gamma_3 and gamma_5 with their closed forms.
    """
    series = molien_series(group)
    expansion = laurent_at_one(series, 5)
    refl = reflection_analysis(group)
    size = group.order
    g0, g1 = Fraction(1, size), Fraction(0)
    g2 = Fraction(sum(m * m - 1 for m in refl.primitive_orders), 12 * size)
    quart1 = sum(-m ** 4 + 50 * m * m - 49 for m in refl.primitive_orders)
    quart2 = sum(-2 * m ** 4 + 40 * m * m - 38 for m in refl.primitive_orders)
    g4 = Fraction(expansion.numerators[4], expansion.scale)
    q_sum = size * g4 - Fraction(quart1, 720)
    g5 = Fraction(quart2, 720) / size + 2 * q_sum / size
    check_closed_forms(expansion, {0: g0, 1: g1, 2: g2, 3: g2, 5: g5},
                       f"group of order {size}",
                       pole_order=2 * group.dimension)
    return FiniteGroupResult(group, series, expansion, refl,
                             (g0, g1, g2, g2, g4, g5), q_sum)
