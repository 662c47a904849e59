"""Invariant series of finite diagonal abelian subgroups of U(n).

A group is given by generators diag(zeta_m^e_1, ..., zeta_m^e_n).  With
N the lcm of the generator moduli (the group exponent), every element is
stored as an integer exponent vector mod N: entry k stands for
e^(2 pi i k / N).  The quotient acts on the doubled space
(z, conjugate z), so its Hilbert series counts pairs of monomials with
opposite characters.

Beyond the exact series, the module evaluates closed forms for the
Laurent coefficients at x = 1 in terms of the pseudoreflections of the
group (elements moving exactly one coordinate) and cross-checks them
against the series, sharing the contribution of elements that move
exactly two coordinates between the gamma_4 and gamma_5 formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Tuple

from .errors import (PrimitiveCoverFailure, TheoremInconsistency)
from .exact import (SLACK, FactoredDenominator, LaurentExpansion,
                    RationalFunction, TruncatedSeries, check_reciprocity,
                    laurent_at_one, rational_reconstruct)

#: Exponents mod the group exponent N, one per coordinate.
Element = Tuple[int, ...]


def element_order(g: Element, exponent: int) -> int:
    """Order of an element of a group of exponent N = `exponent`."""
    return exponent // math.gcd(exponent, *g)


def _support(g: Element) -> Tuple[int, ...]:
    return tuple(i for i, x in enumerate(g) if x)


def _closure(vectors, mod: int) -> Tuple[Tuple[int, ...], ...]:
    """Sorted additive closure mod `mod` of nonempty integer vectors of
    one length: every sum of them, the zero vector included."""
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


@dataclass(frozen=True)
class FiniteDiagonalGroup:
    """Closure of a set of diagonal unitary generators."""

    dimension: int
    exponent: int                    # N, the lcm of the generator moduli
    generators: Tuple[Element, ...]  # as given, each scaled to mod N
    elements: Tuple[Element, ...]

    @staticmethod
    def from_generators(generators) -> "FiniteDiagonalGroup":
        """generators: iterable of (modulus, exponent tuple)."""
        generators = list(generators)
        if any(m < 1 for m, _ in generators):
            raise ValueError("modulus must be >= 1")
        if not generators:
            raise ValueError("need at least one generator")
        n = len(generators[0][1])
        if any(len(e) != n for _, e in generators):
            raise ValueError("generators act on different dimensions")
        exponent = math.lcm(*(m for m, _ in generators))
        gens = tuple(tuple(x * (exponent // m) % exponent for x in e)
                     for m, e in generators)
        return FiniteDiagonalGroup(n, exponent, gens, _closure(gens, exponent))

    @property
    def order(self) -> int:
        return len(self.elements)

    def coordinate_orders(self) -> Tuple[int, ...]:
        """Order of the character of each coordinate over the group."""
        return tuple(element_order([g[i] for g in self.generators],
                                   self.exponent)
                     for i in range(self.dimension))

    def pseudoreflections(self) -> Tuple[Element, ...]:
        return tuple(g for g in self.elements if len(_support(g)) == 1)

    def two_coordinate_elements(self) -> Tuple[Element, ...]:
        return tuple(g for g in self.elements if len(_support(g)) == 2)


def invariant_counts(group: FiniteDiagonalGroup, order: int) -> list:
    """Number of invariant monomials in (z, conjugate z) per total degree.

    A monomial z^alpha zbar^beta is invariant iff for every generator g
    the residue sum(g_i (alpha_i - beta_i)) mod N vanishes.  Coordinate
    i contributes the column c_i = (g_i for each generator g) to that
    residue vector, so the vectors reached are the characters of the
    group: the closure of the columns, at most |G| of them.  Counting
    keeps one list per degree, indexed by character, and multiplies it
    by 1/(1 - x chi) for each of the 2n steps chi = +-c_i, one pass over
    the characters per (step, degree).
    """
    mod = group.exponent
    columns = list(zip(*group.generators))
    characters = _closure(columns, mod)
    index = {h: j for j, h in enumerate(characters)}
    trivial = index[(0,) * len(group.generators)]
    dp = [[0] * len(characters) for _ in range(order + 1)]
    dp[0][trivial] = 1
    for step in columns + [tuple(-x for x in c) for c in columns]:
        # character j is reached from the one at index src[j]
        src = [index[tuple((a - b) % mod for a, b in zip(h, step))]
               for h in characters]
        for d in range(1, order + 1):
            dp[d] = list(map(add, dp[d], map(dp[d - 1].__getitem__, src)))
    return [layer[trivial] for layer in dp]


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


@dataclass(frozen=True)
class ReflectionData:
    """Pseudoreflection bookkeeping for one group."""

    primitive: Tuple[Element, ...]       # one generator per moved axis
    primitive_orders: Tuple[int, ...]
    reflection_count: int
    two_coordinate_count: int


def reflection_analysis(group: FiniteDiagonalGroup) -> ReflectionData:
    """Pick one maximal-order pseudoreflection per axis and check that
    its powers account for every pseudoreflection on that axis."""
    refs = group.pseudoreflections()
    by_axis: dict = {}
    for g in refs:
        by_axis.setdefault(_support(g)[0], []).append(g)
    primitive = []
    mod = group.exponent
    for axis in sorted(by_axis):
        best = min(by_axis[axis],
                   key=lambda g: (-element_order(g, mod), g))
        # the powers of best on this axis are the multiples of this step
        step = math.gcd(best[axis], mod)
        for g in by_axis[axis]:
            if g[axis] % step:
                raise PrimitiveCoverFailure(
                    f"axis {axis}: {g} is not a power of {best}")
        primitive.append(best)
    return ReflectionData(tuple(primitive),
                          tuple(element_order(g, mod) for g in primitive),
                          len(refs), len(group.two_coordinate_elements()))


@dataclass(frozen=True)
class FiniteGroupResult:
    group: FiniteDiagonalGroup
    series: RationalFunction
    laurent: LaurentExpansion
    reflections: ReflectionData
    gammas: Tuple[Fraction, ...]  # gamma_0..gamma_5 closed forms
    q_contribution: Fraction      # shared two-coordinate term in gamma_4/5


def analyze_group(group: FiniteDiagonalGroup) -> FiniteGroupResult:
    """Series, Laurent data and closed-form coefficients for one group.

    gamma_0..gamma_3 are evaluated directly from the pseudoreflection
    orders.  gamma_4 and gamma_5 share an unknown contribution of the
    elements moving two coordinates; it is solved from the series value
    of gamma_4 and must then reproduce gamma_5 exactly, and the identity
    gamma_3 - 2 gamma_4 + gamma_5 = 0 must hold.
    """
    series = molien_series(group)
    expansion = laurent_at_one(series, 5)
    if expansion.pole_order != 2 * group.dimension:
        raise TheoremInconsistency(
            f"pole order {expansion.pole_order} != 2n")
    refl = reflection_analysis(group)
    size = group.order
    quad = sum(m * m - 1 for m in refl.primitive_orders)
    g0 = Fraction(1, size)
    g1 = Fraction(0)
    g2 = Fraction(quad, 12 * size)
    quart1 = sum(-m ** 4 + 50 * m * m - 49 for m in refl.primitive_orders)
    quart2 = sum(-2 * m ** 4 + 40 * m * m - 38 for m in refl.primitive_orders)
    engine_g4 = expansion.coefficients[4]
    q_sum = size * engine_g4 - Fraction(quart1, 720)
    g4 = Fraction(quart1, 720) / size + q_sum / size
    g5 = Fraction(quart2, 720) / size + 2 * q_sum / size
    gammas = (g0, g1, g2, g2, g4, g5)
    for k, (want, got) in enumerate(zip(gammas, expansion.coefficients)):
        if want != got:
            raise TheoremInconsistency(
                f"gamma_{k}: closed form {want} != series value {got}")
    if g2 - 2 * g4 + g5 != 0:
        raise TheoremInconsistency(
            "identity gamma_3 - 2 gamma_4 + gamma_5 = 0 fails")
    return FiniteGroupResult(group, series, expansion, refl, gammas, q_sum)

