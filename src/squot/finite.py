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
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import (PrimitiveCoverFailure, TheoremInconsistency)
from .exact import (SLACK, FactoredDenominator, LaurentExpansion,
                    RationalFunction, TruncatedSeries, _repunit,
                    check_reciprocity, laurent_at_one,
                    rational_reconstruct)

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


class FiniteDiagonalGroup(NamedTuple):
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


def _character_axes(columns, mod: int):
    """The character group H, the closure of `columns` mod `mod`, as
    Z/n_1 x ... x Z/n_r with n_1 ... n_r = |H|: (the radices n_k, the
    mixed-radix index of every character, digit k of weight
    n_1 ... n_(k-1)).

    Greedy: the next basis element is one of largest order whose powers
    meet the span of the earlier ones only in 0.  Its class is then one
    of largest order in the quotient, so the orders multiply to |H|.
    """
    order = {h: element_order(h, mod) for h in _closure(columns, mod)}
    characters = sorted(order, key=order.get, reverse=True)
    exponent = order[characters[0]]
    divisors = [d for d in range(1, exponent) if exponent % d == 0]
    index = {characters[-1]: 0}  # the span so far; the last is 0
    radices = []
    while len(index) < len(characters):
        gen = next(h for h in characters if not any(
            tuple(d * x % mod for x in h) in index
            for d in divisors if d < order[h] and order[h] % d == 0))
        radix = order[gen]
        stride, span = len(index), list(index.items())
        for j in range(1, radix):
            shift = tuple(j * x % mod for x in gen)
            for h, i in span:
                index[tuple((a + b) % mod for a, b in zip(h, shift))] = \
                    i + j * stride
        radices.append(radix)
    return tuple(radices), index


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
    the residue sum(g_i (alpha_i - beta_i)) mod N vanishes.  Coordinate
    i contributes the column c_i = (g_i for each generator g) to that
    residue vector, so the vectors reached are the characters of the
    group, the closure H of the columns, with |H| = |G|.  H is written as
    Z/n_1 x ... x Z/n_r and the count at each degree is one int of |H|
    lanes in mixed radix, the trivial character in lane 0.  Each of the
    2n steps +-c_i multiplies by 1/(1 - x chi): P[d] += rot(P[d - 1]),
    where rot rotates each axis by the step's digit on it.

    A lane at degree d counts monomials of degree d in the variables
    stepped so far, at most C(order + 2n - 1, 2n - 1), the number of
    all monomials of degree `order` in 2n variables; the lanes are that
    number's bit length wide.  No lane is negative and every sum is a
    final lane value, so no lane carries into the next.
    """
    n, mod = group.dimension, group.exponent
    columns = list(zip(*group.generators))
    radices, index = _character_axes(columns, mod)
    width = math.comb(order + 2 * n - 1, 2 * n - 1).bit_length()
    steps = []
    for step in columns + [tuple(-x % mod for x in c) for c in columns]:
        i, moves, stride = index[step], [], 1
        for radix in radices:
            i, t = divmod(i, radix)
            if t:
                moves.append(_rotation(len(index), width, radix, stride, t))
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


class FiniteGroupResult(NamedTuple):
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

