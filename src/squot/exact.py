"""Exact rational, polynomial, power-series and Laurent arithmetic.

Everything here is pure and exact: a numerator is an integer polynomial
(every denominator is a product of (1 - x^m)^e, constant term 1),
Laurent data are integers over one shared scale, equality is decidable,
and no operation ever rounds.  A rational function keeps its
denominator as one canonical list of signed (1 - x^m) exponents (a
cyclotomic Psi_d brings some e < 0), and every product with or quotient
by it runs as (1 - x^m) passes.  Laurent data
at x = 1 are a division in w = u^2 / (1 - u), u = 1 - x, on half as
many terms as in u: every [m]_x = (1 - x^m) / (1 - x) is palindromic,
a power of x times a polynomial in w up to a factor 1 + x.  The
higher-level modules build Hilbert series out of these primitives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, cycle, islice, repeat
from operator import add, mul, neg, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, ReciprocityMismatch, ReconstructionMismatch

#: Number of extra verified coefficients in rational reconstruction.
SLACK = 16

#: Passes after the first with m below this are folded into the start
#: of `_packed_multisection`, with the second pass whatever its m; it
#: also bounds the lcm of the folded passes, the row length they need.
#: Measured: from 4 to 8 the packed rows take about the same time, and
#: below 4 smaller m land in rows of few lanes; above 8 the lcm grows.
PACKED_MIN_M = 6


def cleared(coeffs: Sequence):
    """(scale, ints): the coefficients times the lcm of their denominators."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _strip(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class QPolynomial:
    """Dense univariate polynomial over Z: a tuple of int coefficients,
    indexed by degree, with no trailing zeros.  A float, Fraction or
    Decimal among them makes their sum no int and raises TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        if type(sum(coeffs)) is not int:
            raise TypeError("QPolynomial coefficients must be ints")
        self.coeffs = _strip(coeffs)

    @staticmethod
    def monomial(degree: int, coeff: int = 1) -> "QPolynomial":
        return QPolynomial([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


def _times_binomial(c: list, m: int, e: int) -> None:
    """c times (1 - x^m)^e, truncated, in place: one `map(sub)` per factor
    for e > 0, else one running sum per residue class mod m, or one
    `map(add)` up to 2m coefficients, where 1 / (1 - x^m) = 1 + x^m."""
    for _ in range(e):
        c[m:] = map(sub, c[m:], c[:-m])
    for _ in range(-e):
        if len(c) <= 2 * m:
            c[m:] = map(add, c[m:], c[:-m])
        else:
            for r in range(m):
                c[r::m] = accumulate(c[r::m])


def _netted(pairs: Iterable, least=-math.inf) -> tuple:
    """Sorted (m, e), e != 0, summed over equal m; m >= 1, e >= least."""
    acc: dict = {}
    for m, e in pairs:
        if m < 1 or e < least:
            raise InputError(f"factors need m >= 1, e >= {least}")
        acc[m] = acc.get(m, 0) + e
    return tuple(sorted((m, e) for m, e in acc.items() if e))


class FactoredDenominator(NamedTuple):
    """A denominator as one sorted, signed list of (1 - x^m) exponents,
    the passes that every product runs through.  A cyclotomic Psi_d
    enters as prod (1 - x^j)^mu(d/j) (`from_psi`), so an e < 0 divides
    the other passes; each 1 - x^m brings in a new Psi_m, so equal
    polynomials have equal lists."""

    factors: tuple  # sorted tuple of (m, e) pairs, m >= 1, e != 0

    @staticmethod
    def from_pairs(pairs: Iterable) -> "FactoredDenominator":
        """prod (1 - x^m)^e over the (m, e) pairs, e >= 1."""
        return FactoredDenominator(_netted(pairs, 1))

    @staticmethod
    def from_psi(pairs: Iterable) -> "FactoredDenominator":
        """prod Psi_d^e over the (d, e) pairs, e >= 0 (`_psi_passes`)."""
        return FactoredDenominator(_netted(
            (j, mu * e) for d, e in pairs for j, mu in _psi_passes(d)))

    def psi_exponents(self) -> dict:
        """{d: e} for prod Psi_d^e, as 1 - x^m = prod_(d | m) Psi_d."""
        exps: dict = {}
        for m, e in self.factors:
            for d in _divisors(m):
                exps[d] = exps.get(d, 0) + e
        return exps

    @property
    def degree(self) -> int:
        return sum(m * e for m, e in self.factors)

    def expand(self) -> QPolynomial:
        return QPolynomial(self.times([1]))

    def times(self, coeffs: Sequence) -> list:
        """The coefficients times the expanded denominator, in full."""
        return self.multiply_into(list(coeffs) + [0] * self.degree)

    def multiply_into(self, coeffs: Sequence) -> list:
        """Multiply a coefficient list by the expanded denominator,
        truncated to the same length; works on a copy."""
        out = list(coeffs)
        for m, e in self.factors:
            _times_binomial(out, m, e)
        return out


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


@lru_cache(maxsize=None)
def _psi_passes(d: int) -> tuple:
    """Psi_d as prod (1 - x^j)^mu(d/j): 1 - x^d over the Psi_k of the
    proper divisors k of d.  Psi_1 = 1 - x; for d >= 2 it is the d-th
    cyclotomic polynomial."""
    net = {d: 1}
    for k in _divisors(d)[:-1]:
        for j, e in _psi_passes(k):
            net[j] = net.get(j, 0) - e
    return tuple(sorted((j, e) for j, e in net.items() if e))


def _divide_binomial(c: list, m: int):
    """Exact quotient of the coefficients c (constant term first, last
    entry nonzero) by (1 - x^m), or None if not divisible."""
    d = len(c) - 1 - m
    if d < 0:
        return None
    q = c[:d + 1]
    _times_binomial(q, m, -1)
    # the top m coefficients of q * (1 - x^m) are -q[d+1-m:], zero-padded
    if c[d + 1:] != [0] * (m - d - 1) + [-t for t in q[max(d + 1 - m, 0):]]:
        return None
    return q


def _divide_psi(c: list, d: int):
    """Exact quotient of c (last entry nonzero) by Psi_d, or None.

    c / Psi_d = c B- / B+, B+- the (1 - x^j) of Psi_d with mu(d/j) = +-1.
    c B- is divisible by B+ = Psi_d B- exactly when Psi_d divides c, and
    the first division, by 1 - x^d, decides it: B- holds every Psi_k,
    k a proper divisor of d.  A c longer than d is tested first on its
    fold modulo x^d - 1, a multiple of Psi_d: cheaper when it fails.
    """
    if len(c) > d:
        fold = list(_strip([sum(c[i::d]) for i in range(d)]))
        if fold and _divide_psi(fold, d) is None:
            return None
    passes = _psi_passes(d)
    for j, mu in passes:
        if mu < 0:
            c = c + [0] * j
            _times_binomial(c, j, 1)
    for j, mu in reversed(passes):
        if mu > 0 and (c := _divide_binomial(c, j)) is None:
            return None
    return c


def peel_common(f: RationalFunction) -> RationalFunction:
    """Cancel whole (1 - x^m) factors shared by numerator and denominator,
    in the numerator's integer coefficients; a pass e < 0 leaves f as it
    is, as the rest may be no polynomial."""
    if any(e < 0 for _, e in f.denominator.factors):
        return f
    num = list(f.numerator.coeffs)
    pairs = []
    for m, e in f.denominator.factors:
        while e and (quo := _divide_binomial(num, m)) is not None:
            num, e = quo, e - 1
        if e:
            pairs.append((m, e))
    numerator = (QPolynomial(num) if len(num) < len(f.numerator.coeffs)
                 else f.numerator)
    return RationalFunction(numerator, FactoredDenominator(tuple(pairs)))


class RationalFunction(NamedTuple):
    """Exact quotient of a polynomial by a factored denominator."""

    numerator: QPolynomial
    denominator: FactoredDenominator

    def reduce(self) -> "RationalFunction":
        """Lowest terms over the passes of the Psi_d left.

        Whole (1 - x^m) factors are cancelled first (`peel_common`),
        then single Psi_d of the `psi_exponents` (`_divide_psi`), in the
        numerator's own coefficients, and the Psi_d left become passes
        (`from_psi`); as equal denominators have equal passes, `reduce`
        returns its own output unchanged.  `circle.hilbert_series` runs
        it once, on shell, for repeated weights; every method's off
        shell appends the pass of 1 - x^2 (`circle._off_from_on`).
        """
        if not self.numerator:
            return RationalFunction(self.numerator, FactoredDenominator(()))
        peeled = peel_common(self)
        exps = peeled.denominator.psi_exponents()
        work = list(peeled.numerator.coeffs)
        for d in exps:
            while exps[d] and (quo := _divide_psi(work, d)) is not None:
                work, exps[d] = quo, exps[d] - 1
        return RationalFunction(QPolynomial(work),
                                FactoredDenominator.from_psi(exps.items()))


def reciprocity(f: RationalFunction) -> tuple:
    """(w, sign) with f(1/x) = sign * x^w * f(x), f nonzero.  The passes
    give D(1/x) = (-1)^E x^(-deg D) D(x), E the sum of their exponents;
    a numerator of valuation v and degree d gives N(1/x) =
    delta x^(-v-d) N(x), delta = 1 (-1) if it is (anti)palindromic
    between them, every coefficient compared, else 0.  So
    w = deg D - v - d and sign = delta (-1)^E."""
    num = f.numerator.coeffs
    low = next(k for k, c in enumerate(num) if c)
    body = num[low:]
    rev = body[::-1]
    delta = 1 if body == rev else -1 if body == tuple(map(neg, rev)) else 0
    return (f.denominator.degree - low - f.numerator.degree,
            delta * (-1) ** sum(e for _, e in f.denominator.factors))


def check_reciprocity(f: RationalFunction, shift: int, label: str) -> None:
    """Raise ReciprocityMismatch unless f(1/x) = x^shift * f(x): unless
    f is zero or its `reciprocity` is (shift, 1)."""
    if f.numerator and reciprocity(f) != (shift, 1):
        raise ReciprocityMismatch(
            f"{label}: H(1/x) = x^{shift} H(x) fails for numerator "
            f"degree {f.numerator.degree} over {f.denominator.factors}")


class TruncatedSeries(NamedTuple):
    """Exact power-series prefix: coefficients for degrees 0..order."""

    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


class LaurentExpansion(NamedTuple):
    """Sum_k gamma_k (1-x)^(k - pole_order), gamma_k = numerators[k] / scale
    with scale > 0, not normalised: compare records by `coefficients`."""

    pole_order: int
    numerators: tuple
    scale: int

    @property
    def coefficients(self) -> tuple:  # gamma_0..gamma_K as Fractions
        return tuple(Fraction(n, self.scale) for n in self.numerators)


def _expand_factored(num: QPolynomial, den: FactoredDenominator,
                     order: int) -> list:
    """Taylor coefficients 0..order of num / den: the numerator, padded
    to the order, with each pass (1 - x^m)^e divided out
    (`_times_binomial`)."""
    coeffs = list(num.coeffs[:order + 1])
    coeffs += repeat(0, order + 1 - len(coeffs))
    for m, e in den.factors:
        _times_binomial(coeffs, m, -e)
    return coeffs


def _cut_rows(rows: list, held: int, wanted: int, count: int) -> list:
    """`count` ints of `wanted` bits each, cut in order from the bits of
    `rows`, ints of `held` bits each, lowest bits first; zero bits pad
    the end.  One carry holds the bits read but not yet cut."""
    mask, out = (1 << wanted) - 1, []
    carry = have = 0
    for row in rows:
        carry |= row << have
        have += held
        while have >= wanted:
            out.append(carry & mask)
            carry >>= wanted
            have -= wanted
    out.append(carry)
    out += repeat(0, count - len(out))
    del out[count:]
    return out


def _repunit(shift: int, n: int) -> int:
    """sum 2^(shift i) over 0 <= i < n: n ones, `shift` bits apart."""
    return ((1 << shift * n) - 1) // ((1 << shift) - 1)


def _packed_multisection(c: int, v: int, passes: list, order: int,
                         a: int) -> list:
    """Coefficients 0, a, 2a, ..., of c * x^v / prod (1 - x^m) up to
    degree `order`, for the sorted passes m, one per factor.

    The series of |c| * x^v / prod (1 - x^m) is held in fixed-width
    lanes, lane k for degree k, as a list of ints, each one row of m
    lanes for the pass m at hand.  Its coefficient at degree n counts
    the solutions of sum j_i m_i = n - v in j_i >= 0.  With all j_i
    fixed but those of two passes p and q, two solutions have j_p
    differing by a multiple of lcm(m_p, m_q) / m_p, so at most
    n // lcm(m_p, m_q) + 1 remain: the coefficient is at most
    |c| * (n // lcm(m_p, m_q) + 1) * prod (n // m_i + 1) over the other
    passes.  The least of these bounds over all pairs, taken at degree
    `order`, the highest read, has the bit length of the lanes.  Every
    lane holds a nonnegative value no larger than the final coefficient
    of its degree, so up to `order` adding rows never carries from one
    lane into the next: dividing by (1 - x^m) is a running sum of the
    rows, one bigint add per row.  The rows of the next, larger m are
    cut from these rows' bits (`_cut_rows`), which moves whole lanes
    and adds none.  A lane of a higher degree (the padding of the last
    row, or the start's int below) may outgrow the width: it is never
    read, and sums, products and cuts only move its bits to higher
    degrees still.

    The first pass and the next ones, folded below, are written down at
    once.  The folded passes q are the second and any other below
    PACKED_MIN_M; the rows have m lanes, the multiple of their lcm at
    most the next pass (or their lcm).  They start out holding
    |c| x^v prod G_q / (1 - x^first), G_q = 1 + x^q + ... + x^(m - q),
    and one running sum for each q then divides by 1 - x^m = G_q
    (1 - x^q).  G_q is below 1 / (1 - x^q) term by term, so no lane
    exceeds its final value.  Whole rows below v are zero.  From
    degree v + sum (m - q) on, each coefficient of the product depends
    on its degree mod `first` only, so every row past the head rows
    below that degree is one of first / gcd(first, m) shapes.  Head
    rows and shapes are all cut from one int of the product through
    the head, one period and one row more.  Only every a-th lane is
    read back.
    """
    size, first = order + 1, passes[0]
    if v > order:
        return [0] * len(range(0, size, a))
    counts = [order // m + 1 for m in passes]
    whole = math.prod(counts)
    bound = abs(c) * min((whole // (counts[i] * counts[j])
                          * (order // math.lcm(passes[i], passes[j]) + 1)
                          for i, j in combinations(range(len(passes)), 2)),
                         default=1)
    lane = bound.bit_length()
    fold = passes[1:max(2, bisect_left(passes, PACKED_MIN_M))]
    rest = passes[1 + len(fold):]
    step = math.lcm(*fold)
    m = max(1, rest[0] // step) * step if rest else max(step, first)
    zeros, v = divmod(v, m)
    count = -(-size // m) - zeros
    head = min(-(-(v + sum(m - q for q in fold)) // m), count)
    span = head * m + first + m
    series = (abs(c) << lane * v) \
        * _repunit(lane * first, len(range(v, span, first)))
    for q in fold:
        series *= _repunit(lane * q, m // q)
    mask = (1 << lane * m) - 1
    rows = [0] * zeros + [series >> lane * m * j & mask for j in range(head)]
    base, period = head * m, first // math.gcd(first, m)
    shapes = [series >> lane * (base + i * m % first) & mask
              for i in range(min(count - head, period))]
    rows += islice(cycle(shapes), count - head)
    for _ in fold:
        rows = list(accumulate(rows))
    for p in rest:
        if p != m:
            rows = _cut_rows(rows, lane * m, lane * p, -(-size // p))
            m = p
        rows = list(accumulate(rows))
    low, sign = (1 << lane) - 1, 1 if c > 0 else -1
    return [sign * (rows[k // m] >> lane * (k % m) & low)
            for k in range(0, size, a)]


def multisected_prefix(f: RationalFunction, a: int, reach: int) -> list:
    """Coefficients 0, a, 2a, ..., a * reach of the Taylor series of f.

    A monomial numerator over one or more (1 - x^m) factors and no
    multiplying pass is expanded over packed integer rows
    (`_packed_multisection`); anything else takes every a-th coefficient
    of `_expand_factored`.
    """
    num, den, order = f.numerator, f.denominator, a * reach
    if (den.factors and all(e > 0 for _, e in den.factors) and num
            and not any(num.coeffs[:-1])):
        passes = [m for m, e in den.factors for _ in range(e)]
        return _packed_multisection(num.coeffs[-1], num.degree, passes,
                                    order, a)
    return _expand_factored(num, den, order)[::a]


def series_of_rational(f: RationalFunction, order: int) -> TruncatedSeries:
    """Taylor coefficients 0..order of f at x = 0, by exact division."""
    if order < 0:
        raise InputError(f"series order must be >= 0, got {order}")
    coeffs = _expand_factored(f.numerator, f.denominator, order)
    return TruncatedSeries(tuple(coeffs))


def _mirrored(window: list, top: int, sign: int) -> list:
    """N_0..N_top from the window N_0..N_r computed from the series.

    Every window entry above `top` must vanish.  With sign = +-1, the
    numerator obeys N_k = sign * N_(top-k): the window must agree with
    that mirror wherever both sides are in it, and the mirror fills in
    N_(r+1)..N_top.  With sign 0 there is no mirror, and the window has
    to reach past `top`.  A failed check raises ReconstructionMismatch.
    Mirror and fill are reversed slices, negated by `map` for sign -1.
    """
    for k in range(top + 1, len(window)):
        if window[k]:
            raise ReconstructionMismatch(
                f"nonzero verification coefficient {window[k]} at "
                f"degree {k}")
    window = window[:top + 1] if len(window) > top + 1 else window
    if not sign:
        return window
    low = top + 1 - len(window)
    mirror, fill = window[low:][::-1], window[:low][::-1]
    if sign < 0:
        mirror, fill = [*map(neg, mirror)], [*map(neg, fill)]
    if window[low:] != mirror:
        k = next(k for k, c in enumerate(mirror, low) if window[k] != c)
        raise ReconstructionMismatch(
            f"coefficient {window[k]} at degree {k} breaks the "
            f"mirror of degree {top - k} ({window[top - k]})")
    return window + fill if low else window


def rational_reconstruct(prefix: TruncatedSeries, den: FactoredDenominator,
                         degree_bound: int) -> QPolynomial:
    """Recover the numerator P with P/den matching the series prefix.

    Every coefficient of prefix*den in degrees degree_bound+1..order must
    vanish (`_mirrored`); at least SLACK such coefficients are required.
    """
    if prefix.order < degree_bound + SLACK:
        raise InputError(
            f"prefix of order {prefix.order} too short for degree bound "
            f"{degree_bound} with slack {SLACK}")
    product = den.multiply_into(prefix.coefficients)
    return QPolynomial(_mirrored(product, degree_bound, 0))


def _power_sums(poly: QPolynomial, count: int) -> list:
    """Power sums p_1..p_count of the roots, by Newton's identities."""
    k = poly.degree
    lead = poly.coeffs[-1]
    # elementary symmetric functions e_1..e_k of the roots
    e = [Fraction(0)] * (k + 1)
    e[0] = Fraction(1)
    for j in range(1, k + 1):
        e[j] = Fraction((-1) ** j) * poly.coeffs[k - j] / lead
    p = [Fraction(0)] * (count + 1)
    for m in range(1, count + 1):
        acc = Fraction(0)
        for j in range(1, min(m - 1, k) + 1):
            acc += Fraction((-1) ** (j - 1)) * e[j] * p[m - j]
        if m <= k:
            acc += Fraction((-1) ** (m - 1)) * e[m] * m
        p[m] = acc
    return p[1:]


def resultant_transform(den: QPolynomial, a: int) -> QPolynomial:
    """Polynomial whose roots are the a-th powers of den's roots: the
    integer resultant Res_z(den(z), z^a - x) = +-lead^a prod (x - r_i^a),
    its sign making the constant term den(0)**a, so products of (1-x^m)
    factors transform into the same shape.  Computed through power sums
    (Newton both ways) in Fractions; it is integral, as a polynomial in
    the integer coefficients of den (a `QPolynomial`) and of z^a - x.
    """
    if a < 1:
        raise InputError("a must be >= 1")
    if not den.coeffs or not den.coeffs[0]:
        raise InputError("denominator must not vanish at 0")
    k = den.degree
    if k == 0:
        return QPolynomial([den.coeffs[0] ** a])
    p = _power_sums(den, a * k)
    q = [p[a * m - 1] for m in range(1, k + 1)]  # power sums of r_i^a
    # invert Newton: elementary symmetric functions f_1..f_k of r_i^a
    f = [Fraction(1)] + [Fraction(0)] * k
    for m in range(1, k + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += Fraction((-1) ** (j - 1)) * f[m - j] * q[j - 1]
        f[m] = acc / m
    monic = [(-1) ** (k - j) * f[k - j] for j in range(k + 1)]
    scale = den.coeffs[0] ** a / monic[0]
    return QPolynomial((c * scale).numerator for c in monic)


def mul_truncated(a: Sequence, b: Sequence, n: int) -> list:
    """First n coefficients of the product of two coefficient lists.

    Integer inputs give integer output.  `circle.residue_cluster` runs it
    on graded tau-series whose coefficients are polynomials in u packed
    into ints, their values at u = 2^width.
    """
    out = [0] * min(n, len(a) + len(b) - 1)
    for i, x in enumerate(a[:n]):
        if x:
            seg = b[:n - i]
            end = i + len(seg)
            out[i:end] = map(add, out[i:end], map(mul, repeat(x), seg))
    return out


def deferred_quotient(a: Sequence, b: Sequence, n: int) -> list:
    """N_0..N_(n-1) with N_k = q_k * b[0]^(k+1), where a/b = sum q_k u^k.

    From q_k b[0] = a_k - sum_j b_j q_(k-j):
    N_k = a_k d0^k - sum_(j=1..k) b_j d0^(j-1) N_(k-j) with d0 = b[0],
    so the whole recurrence stays in the ring of the coefficients.

    `circle.residue_cluster` inverts each kernel factor over packed
    u-polynomials and grades the N_k itself, with no gcd;
    `laurent_prototype` divides by the powers of b[0] in Fractions.
    Over Z with b[0] != +-1 the scale outgrows the quotient;
    `laurent_at_one` keeps a shared one instead (`_shared_quotient`).
    """
    powers = [1]  # d0^k
    for _ in range(n - 1):
        powers.append(powers[-1] * b[0])
    scaled = list(map(mul, b[1:n], powers))  # b_j * d0^(j-1)
    out = []
    for k in range(n):
        head = a[k] * powers[k] if k < len(a) else 0
        out.append(head - sum(map(mul, scaled, reversed(out))))
    return out


def _w_row(m: int, n: int) -> tuple:
    """The first n coefficients in w = (1 - x)^2 / x of [m]_x =
    (1 - x^m) / (1 - x), without its x-power and, for even m, its
    factor 1 + x.  With h = (m - 1) / 2 for odd m, x^(-h) [m]_x has
    m C(h + j, 2j) / (2j + 1) at w^j; for even m, [m]_x =
    (1 + x) [m/2]_(x^2), and x^(1 - m/2) [m/2]_(x^2) has
    C(m/2 + j, 2j + 1)."""
    h = m >> 1
    if m & 1:
        return tuple(m * math.comb(h + j, 2 * j) // (2 * j + 1)
                     for j in range(min(h + 1, n)))
    return tuple(math.comb(h + j, 2 * j + 1) for j in range(min(h, n)))


def _peeled(half: list, odd: bool, n: int) -> list:
    """The first n coefficients t_j of a palindromic integer polynomial
    P in w, from its low half P_0..P_(floor(span/2)).

    For an odd span, P = (1 + x) P' first, P' by alternating sums.  For
    an even span 2k, x^(-k) P = sum t_j w^j: t_j = Q_j(1), and
    Q_(j+1) = (Q_j - t_j x^(k-j)) / (1 - x)^2, two running sums.  Each
    Q_j is palindromic, so only its low half is kept: the subtraction
    lands on the middle entry, which the sums never read.
    """
    if odd:
        half = half[:]
        half[1::2] = map(neg, half[1::2])
        half = list(accumulate(half))
        half[1::2] = map(neg, half[1::2])
    out = []
    for _ in range(n):
        sums = list(accumulate(half[:-1]))
        out.append(2 * sums[-1] + half[-1] if sums else half[-1])
        if not sums:
            break
        half = list(accumulate(sums))
    return out


def _shared_quotient(a: Sequence, b: Sequence, n: int) -> tuple:
    """(W, S): q_k = W_k / S for k < n, where a / b = sum q_k w^k, for
    integers a and b, b[0] > 0.

    One recurrence with a shared denominator S: with
    x = a_k S - sum_j b_j W_(k-j) and g = gcd(x, b_0), q_k = x / (S b_0);
    when g != b_0, S and the window of the last deg b values are
    multiplied by b_0 / g, and W_k = x / g.  S stays the lcm of the
    denominators of q_0..q_k.  A full window lines up with b unsliced;
    each W_k is brought to the final S by the growths after step k.  The
    lists are allocated first, so an n no list can hold fails at once.
    """
    b0, back, depth = b[0], b[:0:-1], len(b) - 1  # back: b_(deg b)..b_1
    shared = 1  # S
    window = []  # W_(k-deg b)..W_(k-1)
    out, grows = [0] * n, [1] * n
    for k in range(n):
        x = (a[k] * shared if k < len(a) else 0) - sum(map(
            mul, back if len(window) == depth else back[depth - len(window):],
            window))
        g = math.gcd(x, b0)
        if g != b0:
            grows[k] = grow = b0 // g
            shared *= grow
            window = [w * grow for w in window]
        out[k] = entry = x // g
        window.append(entry)
        if len(window) > depth:
            del window[0]
    factor = 1
    for k in range(n - 1, -1, -1):
        out[k] *= factor
        factor *= grows[k]
    return out, shared


def _in_u(f_w: list, size: int, shift: int, odd: int) -> list:
    """The first `size` coefficients in u of (1 - u)^shift (2 - u)^odd
    F(w), w = u^2 / (1 - u), for the ceil(size / 2) integers F_j.

    Horner's rule in w: acc <- F_j + u^2 prefix_sums(acc), as
    1 / (1 - u) sums prefixes; at depth j only the terms below
    u^(size - 2j) are kept, as w^j starts at u^(2j): one or two at the
    deepest, two more at each step up.
    """
    acc = [f_w[-1], 0][:2 - size % 2]
    for j in range(len(f_w) - 2, -1, -1):
        acc = [f_w[j], 0, *accumulate(acc)]
    _times_binomial(acc, 1, shift)
    if odd:
        acc[1:] = map(sub, map(mul, repeat(2), acc[1:]), acc[:-1])
        acc[0] *= 2
    return acc


def laurent_at_one(f: RationalFunction, order: int) -> LaurentExpansion:
    """The Laurent data of f at x = 1 in the variable u = 1 - x: the
    pole order and n_0..n_order over one D > 0, gamma_k = n_k / D.

    Every (1 - x^m) is (1 - x) [m]_x, with [m]_x palindromic, so f =
    N / ((1 - x)^E R) for E the sum of the positive pass exponents.  A
    palindromic P of even span 2k is x^k times a polynomial in
    w = x + 1/x - 2 = u^2 / (1 - u), and one of odd span is (1 + x)
    times one of even span; so N / R, less its (1 - x) factors, is a
    series in w up to powers of x = 1 - u and 1 + x = 2 - u, and L
    coefficients in u take ceil(L / 2) in w.  Everything up to the last
    step is integer arithmetic:

    1. the numerator is multiplied by the passes of e < 0 (the
       (1 - x^j) a Psi_d multiplies by), and its x-valuation and
       (1 - x)^v are taken out; the pole order is E - v;
    2. the rest, N, is split into its palindromic part A = (N + N*) / 2
       and (1 - x) B' with B' = (N - N*) / (2 (1 - x)) palindromic, N*
       the reverse of N; a reciprocal series has B' = 0;
    3. each [m]_x, m >= 2, is x-powers, (1 + x) for even m, and a
       closed-form row in w (`_w_row`) of the w-denominator R(w).  An
       even count of factors 1 + x is powers of (1 + x)^2 / x = w + 4;
       for an odd count, N is first multiplied by 1 + x;
    4. A and B' are converted to w from their low halves (`_peeled`);
       a part of odd span leaves a factor 1 + x = 2 - u;
    5. each is divided by R(w) with one shared denominator
       (`_shared_quotient`), and the quotient is mapped back to u by a
       truncated Horner pass, times (1 - u)^s (2 - u)^eps (`_in_u`),
       where s is half the span difference plus the x-valuation; D is
       the quotients' shared denominator, times 2 if N was split.
    """
    if order < 0:
        raise InputError(f"Laurent order must be >= 0, got {order}")
    if not f.numerator:
        return LaurentExpansion(0, (0,) * (order + 1), 1)
    passes, scale = f.denominator.factors, 1
    num = FactoredDenominator.from_pairs(
        (m, -e) for m, e in passes if e < 0).times(f.numerator.coeffs)
    passes = [(m, e) for m, e in passes if e > 0]
    low = next(i for i, c in enumerate(num) if c)
    num, val = num[low:], 0
    while not sum(num):  # divide by 1 - x
        num = list(accumulate(num))[:-1]
        val += 1
    pole = sum(e for _, e in passes) - val
    length = max(0, order + 1 + min(pole, 0))
    total = []
    if length:
        half = (length + 1) // 2
        den, plus, span = [1], 0, 0  # R(w)
        for m, e in passes:
            if m > 1:
                row = _w_row(m, half)
                for _ in range(e):
                    den = mul_truncated(row, den, half)
                if not m & 1:
                    plus += e
                span += e * (m - 1)
        if plus & 1:  # N (1 + x) / (R (1 + x))
            num = list(map(add, num + [0], [0] + num))
            plus += 1
            span += 1
        for _ in range(plus // 2):
            den = mul_truncated((4, 1), den, half)
        parts = [(num, 0)]
        rev = num[::-1]
        if rev != num:
            b = list(accumulate(map(sub, num, rev)))[:-1]
            parts = [(list(map(add, num, rev)), 0), (b, 1)]
            scale *= 2
        total = shared = None
        for part, lift in parts:
            size = length - lift
            if size <= 0:
                continue
            top = len(part) - 1
            odd = top & 1
            terms = (size + 1) // 2
            a = _peeled(part[:top // 2 + 1], odd, terms)
            q, s = _shared_quotient(a, den, terms)
            series = _in_u(q, size, low + (top - odd - span) // 2, odd)
            if total is None:
                total, shared = series, s
            else:  # u B' after A, at the lcm of their scales
                both = math.lcm(shared, s)
                total = list(map(mul, total, repeat(both // shared)))
                total[1:] = map(add, total[1:],
                                map(mul, series, repeat(both // s)))
                shared = both
        scale *= shared
    if pole < 0:
        pole, total = 0, ([0] * -pole + total)[:order + 1]
    return LaurentExpansion(pole, tuple(total), scale)


def laurent_prototype(t: int | Fraction, order: int) -> LaurentExpansion:
    """Expansion of 1/(1 - x^t) at x = 1 for rational t != 0.

    Leading terms: 1/t, (t-1)/(2t), (t^2-1)/(12t), (t^2-1)/(24t), ...
    obtained from the generalized binomial series of (1-u)^t.
    """
    t = Fraction(t)
    if not t:
        raise InputError("t must be nonzero")
    # 1 - (1-u)^t = sum_{k>=1} b_k u^k with b_k = -(-1)^k C(t,k)
    binom = Fraction(1)
    b = []
    for k in range(1, order + 2):
        binom *= (t - (k - 1)) / k
        b.append(-((-1) ** k) * binom)
    # q_k = N_k / t^(k+1), as b[0] = t
    body = deferred_quotient([1], b, order + 1)
    scale, nums = cleared([n / t ** (k + 1) for k, n in enumerate(body)])
    return LaurentExpansion(1, tuple(nums), scale)

