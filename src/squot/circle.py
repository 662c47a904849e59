"""Hilbert series of symplectic reductions by weighted circle actions.

A weight vector A = (a_1, ..., a_n) of nonzero integers defines a linear
circle action on C^n.  This module computes the Hilbert series of the
algebra of invariants both before ("off shell") and after ("on shell")
imposing the moment map equation.  Two algorithms cover the weight
profiles:

* the residue path, for two or more distinct weights: one piece per
  distinct weight a of multiplicity p, the on-shell residue of order p
  computed from graded inverses of the kernel's factors over
  polynomials in u packed into ints (at once for p = 1), then
  averaged over the a-th roots of unity: in closed form, a lattice sum
  of at most a monomials a term, for p = 1 beside at most two other
  weights (every piece of a distinct triple), else by multisection of
  its Taylor prefix; each average is divided exactly by +-a^(2p-2),
  as every piece is an integer series, and the integer pieces are
  merged over their shared denominator by cofactor sums; the on-shell
  sum is lifted onto the pair-sum denominator if every p = 1
  ("Generic"), otherwise ("DegenerateResidue") reduced;
* all weights equal ("CompletelyDegenerate"): an explicit binomial
  formula.

The cofactor merge and the lift onto the pair-sum denominator hold each
numerator as one int, its value at X = 2^W (Kronecker substitution):
lane j, bits W j to W j + W - 1, holds the coefficient c_j in balanced
form, |c_j| < 2^(W-1), W a multiple of 64, written into and read out of
C int words through `array` bytes and `int.from_bytes` / `to_bytes`.  A
pass (1 - x^m) is v - (v << m W), and an exact division by it a chain
of shifts and adds with a zero-remainder test.  Equal ints whose
polynomials both have every coefficient below 2^(W-1) have equal
polynomials, as balanced lanes are unique; so W comes from a bound: the
pieces' largest bit length plus their cofactor passes and the bit
length of their count for the merge, whose sum it bounds, and for the
lift that bound, handed over with the packed sum, plus its passes, with
the quotient's lanes checked once read back (`hilbert_on_distinct`).
Each piece is packed once and each result read out once; a failed
bound reads out the sum, widens W and redoes the lift.

Every piece is on shell.  A denominator is one signed list of
(1 - x^m) exponents, e < 0 for cyclotomic factors after a reduction;
the off-shell series of every method is the on-shell one over
1 - x^2, the pass (2, 1) appended (`_off_from_on`).

Each residue g of weight a obeys g(1/u) = u^((2n-2)a) g(u)
(`hilbert_off_clustered`), so the numerator of its average is
palindromic up to a sign: the multisected prefix only covers half of
it plus SLACK coefficients, which must agree with the mirror that
gives the other half (`u_average`), and a closed-form numerator must
obey the mirror on every coefficient (`pair_average`).  Every
dispatcher result is checked on every coefficient against the
reciprocity H(1/x) = x^(2n-2) H(x) of the on-shell series, and
against a brute-force monomial count, before it is returned.

The count (`oracle_off_counts`) runs one of two exact methods, the one
of smaller a priori work bound (`_oracle_method`): Kronecker substitution
over packed lanes or, for n >= 2, the kernel count.  (alpha, beta) ->
(alpha - beta, min(alpha, beta)) maps the invariant monomials
z^alpha zbar^beta one to one onto the kernel vectors delta . a = 0
paired with free exponents, so H_off = theta / (1 - x^2)^n, theta
counting ker(a) by L1 norm; large weights have few short kernel vectors.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import combinations, groupby, repeat
from operator import add, and_, lshift, neg, rshift
from typing import NamedTuple, Sequence, Tuple

from .errors import InputError, OracleMismatch, ReconstructionMismatch
from .exact import (SLACK, FactoredDenominator, QPolynomial,
                    RationalFunction, _divide_binomial, _mirrored, _netted,
                    _times_binomial, check_reciprocity,
                    deferred_quotient, mul_truncated, multisected_prefix,
                    peel_common, reciprocity, series_of_rational)

DEFAULT_ORACLE_DEGREE = 30

#: Bits of the C int words that lanes are written in and read from.
_WORD = 8 * array("i").itemsize
_LOW = (1 << _WORD) - 1

#: Words of packed int that Kronecker substitution adds in the time the
#: kernel count takes one step (building or visiting a point of its
#: ball, or trying one x), for `_oracle_method`.  Measured: on the
#: inputs of the three circle benchmark tables at degree 30 the methods
#: it picks take 1.4% longer in all than the faster method of each input
#: (`BENCH_two_method_oracle.json`, "ratio_fit_degree_30").
KRONECKER_WORDS_PER_KERNEL_STEP = 16


def normalize_weights(weights: Sequence[int]) -> Tuple[int, ...]:
    """Sorted positive primitive form of a weight vector.

    Signs are dropped, the entries are divided by their gcd and sorted.
    Both the invariant algebra and its Hilbert series only depend on
    this normal form.
    """
    if not weights:
        raise InputError("empty weight vector")
    if any(a == 0 for a in weights):
        raise InputError(f"zero entry in weight vector {tuple(weights)}")
    mags = sorted(abs(a) for a in weights)
    g = math.gcd(*mags)
    return tuple(a // g for a in mags)


class HilbertSeriesResult(NamedTuple):
    """On- and off-shell Hilbert series for one normalized weight vector."""

    weights: Tuple[int, ...]
    method: str  # "Generic", "DegenerateResidue" or "CompletelyDegenerate"
    on_shell: RationalFunction
    off_shell: RationalFunction
    pieces: Tuple[RationalFunction, ...] = ()


def _averaged_reciprocity(f: RationalFunction, target: FactoredDenominator,
                          a: int):
    """(C, eps) with N_k = eps * N_(C-k), eps = +-1, for the numerator N
    of the average of f over the a-th roots of unity (over `target`,
    any product of (1 - y^l) factors that the average admits).

    The identity is read off the input: f(1/x) = sign * x^w * f(x)
    (`exact.reciprocity`).  When a divides w, averaging turns x^w into
    y^(w/a): C = deg target - w/a and eps = sign * (-1)^E, E the number
    of factors of target.  A zero numerator obeys any mirror (eps = 1);
    any other input without the identity raises ReconstructionMismatch.
    """
    if not f.numerator:
        return target.degree, 1
    w, sign = reciprocity(f)
    if not sign or w % a:
        raise ReconstructionMismatch(f"weight {a}: no mirror: " + (
            f"{a} does not divide the shift {w}" if sign
            else "the numerator is neither palindromic nor antipalindromic"))
    return (target.degree - w // a,
            sign * (-1) ** sum(e for _, e in target.factors))


def _exact_image(den: FactoredDenominator, a: int) -> FactoredDenominator:
    """prod (1 - y^(lcm(a,m)/a))^e in y = x^a over den's (1 - x^m)^e:
    the exact denominator of an average over the a-th roots of unity.
    A pass with e < 0, which divides, raises InputError."""
    if bad := [f"(1 - x^{m})^{e}" for m, e in den.factors if e < 0]:
        raise InputError(f"weight {a}: the pass {bad[0]} divides")
    return FactoredDenominator.from_pairs(
        (math.lcm(a, m) // a, e) for m, e in den.factors)


def u_average(f: RationalFunction, a: int) -> RationalFunction:
    """Average of f over the a-th roots of unity, in the variable x^(1/a).

    Equivalently: keep every a-th Taylor coefficient.  With
    l = lcm(a,m)/a, each factor (1-x^m)^e of f's denominator becomes
    (1-x^(a l))^e times the polynomial ((1-x^(a l))/(1-x^m))^e, so the
    average has the exact denominator prod (1-y^l)^e in y = x^a, of
    degree sum e*m/gcd(a,m).  A factor with a | m is a function of x^a:
    it becomes (1-y^(m/a))^e at once and stays out of the expansion.
    The numerator N, in integers as f's is, is the multisected Taylor
    prefix of f without those factors times the image of the others.
    The input's reciprocity gives the mirror
    N_k = eps * N_(C-k) (`_averaged_reciprocity`), so only a half-length
    prefix is expanded: it yields N_0..N_(C//2 + SLACK), the SLACK
    coefficients past the middle must agree with the mirror, and the
    mirror gives the rest (`_mirrored`).  A failed check, or an input
    without a mirror, raises ReconstructionMismatch.  The average is
    returned as N over that exact denominator.  A denominator pass
    with e < 0, as a cyclotomic factor left by `reduce` has, raises
    InputError before any prefix is expanded (`_exact_image`).

    The multisected prefix comes from `multisected_prefix`.  For a
    p = 1 piece +-x^v / prod (1-x^m) beside three or more other weights
    (`pair_average` takes those beside fewer), it runs over packed
    integer rows: lanes of a fixed width, wide enough for a bound on the
    coefficients (each counts the solutions of sum j_i m_i = n - v, so
    it is at most |c| * (n // lcm(m_p, m_q) + 1) * prod (n // m_i + 1)
    over the factors other than any two p, q), so that the lanes, all
    nonnegative, never carry into each other, and a division by
    (1-x^m) adds whole rows of m lanes.
    """
    if a < 1:
        raise InputError(f"averaging needs a >= 1, got {a}")
    den = f.denominator
    rest = FactoredDenominator(tuple((m, e) for m, e in den.factors if m % a))
    exact, image = (_exact_image(d, a) for d in (den, rest))
    top, sign = _averaged_reciprocity(f, exact, a)
    window = image.multiply_into(multisected_prefix(
        RationalFunction(f.numerator, rest), a, top // 2 + SLACK))
    return RationalFunction(QPolynomial(_mirrored(window, top, sign)), exact)


def _pair_terms(a: int, rest) -> list:
    """x^v prod T_b^(p_b) of `pair_average` as its 2^r terms
    (sign, w, pairs): sign * x^w / prod (1 - x^m) over the (m, l) in
    pairs, one for each of the r other weights b, l being the other
    factor m' of b's pair over gcd(a, b): (1 - y^l) is the image of
    (1 - x^m'), the term's cofactor over the exact denominator."""
    terms = [(1, 0, ())]
    for b, pb in rest:
        g = math.gcd(a, b)
        if b < a:
            options = ((1, 0, a + b, (a - b) // g),
                       (1, a - b, a - b, (a + b) // g))
        else:  # each with b's share b - a of v
            options = ((1, b - a, b - a, (a + b) // g),
                       (-1, b + a, a + b, (b - a) // g))
        for _ in range(pb):
            terms = [(s * t, w + u, pairs + ((m, l),))
                     for s, w, pairs in terms for t, u, m, l in options]
    return terms


def _lattice_exponents(a: int, w: int, ms) -> list:
    """The exponents e of the monomials y^e, y = x^a, whose sum over
    prod (1 - y^(m / gcd(a, m))) is the average of x^w / prod (1 - x^m)
    over the a-th roots of unity, for one or two m: t / a for every
    t = w + sum m_i j_i, 0 <= j_i < a / gcd(a, m_i), that a divides.

    For the last m, g = gcd(a, m) and t' the rest of the sum, some j
    gives a | t' + m j iff g | t', and then j is one residue modulo
    a / g: -(t' / g) / (m / g).  So t' runs over w + m_1 j_1 for the
    first m (the one with the larger gcd), or m_1 = a, j_1 = 0 alone for
    one m.  g | t' iff h = gcd(m_1, g) divides w and j_1 = -(w / h) /
    (m_1 / h) modulo g / h: s = t' / g steps by m_1 / h, and the exponent
    is (s + (m / g) j) / (a / g), at most a of them, in the order of t'.
    """
    *outer, m = sorted(ms, key=lambda k: math.gcd(a, k), reverse=True)
    first = outer[0] if outer else a
    g = math.gcd(a, m)
    n, h, mg = a // g, math.gcd(first, g), m // g
    if w % h:
        return []
    back, step = -pow(mg, -1, n) % n, first // h
    start = (w + first * (-w // h * pow(step, -1, g // h) % (g // h))) // g
    return [(s + mg * (s * back % n)) // n for s in
            range(start, (w + math.lcm(a, first) - 1) // g + 1, step)]


def pair_average(f: RationalFunction, a: int, rest) -> RationalFunction:
    """`u_average` of f, the p = 1 piece of `residue_cluster` for the
    weight a, in closed form, when the other weights (b, p_b) in `rest`
    number r = sum p_b <= 2.

    With y = x^a, (1 - x^(2a)) / ((1 - x^(a+b)) (1 - x^|a-b|)) is
    T_b = 1/(1 - x^(a+b)) + x^(a-b)/(1 - x^(a-b)) for b < a and
    T_b = 1/(1 - x^(b-a)) - x^(2a)/(1 - x^(a+b)) for b > a, so f, which
    is on shell x^v over every pair alone, v the sum of p_b (b - a)
    over b > a, is x^v prod T_b^(p_b) / (1 - y^2)^r: 2^r terms
    +-x^w / prod (1 - x^m) (`_pair_terms`) over a function of y.  Each
    term averages to at most a monomials (`_lattice_exponents`) over
    the images (1 - y^l) of its factors.  Over the exact image
    denominator E = prod_b (the images of b's pair)^(p_b), the
    numerator N is the sum of the terms' monomials times their
    cofactors, divided exactly by (1 - y^2)^r.

    The sum is sized from deg E + 2r, which bounds every exponent of
    N (1 - y^2)^r, before any j is enumerated.  The division must be
    exact, and N must obey the mirror N_k = eps * N_(C-k) on every
    coefficient (`_averaged_reciprocity`, `_mirrored`): else
    ReconstructionMismatch, as for an input without a mirror.
    """
    exact, r = _exact_image(f.denominator, a), sum(pb for _, pb in rest)
    num = [0] * (exact.degree + 2 * r)
    for sign, w, pairs in _pair_terms(a, rest):
        cofactor = [(0, sign)]
        for _, l in pairs:
            cofactor += [(s + l, -c) for s, c in cofactor]
        exponents = _lattice_exponents(a, w, [m for m, _ in pairs])
        for s, c in cofactor:
            for e in exponents:
                num[e + s] += c
    while num and not num[-1]:
        num.pop()
    for _ in range(r):
        if (num := _divide_binomial(num, 2)) is None:
            raise ReconstructionMismatch(
                f"weight {a}: closed-form numerator is not divisible "
                "by 1 - y^2")
    top, eps = _averaged_reciprocity(f, exact, a)
    num += [0] * (top + 1 - len(num))
    return RationalFunction(QPolynomial(_mirrored(num, top, eps)), exact)


def _weight_clusters(weights: Sequence[int]):
    """Distinct weights with multiplicities, ascending."""
    return [(a, len(list(run))) for a, run in groupby(weights)]


def _kernel_coefficient(a: int, p: int, rest, exponent: int, value,
                        sign: int = 1):
    """The tau^(p-1) coefficient M of (1+tau)^exponent / prod F_i^(e_i)
    times prod F_i(0)^(e_i+p-1), the F_i being the factors of the cluster
    kernel at t = u tau without their u-powers, each tau-coefficient a
    u-polynomial of (degree, coefficient) terms mapped by `value`.  The
    deferred quotient 1/F_i has its k-th coefficient over F_i(0)^(k+1);
    times the k-th power of the other F_j(0) it is over F_i(0) D^k,
    D = prod F_j(0), so every series is graded by D^k and plain truncated
    products stay exact.  For a ring map, M is the image of M(u).  For
    the L1 norm and sign -1, which negates each factor's tail so that
    every subtraction of the quotient adds, M >= ||M(u)||_1, the norm
    being sub-additive and sub-multiplicative."""
    def tail(k, d, pm):  # pm * C(k, j) u^d at tau^j, 1 <= j < p
        return [((d, pm * math.comb(k, j)),)
                for j in range(1, min(k, p - 1) + 1)]
    # 1 - u^(2a) (1+tau)^a and ((1+tau)^a - 1)/tau; for each b,
    # 1 - u^(a+b) (1+tau)^b and u^(b-a) (1+tau)^b - 1 (b > a) or
    # (1+tau)^b - u^(a-b) (b < a)
    factors = [([((0, 1), (2 * a, -1))] + tail(a, 2 * a, -1), p),
               ([((0, math.comb(a, j + 1)),) for j in range(min(a, p))], p)]
    for b, pb in rest:
        head = ((b - a, 1), (0, -1)) if b > a else ((0, 1), (a - b, -1))
        factors += [([((0, 1), (a + b, -1))] + tail(b, a + b, -1), pb),
                    ([head] + tail(b, max(b - a, 0), 1), pb)]
    rows = [([value(f[0])] + [sign * value(c) for c in f[1:]], e)
            for f, e in factors]
    heads = [row[0] for row, _ in rows]

    def graded(series, x):  # series[k] * x^k
        out, power = series[:1], 1
        for c in series[1:]:
            power = power * x
            out.append(c * power)
        return out
    series = graded([math.comb(exponent, k) for k in range(p)],
                    math.prod(heads))
    for i, (row, e) in enumerate(rows):
        inverse = graded(deferred_quotient([1], row, p),
                         math.prod(heads[:i] + heads[i + 1:]))
        for _ in range(e):
            series = mul_truncated(series, inverse, p)
    return series[p - 1]


def _lane_bit(width: int, count: int, bit: int) -> int:
    """sum 2^bit 2^(width j) over 0 <= j < count: one bit in each of
    `count` lanes of `width` bits, width a multiple of 8."""
    lane = bytearray(width // 8)
    lane[bit // 8] = 1 << bit % 8
    return int.from_bytes(bytes(lane) * count, "little")


def _words(coeffs: Sequence[int]) -> tuple:
    """(w, b), every |c| < 2^b: w one array of C int words and b the word
    size if each c fits one, else w = coeffs and b their bit length."""
    try:
        return array("i", coeffs), _WORD
    except OverflowError:
        return coeffs, _bits(coeffs)


def _packed(words, width: int) -> int:
    """sum c_j 2^(width j) for the coefficients `words` of `_words`, or
    any list of ints, below 2^(width - 1), for a width that is a
    multiple of the word size.

    The lanes are written as C int words of one array, whose bytes are
    read as one int.  An array of words takes the lowest word of each
    lane, in two's complement; a list fills the lanes, the top word
    signed.  Flipping the top bit of what they fill, then taking it
    away, turns two's complement into balanced lanes."""
    count, step = len(words), width // _WORD
    raw = array("i", bytes(width // 8 * count))
    if isinstance(words, array):
        raw[::step], top = words, _WORD
    else:
        for i in range(step - 1):
            raw[i::step] = array("i", array("I", map(and_, map(
                rshift, words, repeat(_WORD * i)), repeat(_LOW))).tobytes())
        raw[step - 1::step], top = array("i", map(
            rshift, words, repeat(width - _WORD))), width
    if sys.byteorder == "big":
        raw.byteswap()
    flip = _lane_bit(width, count, top - 1)
    return (int.from_bytes(raw.tobytes(), "little") ^ flip) - flip


def _lanes(packed: int, width: int) -> tuple:
    """(the balanced lanes c_j of packed = sum c_j 2^(width j), b) with
    every |c_j| < 2^b, the inverse of `_packed`, for a width that is a
    multiple of the word size.

    The bit length of |packed| bounds the number of lanes; a trailing
    zero lane may be left.  With the top bit of each lane's lowest word
    added and flipped, one `to_bytes` holds every lane that fits that
    word in two's complement, and the lane's other words are zero
    exactly when they all fit (b = the word size); else the top bit of
    the whole lane is flipped, the lanes are read from their words, the
    top one signed, and b is their bit length."""
    count, step = (abs(packed).bit_length() + 1) // width + 1, width // _WORD
    size = width // 8 * count
    flip = _lane_bit(width, count, _WORD - 1)
    if (shifted := packed + flip) >= 0:
        raw = array("i", (shifted ^ flip).to_bytes(size, "little"))
        if sys.byteorder == "big":
            raw.byteswap()
        zero = array("i", bytes(size // step))
        if all(raw[i::step] == zero for i in range(1, step)):
            return raw[::step].tolist(), _WORD
    flip = _lane_bit(width, count, width - 1)
    raw = array("i", ((packed + flip) ^ flip).to_bytes(size, "little"))
    if sys.byteorder == "big":
        raw.byteswap()
    lanes = map(lshift, raw[step - 1::step], repeat(width - _WORD))
    low = array("I", raw.tobytes())
    for i in range(step - 1):
        lanes = map(add, lanes, map(lshift, low[i::step], repeat(_WORD * i)))
    lanes = list(lanes)
    return lanes, _bits(lanes)


def _bits(coeffs: Sequence[int]) -> int:
    """The bit length of max |c|, 0 for none."""
    return max(max(coeffs, default=0), -min(coeffs, default=0)).bit_length()


def _width(bits: int) -> int:
    """The least multiple of 64 above `bits`: balanced lanes of that
    width hold every |c| < 2^bits."""
    return bits // 64 * 64 + 64


def _times_passes(packed: int, den: FactoredDenominator, width: int) -> int:
    """packed times den's product of (1 - X^m)^e, X = 2^width."""
    for m, e in den.factors:
        for _ in range(e):
            packed -= packed << m * width
    return packed


def _divided(packed: int, m: int, width: int, size: int):
    """packed / (1 - X^m), X = 2^width, packed holding `size` lanes, or
    None if that is no integer or size <= m.  The quotient q, if any,
    holds size - m lanes, so |q| < 2^(width (size - m) - 1), and span / m
    doublings give packed (1 + X^m + ... + X^(span - m)) =
    q (1 - X^span) = t; for span >= size - m, t >> width span is -q for
    q >= 0 (t <= 0) and -q - 1 for q < 0 (t > 0).  q (1 - X^m) must
    give back packed."""
    if size <= m:
        return None
    total, span = packed, m
    while span < size - m:
        total += total << span * width
        span *= 2
    high = total >> span * width
    q = ~high if total > 0 else -high
    return q if q - (q << m * width) == packed else None


def residue_cluster(a: int, p: int, rest):
    """Residue contribution of a weight a of multiplicity p, in integers.

    `rest` lists the other distinct weights as (b, multiplicity) pairs.
    The on-shell Hilbert series is the sum over clusters of
    a * (every-a-th coefficient of R(u)).  Returns (s * R, s) with the
    integer scale s = +-a^(2p-1), negative when p_b + p - 1 summed over
    the weights b > a is odd; s * R has an integer numerator, and so
    has its average, which s / a = +-a^(2p-2) divides exactly
    (`hilbert_off_clustered`, whose proof holds times 1 - u^(2a)).

    R is the t^(p-1) coefficient of the cluster kernel at z = u + t,
    whose numerator is z^exponent.  At t = u tau every factor of the
    kernel is a u-power times a factor F_i whose tau-coefficients are
    c u^k or constants, and [t^(p-1)] = u^(1-p) [tau^(p-1)], so
    R = u^v M / prod F_i(0)^(e_i+p-1) (`_kernel_coefficient`), v the sum
    of p_b (b - a) over b > a, off shell.  The F_i(0) are a, at e_i = p,
    and +-(1 - u^m) for m = 2a, a + b and |a - b|.  On shell, R is times
    1 - u^(2a), whose image is 1 - x^2: a function of u^a, it commutes
    with [t^(p-1)] and the average.  So (1 - u^(2a)) has the exponent
    2p - 2 (none at p = 1) before `from_pairs` merges it with a pair
    factor |a - b| = 2a, as for (1,3).  For p = 1, M = 1.  For
    p >= 2 each u-polynomial is packed into one int, its value at
    X = 2^width (Kronecker substitution), so the products give M(X);
    with width two bits above a bound on the |M_j|, rounded up to whole
    C int words, M(X) is read back as balanced lanes (`_lanes`)."""
    exponent = p * a - 1 + sum(pb * b for b, pb in rest)
    scale, v = a ** (2 * p - 1), 0
    pairs = [(2 * a, p - 1)] if p > 1 else []
    for b, pb in rest:
        pairs += [(a + b, pb), (abs(a - b), pb)]
        if b > a:
            v += pb * (b - a)
            scale *= (-1) ** (pb + p - 1)
    den_r = FactoredDenominator.from_pairs((m, e + p - 1) for m, e in pairs)
    if p == 1:
        return RationalFunction(QPolynomial.monomial(v), den_r), scale
    bound = _kernel_coefficient(a, p, rest, exponent,
                                lambda terms: sum(abs(c) for _, c in terms),
                                -1)
    width = -(-(bound.bit_length() + 2) // _WORD) * _WORD
    packed = _kernel_coefficient(
        a, p, rest, exponent,
        lambda terms: sum(c << width * d for d, c in terms))
    n_poly = QPolynomial([0] * v + _lanes(packed, width)[0])
    return peel_common(RationalFunction(n_poly, den_r)), scale


def _excess(den: FactoredDenominator,
            over: FactoredDenominator) -> FactoredDenominator:
    """The (1 - x^m)^e factors by which `den` exceeds `over`."""
    have = dict(over.factors)
    return FactoredDenominator(tuple(
        (m, e - have.get(m, 0)) for m, e in den.factors if e > have.get(m, 0)))


def _cofactor_sum(pieces) -> tuple:
    """(packed, width, need, count, den): the sum of the pieces over the
    union den of their denominators, each numerator times its cofactor,
    the factors of den that its own denominator lacks, packed once at
    the least width above the bound of `hilbert_off_clustered`, every
    lane below 2^need, and count >= its lanes: the most of a piece's
    plus its cofactor's degree."""
    merged: dict = {}
    for g in pieces:
        for m, e in g.denominator.factors:
            merged[m] = max(merged.get(m, 0), e)
    den = FactoredDenominator.from_pairs(merged.items())
    cofactors = [_excess(den, g.denominator) for g in pieces]
    words = [_words(g.numerator.coeffs) for g in pieces]
    need = (max(bits for _, bits in words)
            + max(sum(e for _, e in c.factors) for c in cofactors)
            + len(pieces).bit_length())
    width = _width(need)
    total = sum(_times_passes(_packed(w, width), c, width)
                for (w, _), c in zip(words, cofactors))
    count = max(len(w) + c.degree for (w, _), c in zip(words, cofactors))
    return total, width, need, count, den


def hilbert_off_clustered(weights: Sequence[int]):
    """On-shell Hilbert series by the residue path, not in lowest terms.

    Returns (the series packed by `_cofactor_sum`, the pieces
    N_i / (d_i D_i)), N_i / D_i the average of cluster i's on-shell
    `residue_cluster` piece over its exact image denominator and
    d_i = s_i / a_i = +-a_i^(2p_i-2) from its scale s_i.  The name
    predates the on-shell sum; the benchmark's layer tracer
    (`perfbench/tracing.py`) wraps it by name.  The
    average is taken in closed form (`pair_average`) for p_i = 1
    beside at most two other weights, counted with multiplicity, else
    from the multisected prefix (`u_average`).

    Every piece is an integer series, so d_i divides N_i exactly.  The
    off-shell piece of a is the sum of the residues of F(z)/z, with
    F(z) = prod_j 1 / ((1 - x z^(a_j)) (1 - x z^(-a_j))), over the poles
    z^a = x, which lie on the circle |z| = x^(1/a) for 0 < x < 1.  So it
    is the difference of F's constant terms in z on the circles
    |z| = x^theta just outside and just inside those poles.  With
    z = x^theta w, |w| = 1, each factor is a geometric series of +-1
    coefficients in x^(1 + a_j theta) w^(a_j), x^(1 - a_j theta) w^(-a_j)
    or x^(a_j theta - 1) w^(a_j), all of positive exponent; a term of
    w^0 has an integer exponent of x, as the theta parts cancel.  Both
    constant terms are integer power series in x, so the piece is one,
    and so is the on-shell piece, that times 1 - x^2; D_i has constant
    term 1: N_i / d_i is an integer polynomial.  A nonzero remainder
    raises ReconstructionMismatch.  The pieces are merged over the
    union of their denominators by integer cofactor sums in balanced
    lanes of one int (`_cofactor_sum`): each numerator, |c| < 2^b, times
    its cofactor of at most E passes (1 - X^m), X = 2^W, is a shift and
    subtract per pass, and the sum of k of them has every lane below
    k 2^(b + E), which lanes of W > b + E + the bit length of k hold
    exactly.  The sum is returned packed, with W, that bound and its
    denominator; the caller reads it out once to reduce it, or lifts it
    as it is, and derives the off-shell series from that.

    Every residue has a mirror.  Write F_x for F and let
    r(u) = Res_(z=u) F_x(z) / z at x = u^a, the residue that
    `residue_cluster` scales.  As z -> 1/z is holomorphic and
    F_x(1/z) = F_x(z), Res_(z=1/u) F_x(z) / z = -r(u); with
    F_(1/x) = x^(2n) F_x, r(1/u) = -u^(2na) r(u).  On shell, times
    1 - u^(2a), the residue g obeys g(1/u) = u^((2n-2)a) g(u): a divides
    the shift, every average has the mirror of `_averaged_reciprocity`,
    and each piece obeys P(1/x) = x^(2n-2) P(x).
    """
    clusters = _weight_clusters(weights)
    pieces = []
    for a, p in clusters:
        rest = tuple((b, pb) for b, pb in clusters if b != a)
        g, s = residue_cluster(a, p, rest)
        if p == 1 and sum(pb for _, pb in rest) <= 2:
            avg = pair_average(g, a, rest)
        else:
            avg = u_average(g, a)
        d = s // a  # +-1 for p = 1
        if d == -1:
            avg = RationalFunction(
                QPolynomial(map(neg, avg.numerator.coeffs)),
                avg.denominator)
        elif d != 1:
            if any(c % d for c in avg.numerator.coeffs):
                raise ReconstructionMismatch(
                    f"weight {a}: averaged residue numerator is not "
                    f"divisible by {d}")
            avg = RationalFunction(
                QPolynomial(c // d for c in avg.numerator.coeffs),
                avg.denominator)
        pieces.append(avg)
    return _cofactor_sum(pieces), tuple(pieces)


def _lifted(merged: tuple, target: FactoredDenominator):
    """(N, left): the merged sum's numerator M (`_cofactor_sum`) times Y,
    the factors of target that its denominator lacks, divided by as
    many of X, the factors of its denominator that target lacks, as
    divide it exactly, in order, each as often as it divides, and the
    (m, e) left of X.  The merge's bound 2^b bounds M's lanes: k pieces
    below 2^b', each times at most E passes, give lanes below
    k 2^(b' + E) <= 2^b.  If the passes of Y and X, N's headroom, do not
    fit beside it, or N fails its read-back check (`hilbert_on_distinct`),
    M's lanes are read out once and packed wider, and the lift redone."""
    packed, width, bits, count, den = merged
    times, over = _excess(target, den), _excess(den, target)
    # the lanes of M Y; none for M = 0, which no factor divides, as in
    # `peel_common`
    count = packed and count + times.degree
    headroom = (sum(e for _, e in times.factors)
                + sum(e for _, e in over.factors))
    m, lanes, need = packed, None, 0
    while True:
        if bits + headroom < width:
            n, size, divided = _times_passes(m, times, width), count, 0
            left = []
            for d, e in over.factors:
                while e and (q := _divided(n, d, width, size)) is not None:
                    n, size, e, divided = q, size - d, e - 1, divided + 1
                if e:
                    left.append((d, e))
            out, c = _lanes(n, width)
            need = c + divided + (count.bit_length() if left else 0)
            if need < width:
                return out, tuple(left)
        if lanes is None:  # M's lanes, read once
            lanes, bits = _lanes(packed, width)
            if max(need, bits + headroom) < width:
                continue
        width = _width(max(need, bits + headroom))
        m = _packed(lanes, width)


def _off_from_on(on: RationalFunction) -> RationalFunction:
    """on / (1 - x^2), the pass (2, 1) appended to on's; a reduced `on`
    nonzero at 1 and -1 gives a reduced result."""
    return RationalFunction(on.numerator, FactoredDenominator(
        _netted(on.denominator.factors + ((2, 1),))))


def _pair_sum_denominator(weights: Sequence[int]) -> FactoredDenominator:
    """(1-x^2) * prod_{i<j} (1-x^(a_i+a_j)), the on-shell ansatz."""
    return FactoredDenominator.from_pairs(
        [(2, 1)] + [(a + b, 1) for a, b in combinations(weights, 2)])


def hilbert_on_distinct(weights: Sequence[int]):
    """On-shell Hilbert series for pairwise distinct weights.

    Returns (the series over the pair-sum denominator, the on-shell
    pieces).  The residue path gives the on-shell sum and pieces
    (`hilbert_off_clustered`).  The packed sum is lifted as it is onto
    the pair-sum denominator exactly (`_lifted`): its numerator M is
    multiplied by the factors Y of the ansatz that its denominator
    lacks, and divided by the factors X of its denominator that the
    ansatz lacks, each as often as it divides, in order; a factor left
    over raises ReconstructionMismatch.

    The lift runs in balanced lanes of the merge's int, X = 2^W, with
    no read-back of M: a pass of Y is a shift and subtract, and a
    division by 1 - X^m a chain of shifts and adds whose remainder must
    be zero (`_divided`).  M, below the merge's bound 2^b, and Y's |Y|
    passes give M Y below 2^(b + |Y|); W > b + |Y|, so M Y is what its
    int's lanes read.  Remainder zero gives N X' = M Y at X, X' the
    factors divided, and N, read out once, below 2^c, leaves room for
    them if c + |X'| < W: N X' is then below 2^(W-1) too, both sides
    read off the same balanced lanes, and N X' = M Y as polynomials.
    A factor is only reported left over when, beside that, the
    quotient it would give fits a lane: a quotient is at most the
    dividend's L1 norm, so c + |X'| + the bit length of the lane count
    < W.  Else W widens and the lift is redone.
    """
    merged, pieces = hilbert_off_clustered(weights)
    target = _pair_sum_denominator(weights)
    numerator, left = _lifted(merged, target)
    if left:
        raise ReconstructionMismatch(
            f"weights {tuple(weights)}: denominator factors "
            f"{left} are not in the pair-sum ansatz")
    return RationalFunction(QPolynomial(numerator), target), pieces


def hilbert_equal_weights(n: int) -> RationalFunction:
    """On-shell series for n equal weights:
    sum_k C(n-1,k)^2 x^(2k) over (1-x^2)^(2n-2)."""
    if n < 1:
        raise InputError(f"need n >= 1 equal weights, got {n}")
    num = [0] * (2 * n - 1)
    for k in range(n):
        num[2 * k] = math.comb(n - 1, k) ** 2
    return RationalFunction(QPolynomial(num), FactoredDenominator.from_pairs(
        [(2, 2 * n - 2)] if n > 1 else []))


def _kronecker_off_counts(weights: Sequence[int], order: int) -> list:
    """Invariant monomial counts, degrees 0..order, by Kronecker
    substitution on sorted positive weights.

    The count at degree k is the t^0 coefficient of x^k in
    prod_i 1 / ((1 - x t^(a_i)) (1 - x t^(-a_i))).  The coefficient
    P_k of x^k is held as one int of `width`-bit lanes, lane s for t^s;
    dividing by (1 - x t^(+-a)) is P_k += P_(k-1) shifted by a lanes,
    for k = 1..order.  All factors t^(+a) come first, then all t^(-a).

    Width: each lane counts some of the monomials of degree k <= order
    in at most 2n variables, at most C(order + 2n - 1, 2n - 1) of them,
    which is below 2^width.  Every lane is nonnegative, so a sum of two
    packed ints never carries from one lane into the next, and a right
    shift by a lanes moves every lane down by a exactly, dropping the
    lowest a.  What it drops has a negative weighted sum, and the
    remaining factors, all t^(-a), only lower a sum: it could never
    reach t^0, so no offset is needed.  For the same reason a sum
    above hi * (order - k) at degree k cannot reach t^0 by degree
    order: P_k is cut to those lanes before the t^(-a) factors, and
    P_k for k above hi * order // (lo + hi), whose sums are all at
    least lo * k, starts the t^(-a) factors at zero.  During the
    t^(+a) factors P_k is held divided by t^(lo * k), a shift by
    a - lo lanes each, as its sums lie in [lo * k, hi * k].
    """
    lo, hi = weights[0], weights[-1]
    n = len(weights)
    width = math.comb(order + 2 * n - 1, 2 * n - 1).bit_length()
    depth = hi * order // (lo + hi)
    series = [1] + [0] * order
    for a in weights:
        shift = (a - lo) * width
        for k in range(1, depth + 1):
            series[k] += series[k - 1] << shift
    for k in range(1, depth + 1):
        series[k] = (series[k] << lo * k * width) \
            & ((1 << (hi * (order - k) + 1) * width) - 1)
    for a in weights:
        shift = a * width
        for k in range(1, order + 1):
            series[k] += series[k - 1] >> shift
    lane = (1 << width) - 1
    return [p & lane for p in series]


def _kernel_off_counts(weights: Sequence[int], order: int) -> list:
    """Invariant monomial counts, degrees 0..order, from the kernel
    vectors of n >= 2 sorted positive weights.

    z^alpha zbar^beta is invariant iff delta = alpha - beta lies in
    ker(a) = {delta in Z^n : delta . a = 0}, and (alpha, beta) ->
    (delta, min(alpha, beta)), the minimum taken entrywise, is a
    bijection from the pairs onto ker(a) x N^n, with
    |alpha| + |beta| = |delta|_1 + 2 |min(alpha, beta)|.  So
    H_off(x) = theta(x) / (1 - x^2)^n, theta counting ker(a) by L1 norm.

    The first n - 2 coordinates of delta, the smallest weights, run
    over the L1 ball of radius order, cut to the points (s, r), s their
    weighted sum and r their norm, with |s| <= c (order - r): the last
    two, of weights b <= c, add at most c per unit of norm.  Those two
    solve b x + c y = -s: with g = gcd(b, c), g | s, x is one residue
    modulo c / g, and y = -(s + b x) / c exactly, for each x with
    |x| <= order - r.  The ball is held as a list of its points over the
    first n - 3 coordinates only; the (n - 2)-th is run through for each
    of them (none for n = 2), so the memory is that of an
    (n - 3)-ball.
    """
    *outer, b, c = weights
    g = math.gcd(b, c)
    mod = c // g
    inverse = pow(b // g, -1, mod)
    *outer, last = outer or [0]  # n = 2: no (n - 2)-th, a weight 0 at d = 0
    points = [(0, 0)]
    for a in outer:
        points = [(s + a * d, r + abs(d)) for s, r in points
                  for d in range(r - order, order - r + 1)
                  if abs(s + a * d) <= c * (order - r - abs(d))]
    theta = [0] * (order + 1)
    for s0, r0 in points:
        reach = order - r0 if last else 0
        for d in range(-reach, reach + 1):
            s, r = s0 + last * d, r0 + abs(d)
            left = order - r
            if s % g or abs(s) > c * left:
                continue
            first = -(s // g) * inverse % mod  # the residue of x
            for x in range(first - (first + left) // mod * mod, left + 1,
                           mod):
                norm = r + abs(x) + abs((s + b * x) // c)
                if norm <= order:
                    theta[norm] += 1
    _times_binomial(theta, 2, -len(weights))
    return theta


def _oracle_method(weights: Sequence[int], order: int):
    """The counting method `oracle_off_counts` runs on these sorted
    positive weights: the smaller of a priori bounds on the work of each,
    in Kronecker substitution's words, Kronecker substitution on a tie.

    Kronecker substitution adds about n * width * (hi * order^2 +
    (hi - lo) * depth^2) / 2 bits of packed ints, depth being
    hi * order // (lo + hi), in 64-bit words.  The kernel count, for
    n >= 2, builds each point of the (n - 2)-dimensional L1 ball of
    radius order, sum_k 2^k C(n - 2, k) C(order, k) of them, and visits
    it: two steps; at the points whose sum g = gcd(a_(n-1), hi) divides,
    about one in g, it tries at most 1 + 2 order // (hi / g) values of
    x, a step each; a step costs KRONECKER_WORDS_PER_KERNEL_STEP words.
    """
    n, lo, hi = len(weights), weights[0], weights[-1]
    if n == 1:
        return _kronecker_off_counts
    width = math.comb(order + 2 * n - 1, 2 * n - 1).bit_length()
    depth = hi * order // (lo + hi)
    words = n * width * (hi * order ** 2 + (hi - lo) * depth ** 2) // 128
    ball = sum(2 ** k * math.comb(n - 2, k) * math.comb(order, k)
               for k in range(n - 1))
    g = math.gcd(weights[-2], hi)
    steps = ball * (2 + (1 + 2 * order // (hi // g)) / g)
    if KRONECKER_WORDS_PER_KERNEL_STEP * steps < words:
        return _kernel_off_counts
    return _kronecker_off_counts


def oracle_off_counts(weights: Sequence[int], order: int) -> list:
    """Brute-force invariant monomial counts, degrees 0..order.

    The count at degree k is the number of monomials z^alpha zbar^beta
    with |alpha| + |beta| = k and sum alpha_i a_i = sum beta_i a_i; it
    only depends on the normal form of the weights (`normalize_weights`,
    which rejects a zero weight).  Two exact methods count them:
    Kronecker substitution (`_kronecker_off_counts`), best on dense
    weight ranges, and, for n >= 2, the L1 theta series of ker(a) over
    (1 - x^2)^n (`_kernel_off_counts`, whose docstring gives the
    bijection), best on large weights, whose short kernel vectors are
    few.  `_oracle_method` takes the one of smaller a priori work bound.
    """
    weights = normalize_weights(weights)
    return _oracle_method(weights, order)(weights, order)


def verify_against_oracle(weights: Sequence[int], off: RationalFunction,
                          order: int = DEFAULT_ORACLE_DEGREE) -> None:
    """Raise OracleMismatch where `off` and the count differ to `order`."""
    got = series_of_rational(off, order).coefficients
    want = oracle_off_counts(weights, order)
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise OracleMismatch(
                f"weights {tuple(weights)}: degree {k} coefficient "
                f"{g} != brute-force count {w}")


def hilbert_series(weights: Sequence[int],
                   oracle_degree: int = DEFAULT_ORACLE_DEGREE
                   ) -> HilbertSeriesResult:
    """On- and off-shell Hilbert series for a circle weight vector.

    Dispatches on the multiplicity profile of the normalized weights
    for the on-shell series, and derives the off-shell one from it
    (`_off_from_on`).  The off-shell series is checked against the
    brute-force count through degree `oracle_degree` (0 checks the
    constant term only).
    """
    weights = normalize_weights(weights)
    clusters = _weight_clusters(weights)
    if len(clusters) == 1:
        method, pieces = "CompletelyDegenerate", ()
        on = hilbert_equal_weights(len(weights))
    elif all(p == 1 for _, p in clusters):
        method = "Generic"
        on, pieces = hilbert_on_distinct(weights)
    else:
        method = "DegenerateResidue"
        (packed, width, _, _, den), pieces = hilbert_off_clustered(weights)
        on = RationalFunction(QPolynomial(_lanes(packed, width)[0]),
                              den).reduce()
    result = HilbertSeriesResult(weights, method, on, _off_from_on(on),
                                 pieces)
    # H_on(1/x) = x^(2n-2) H_on(x) on every coefficient; then the
    # off-shell series H_on / (1 - x^2) obeys H(1/x) = -x^(2n) H(x)
    check_reciprocity(result.on_shell, 2 * len(weights) - 2,
                      f"weights {weights}")
    verify_against_oracle(weights, result.off_shell, oracle_degree)
    return result
