"""Integrality scans over weight triples.

For n = 3 the reciprocal leading coefficient of the on-shell series is
1/gamma_0 = (a+b)(a+c)(b+c) / (ab+ac+bc); this module tests its
integrality, counts how often it holds among all ordered positive
triples of bounded total weight, and decides whether a triple passing
the first test can still be ruled out by the second-order coefficient:
matching a finite group would require writing 12 gamma_2 / gamma_0 as a
sum of m^2 - 1 over divisors m >= 2 of 1/gamma_0.

The scan does not test every triple.  With D = ab + bc + ca,
(a+b)(b+c)(c+a) = (a+b+c) D - abc, so 1/gamma_0 is an integer exactly
when k = abc / D is, that is when 1/a + 1/b + 1/c = 1/k.  For
a <= b <= c this puts k in [ceil(a/3), a - 1].  With r = a - k, s = ak
and T = L - a, it solves to c = s b / (r b - s), and a + b + c <= L
reads r b^2 - r T b + s T <= 0, whose roots are
(r T -+ sqrt(r T (r T - 4 s))) / 2r; the interval between them is
empty unless k <= a T / (T + 4a), and every b in it has r b > s.
With b >= a and c >= b (that is b <= 2s/r) each pair (a, k) leaves one
interval of b, whose ends come from one exact `math.isqrt`: no
multiple of 1/2r lies strictly between (r T + isqrt) / 2r and
(r T + isqrt + 1) / 2r, so rounding the root down moves neither end.

A b of the interval is a hit when d = r b - s divides s b.  With
g = gcd(r, s), r' = r/g, s' = s/g and d' = r' b - s' > 0, d = g d' and
s b = g s' b, so d | s b exactly when d' | s' b.  From
r' s' b = s' d' + s'^2, d' divides r' s' b exactly when it divides s'^2,
and gcd(d', r') = gcd(s', r') = 1, so d' | s' b exactly when d' | s'^2.
`integral_triples` therefore runs d' over one progression of step r'
per interval and tests it against the constant s'^2; a hit gives
b = (d' + s') / r' and c = s' b / d' = (s' + s'^2 / d') / r'.  At
L = 400 that is 1 371 progressions over 34 k candidates in all, against
1.78 M non-decreasing triples.  `hits_by_sum` tallies the hits by
a + b + c for every level up to L.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence, Tuple

from .errors import InputError
from .laurent import gamma0_closed, gamma2_closed


def reciprocal_gamma0(triple: Sequence[int]) -> Fraction:
    a, b, c = triple
    return Fraction((a + b) * (a + c) * (b + c), a * b + a * c + b * c)


def gamma0_is_integral(triple: Sequence[int]) -> bool:
    """Integer test for 1/gamma_0, in pure integer arithmetic."""
    a, b, c = triple
    return (a + b) * (a + c) * (b + c) % (a * b + a * c + b * c) == 0


def is_unit_fraction_sum(triple: Sequence[int]) -> bool:
    """Whether 1/a + 1/b + 1/c is the reciprocal of an integer."""
    total = sum(Fraction(1, a) for a in triple)
    return total.numerator == 1


def gamma2_ratio(triple: Sequence[int]) -> Fraction:
    """12 gamma_2 / gamma_0 for a weight triple."""
    gamma0 = gamma0_closed(triple)
    return 12 * gamma2_closed(triple, gamma0=gamma0) / gamma0


def pseudoreflection_obstruction(triple: Sequence[int]) -> bool:
    """Whether 12 gamma_2/gamma_0 is a sum of m^2 - 1 over divisors
    m >= 2 of the integer 1/gamma_0 (with repetitions allowed); raises
    InputError when 1/gamma_0 is not an integer.

    When 1/gamma_0 is an integer, so is 12 gamma_2/gamma_0: by
    `gamma2_closed` it is 1 + sum_j (g_j^2 - 1) + sum_j g_j^2 a_j^2 / e_2,
    g_j the gcd of the weights other than a_j, e_2 = ab + bc + ca.  At a
    prime p with valuations alpha <= beta <= gamma of the sorted weights,
    every g_j a_j has valuation at least alpha + beta, and v_p(e_2) is
    alpha + beta if beta < gamma, else at most v_p(abc) = alpha + 2 beta
    (e_2 | abc, module notes): at most 2 alpha + 2 beta either way, so
    e_2 divides every g_j^2 a_j^2.
    """
    recip = reciprocal_gamma0(triple)
    if recip.denominator != 1:
        raise InputError(f"1/gamma_0 = {recip} is not an integer")
    target = gamma2_ratio(triple).numerator
    sizes = sorted({m * m - 1 for m in range(2, recip.numerator + 1)
                    if recip.numerator % m == 0})
    reachable = [True] + [False] * target
    for s in sizes:
        for t in range(s, target + 1):
            if reachable[t - s]:
                reachable[t] = True
    return reachable[target]


class ScanResult(NamedTuple):
    """Integrality statistics at one level L.

    `total` counts all ordered positive triples with a+b+c <= L, which
    is C(L, 3); `hits` counts those with integral 1/gamma_0.
    """

    level: int
    hits: int
    total: int


def _hits(a: int, level: int) -> list:
    """The hits (a, b, c) of smallest weight a with a+b+c <= level, by k
    and then by b."""
    t = level - a
    hits = []
    for k in range(-(-a // 3), a * t // (t + 4 * a) + 1):
        r, s = a - k, a * k
        rt = r * t
        root = math.isqrt(rt * (rt - 4 * s))
        lo = max(a, -((root - rt) // (2 * r)))
        hi = min(2 * s // r, (rt + root) // (2 * r))
        g = math.gcd(r, s)
        r, s = r // g, s // g
        q = s * s
        hits += [(a, (d + s) // r, (s + q // d) // r)
                 for d in range(r * lo - s, r * hi - s + 1, r) if not q % d]
    return hits


def integral_triples(level: int) -> Iterator[Tuple[int, int, int]]:
    """Non-decreasing triples with a+b+c <= level and integral 1/gamma_0,
    in lexicographic order (see the module notes)."""
    for a in range(1, level // 3 + 1):
        yield from sorted(_hits(a, level))


def hits_by_sum(level: int) -> list:
    """Ordered hit counts per exact total weight, indices 0..level."""
    out = [0] * (level + 1)
    for a in range(1, level // 3 + 1):
        for _, b, c in _hits(a, level):
            out[a + b + c] += 6 if a < b < c else 3 if a < c else 1
    return out


def full_scan(max_level: int) -> list:
    """ScanResult for every level 3..max_level, from one pass to the
    largest."""
    if max_level < 3:
        raise InputError("max_level must be >= 3")
    hits = accumulate(hits_by_sum(max_level))
    return [ScanResult(level, count, math.comb(level, 3))
            for level, count in enumerate(hits) if level >= 3]
