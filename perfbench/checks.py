"""Reference computations and per-op output checks.

Every check decodes the mathematical content of a squot JSON document
and compares it with values computed here, independently of squot:
series coefficients against invariant-monomial counts, Laurent data
against closed forms, and scan statistics against a unit-fraction
count.  Nothing compares JSON bytes, key order or the way a
denominator is written, so an output may change its layout (for
example a cyclotomic denominator, or a dropped ``extraFactor``
because the factor cancelled) and still pass, as long as it describes
the same rational function.

A check returns a list of failure messages, each naming the check; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate

#: Series coefficients are compared through at least this degree, twice
#: squot's default oracle degree of 30.
CHECK_DEGREE = 60

#: When the numerator degree is at most this, the comparison runs
#: through the whole numerator, so that any wrong numerator coefficient
#: shows; above it the leading Laurent coefficient covers the numerator.
FULL_NUMERATOR_LIMIT = 256

#: S_1..S_60 need gamma_0..gamma_119, the order the sweep asks for.
SWEEP_S_ORDER = 60


def normalize(weights):
    """Sorted positive primitive form of a weight vector."""
    mags = sorted(abs(a) for a in weights)
    g = math.gcd(*mags)
    return tuple(a // g for a in mags)


# ---------------------------------------------------------------- series


def _rationals(values):
    return [Fraction(str(v)) for v in values]


def decode_series(payload):
    """(numerator, [(m, e)], extra factor) from a series payload."""
    num = _rationals(payload["numerator"])
    factors = [(int(m), int(e)) for m, e in payload["denominator"]]
    extra = _rationals(payload.get("extraFactor", [1]))
    return num, factors, extra


def expand_series(payload, degree):
    """Taylor coefficients 0..degree of numerator / denominator."""
    num, factors, extra = decode_series(payload)
    coeffs = num[:degree + 1] + [Fraction(0)] * (degree + 1 - len(num))
    for m, e in factors:
        for _ in range(e):
            for k in range(m, degree + 1):
                coeffs[k] += coeffs[k - m]
    if extra != [1]:
        if not extra or not extra[0]:
            raise ValueError("extra factor vanishes at x = 0")
        out = []
        for k in range(degree + 1):
            acc = coeffs[k]
            for j in range(1, min(k, len(extra) - 1) + 1):
                acc -= extra[j] * out[k - j]
            out.append(acc / extra[0])
        coeffs = out
    return coeffs


def _divide_out_one_minus_x(poly):
    """(order of vanishing at x = 1, value of the cofactor at 1)."""
    order = 0
    while poly and sum(poly) == 0:
        # p = (1 - x) q, and q's coefficients are p's prefix sums
        poly = list(accumulate(poly[:-1]))
        order += 1
    if not poly:
        raise ValueError("zero polynomial")
    return order, sum(poly)


def leading_laurent(payload):
    """(pole order at x = 1, gamma_0) of a series payload, read off the
    factored form: (1 - x^m) = (1 - x)(1 + ... + x^(m-1)) is m at 1."""
    num, factors, extra = decode_series(payload)
    vn, n1 = _divide_out_one_minus_x(num)
    ve, e1 = _divide_out_one_minus_x(extra)
    scale = Fraction(1)
    for m, e in factors:
        scale *= Fraction(m) ** e
    pole = sum(e for _, e in factors) + ve - vn
    return pole, n1 / (scale * e1)


def check_degree(payload):
    """Degree through which a payload's coefficients are compared."""
    top = len(payload["numerator"]) - 1
    if top <= FULL_NUMERATOR_LIMIT:
        return max(CHECK_DEGREE, top)
    return CHECK_DEGREE


# ------------------------------------------------------ reference counts


def circle_off_counts(weights, degree):
    """Invariant monomials z^alpha zbar^beta of the circle action, per
    total degree 0..degree.

    by_degree[d] maps a charge s to the number of monomials z^alpha
    with |alpha| = d and sum a_i alpha_i = s; an invariant pairs two
    such monomials of equal charge.
    """
    by_degree = [dict() for _ in range(degree + 1)]
    by_degree[0][0] = 1
    for a in weights:
        for d in range(1, degree + 1):
            cur = by_degree[d]
            for s, c in by_degree[d - 1].items():
                cur[s + a] = cur.get(s + a, 0) + c
    counts = []
    for k in range(degree + 1):
        total = 0
        for d in range(k + 1):
            left, right = by_degree[d], by_degree[k - d]
            if len(left) > len(right):
                left, right = right, left
            total += sum(c * right.get(s, 0) for s, c in left.items())
        counts.append(total)
    return counts


def circle_on_counts(weights, degree):
    """On-shell coefficients: the off-shell counts times (1 - x^2)."""
    off = circle_off_counts(weights, degree)
    return [off[k] - (off[k - 2] if k >= 2 else 0) for k in range(degree + 1)]


def gamma0_n3(weights):
    """gamma_0 of the on-shell series for three weights."""
    a, b, c = weights
    return Fraction(a * b + a * c + b * c, (a + b) * (a + c) * (b + c))


def group_closure(generators, dimension):
    """Elements of the group generated by (modulus, exponents) pairs, as
    exponent vectors mod the common modulus M (entry k means
    exp(2 pi i k / M)); returns (M, set of vectors)."""
    big = math.lcm(*(m for m, _ in generators))
    steps = [tuple(e * (big // m) % big for e in exps)
             for m, exps in generators]
    identity = (0,) * dimension
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for g in steps:
                h = tuple((x + y) % big for x, y in zip(el, g))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return big, seen


def reflection_orders(elements, dimension):
    """Per axis, the order of the subgroup of elements moving only that
    axis (1 when there is none)."""
    orders = [1] * dimension
    for el in elements:
        moved = [i for i, x in enumerate(el) if x]
        if len(moved) == 1:
            orders[moved[0]] += 1
    return orders


def finite_counts(generators, dimension, degree):
    """Invariant monomials z^alpha zbar^beta of a diagonal group, per
    total degree 0..degree, by counting states (degree, character)."""
    moduli = [m for m, _ in generators]
    steps = []
    for i in range(dimension):
        plus = tuple(exps[i] % m for m, exps in generators)
        steps.append(plus)
        steps.append(tuple(-x % m for x, m in zip(plus, moduli)))
    zero = (0,) * len(generators)
    by_degree = [dict() for _ in range(degree + 1)]
    by_degree[0][zero] = 1
    for step in steps:
        for d in range(1, degree + 1):
            cur = by_degree[d]
            for state, c in by_degree[d - 1].items():
                key = tuple((x + y) % m for x, y, m in zip(state, step, moduli))
                cur[key] = cur.get(key, 0) + c
    return [layer.get(zero, 0) for layer in by_degree]


def symplectic_residuals(gammas, max_order):
    """S_m = sum_k (-1)^k C(m-1, k) gamma_(m+k) for m = 1..max_order."""
    return [sum((-1) ** k * math.comb(m - 1, k) * gammas[m + k]
                for k in range(m))
            for m in range(1, max_order + 1)]


def unit_fraction_hits(level):
    """hits[s]: ordered positive triples (a, b, c) with a + b + c = s and
    1/a + 1/b + 1/c the reciprocal of an integer, i.e. ab + bc + ca
    dividing abc; indices 0..level."""
    hits = [0] * (level + 1)
    for a in range(1, level // 3 + 1):
        for b in range(a, (level - a) // 2 + 1):
            p, s = a * b, a + b
            for c in range(b, level - a - b + 1):
                if p * c % (p + s * c) == 0:
                    hits[a + b + c] += (1 if a == c else
                                        3 if a == b or b == c else 6)
    return hits


class References:
    """Reference values shared by the ops of one run."""

    def __init__(self, ops):
        levels = [op.level for op in ops if op.kind == "scan"]
        per_sum = unit_fraction_hits(max(levels)) if levels else []
        self.scan_hits = [sum(per_sum[:k + 1]) for k in range(len(per_sum))]


# ------------------------------------------------------------ the checks


def _compare_series(label, payload, counts, degree):
    got = expand_series(payload, degree)
    for k in range(degree + 1):
        if got[k] != counts[k]:
            return [f"{label}: coefficient of x^{k} is {got[k]}, "
                    f"the invariant count is {counts[k]}"]
    return []


def check_hilbert(op, doc, refs):
    weights = normalize(op.weights)
    n = len(weights)
    off = op.kind == "hilbert_off"
    payload = doc["result"]["series"]
    failures = []
    degree = check_degree(payload)
    counts = (circle_off_counts if off else circle_on_counts)(weights, degree)
    failures += _compare_series("series", payload, counts, degree)
    if n >= 2:
        pole, gamma0 = leading_laurent(payload)
        want_pole = 2 * n - 1 if off else 2 * n - 2
        if pole != want_pole:
            failures.append(f"pole-order: {pole}, expected {want_pole}")
        if n == 3:
            want = gamma0_n3(weights) / (2 if off else 1)
            if gamma0 != want:
                failures.append(f"gamma0: {gamma0}, expected {want}")
    return failures


def check_laurent_n3(op, doc, refs):
    weights = normalize(op.weights)
    result = doc["result"]
    gammas = _rationals(result["coefficients"])
    failures = []
    if result["poleOrder"] != 4:
        failures.append(f"pole-order: {result['poleOrder']}, expected 4")
    if len(gammas) < 2 * SWEEP_S_ORDER:
        return failures + [f"coefficients: {len(gammas)} < "
                           f"{2 * SWEEP_S_ORDER}"]
    if gammas[0] != gamma0_n3(weights):
        failures.append(f"gamma0: {gammas[0]}, expected "
                        f"{gamma0_n3(weights)}")
    if gammas[1] != 0:
        failures.append(f"gamma1: {gammas[1]}, expected 0")
    closed = Fraction(result["closedForms"]["gamma2"])
    if not gammas[2] == gammas[3] == closed:
        failures.append(f"gamma2/gamma3: {gammas[2]}, {gammas[3]}, closed "
                        f"form {closed}")
    bad = [m for m, s in enumerate(
        symplectic_residuals(gammas, SWEEP_S_ORDER), start=1) if s]
    if bad:
        failures.append(f"symplectic: S_m != 0 for m in {bad[:5]}")
    return failures


def check_finite(op, doc, refs):
    n = len(op.generators[0][1])
    _, elements = group_closure(op.generators, n)
    size = len(elements)
    result = doc["result"]
    failures = []
    if result["order"] != size:
        failures.append(f"group-order: {result['order']}, expected {size}")
    payload = result["series"]
    degree = check_degree(payload)
    failures += _compare_series("series", payload,
                                finite_counts(op.generators, n, degree),
                                degree)
    laurent = result["laurent"]
    gammas = _rationals(laurent["coefficients"])
    if laurent["poleOrder"] != 2 * n:
        failures.append(f"pole-order: {laurent['poleOrder']}, "
                        f"expected {2 * n}")
    quad = sum(m * m - 1 for m in reflection_orders(elements, n))
    want = [Fraction(1, size), Fraction(0), Fraction(quad, 12 * size),
            Fraction(quad, 12 * size)]
    for k, w in enumerate(want):
        if k >= len(gammas) or gammas[k] != w:
            got = gammas[k] if k < len(gammas) else None
            failures.append(f"gamma{k}: {got}, expected {w}")
    if len(gammas) >= 6:
        bad = [m for m, s in enumerate(symplectic_residuals(gammas, 3),
                                       start=1) if s]
        if bad:
            failures.append(f"symplectic: S_m != 0 for m in {bad}")
    return failures


def check_scan(op, doc, refs):
    records = doc["result"]["levels"]
    failures = []
    levels = [r["level"] for r in records]
    if levels != list(range(3, op.level + 1)):
        failures.append(f"levels: {levels[:3]}..{levels[-3:]}, expected "
                        f"3..{op.level}")
    for r in records:
        level = r["level"]
        if r["total"] != math.comb(level, 3):
            failures.append(f"total at level {level}: {r['total']}, "
                            f"expected {math.comb(level, 3)}")
            break
        if level < len(refs.scan_hits) and r["hits"] != refs.scan_hits[level]:
            failures.append(f"hits at level {level}: {r['hits']}, "
                            f"expected {refs.scan_hits[level]}")
            break
    return failures


CHECKERS = {
    "laurent": check_laurent_n3,
    "hilbert_on": check_hilbert,
    "hilbert_off": check_hilbert,
    "finite": check_finite,
    "scan": check_scan,
}


def check_op(op, stdout, refs):
    """Failure messages for one op's stdout; [] when it is correct."""
    try:
        doc = json.loads(stdout)
        return CHECKERS[op.kind](op, doc, refs)
    except (ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        return [f"decode: {type(exc).__name__}: {exc}"]


def check_outputs(ops, outputs, refs):
    """(count of failed ops, messages naming the op and the check) for
    the (exit code, stdout, stderr) of each op."""
    failed, failures = 0, []
    for i, (op, (code, stdout, stderr)) in enumerate(zip(ops, outputs)):
        if code != 0:
            msgs = [f"exit: {code} {stderr.strip()[-200:]}"]
        else:
            msgs = check_op(op, stdout, refs)
        failed += bool(msgs)
        failures += [f"op {i} `{' '.join(op.argv)}`: {m}" for m in msgs]
    return failed, failures
