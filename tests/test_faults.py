"""Fault ledger: faults injected into the pipeline, each of which a
check must catch, so that no check holds by construction unnoticed:
counts of the Molien window and the Laurent data that `finite` checks
against its closed forms, results of the averaging, merging and lattice
steps for `circle`, and the Laurent numerators that `laurent` checks
against its closed forms."""

import functools
import random
import traceback
from fractions import Fraction
from unittest import mock

import pytest

import squot.circle
import squot.cli
import squot.finite
from squot.circle import (_averaged_reciprocity, _exact_image, _lanes,
                          hilbert_series)
from squot.cli import build_parser, main
from squot.errors import ClosedFormMismatch, OracleMismatch, SquotError
from squot.exact import SLACK, QPolynomial, RationalFunction, cleared
from squot.finite import FiniteDiagonalGroup, analyze_group, invariant_counts


def parse_group(spec):
    """'m:e1,...,en;m:...' -> [(m, (e1, ..., en)), ...]"""
    gens = []
    for gen in spec.split(";"):
        m, e = gen.split(":")
        gens.append((int(m), tuple(int(x) for x in e.split(","))))
    return gens


def random_group(rng):
    """At most 2 generators of modulus <= 8 on n <= 4 coordinates."""
    n = rng.randint(1, 4)
    gens = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(1, 8)
        gens.append(f"{m}:" + ",".join(str(rng.randrange(m))
                                        for _ in range(n)))
    return ";".join(gens)


_rng = random.Random(38)
MOLIEN_GROUPS = [
    "5:1,0,0;7:6,6,5",  # a half-length window misses +-1 at count 32
    "2:1,1;3:0,1",
    "6:2,3,0;4:0,2,1",
    "4:1,2",
    "8:1,0;8:0,4",
    "7:1,2,4,1",
] + [random_group(_rng) for _ in range(10)]


@pytest.mark.parametrize("spec", MOLIEN_GROUPS)
def test_molien_counts_single_fault(spec):
    """A count off by one anywhere in the window molien_series reads,
    degrees 0 through the ansatz degree plus SLACK, makes analyze_group
    raise: past the numerator's degree the SLACK verification fails,
    and below it the wrong numerator breaks reciprocity or a gamma
    check.  The window is pinned whole, so a shorter one must bring its
    own certificate."""
    group = FiniteDiagonalGroup.from_generators(parse_group(spec))
    top = 2 * sum(group.coordinate_orders()) + SLACK
    counts = invariant_counts(group, top)
    for k in range(top + 1):
        for delta in (1, -1):
            faulty = counts[:]
            faulty[k] += delta
            with mock.patch("squot.finite.invariant_counts",
                            return_value=faulty) as fake:
                with pytest.raises(SquotError):
                    analyze_group(group)
            fake.assert_called_once_with(group, top)


# The finite ledger: the expansion analyze_group reads, its pole order
# hit by +-1, or one of gamma_0..gamma_5 by +-1/|G|.
FINITE_GROUPS = ["2:1,1", "3:1,2", "4:1,3,2", "2:1,0;3:0,1"]
FINITE_SITES = ["pole order", *range(6)]


@pytest.mark.parametrize("spec", FINITE_GROUPS)
@pytest.mark.parametrize("site", FINITE_SITES, ids=str)
@pytest.mark.parametrize("delta", [1, -1])
def test_finite_closed_form_single_fault(spec, site, delta, capsys):
    """Each fault raises ClosedFormMismatch: a pole order off 2n, or a
    gamma_k off its closed form.  gamma_4 is the series value that q is
    solved from, so a fault there moves the closed form of gamma_5 by
    2/|G| and is caught at gamma_5.  `finite` exits 3 with one line."""
    group = FiniteDiagonalGroup.from_generators(parse_group(spec))
    real = squot.finite.laurent_at_one

    def fault(f, order):
        ex = real(f, order)
        if site == "pole order":
            return ex._replace(pole_order=ex.pole_order + delta)
        scale, nums = cleared(_bumped_list(
            ex.coefficients, site, Fraction(delta, group.order)))
        return ex._replace(numerators=tuple(nums), scale=scale)
    want = ("pole order" if site == "pole order"
            else f"gamma{5 if site == 4 else site} = ")
    argv = ["finite", *(a for gen in spec.split(";") for a in ("--gen", gen)),
            "--order", "3"]
    with mock.patch.object(squot.finite, "laurent_at_one", fault):
        with pytest.raises(ClosedFormMismatch, match=want):
            analyze_group(group)
        assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"verification failure: group of order "
                          f"{group.order}: {want}")


# The circle ledger: one +-1 fault per run of hilbert_series, at the
# default oracle degree, at each site below.
CIRCLE_WEIGHTS = [(5, 7, 9), (13, 14, 15), (1, 3, 7), (3, 4, 5, 7),
                  (1, 1, 5, 7), (2, 2, 3, 3, 5), (5, 5, 6, 6, 7),
                  (7, 8, 8, 8)]


def _bumped_list(values, k, delta):
    values = list(values)
    values[k] += delta
    return values


def _bumped_numerator(f, k, delta):
    return RationalFunction(
        QPolynomial(_bumped_list(f.numerator.coeffs, k, delta)),
        f.denominator)


def _merged_size(merged):
    """The coefficients of the packed merged sum (`_cofactor_sum`)."""
    packed, width = merged[:2]
    return len(QPolynomial(_lanes(packed, width)[0]).coeffs)


def _bumped_merged(merged, k, delta):
    """The packed merged sum with lane k hit by delta."""
    packed, width, *rest = merged
    return (packed + (delta << k * width), width, *rest)


def _bumped_lattice(exponents, k, delta):
    """Exponent k's monomial added once more (+1) or dropped (-1)."""
    return exponents + [exponents[k]] if delta > 0 \
        else exponents[:k] + exponents[k + 1:]


#: site -> (the name patched in squot.circle, the number of entries of
#: one result that can be hit, the result with entry k hit by delta)
CIRCLE_SITES = {
    "pair_average": (
        "pair_average", lambda f: len(f.numerator.coeffs),
        _bumped_numerator),
    "u_average": (
        "u_average", lambda f: len(f.numerator.coeffs), _bumped_numerator),
    "merged sum": (
        "hilbert_off_clustered", lambda r: _merged_size(r[0]),
        lambda r, k, delta: (_bumped_merged(r[0], k, delta), r[1])),
    "multisected window": ("multisected_prefix", len, _bumped_list),
    "lattice monomial": ("_lattice_exponents", len, _bumped_lattice),
}

#: The check that raised, named by the innermost frame of its traceback
#: (`_mirrored` by its caller too) -> what it checks.
CIRCLE_CATCHERS = {
    "u_average._mirrored": "u_average's SLACK mirror window",
    "pair_average": "pair_average's division by (1 - y^2)^r",
    "pair_average._mirrored": "pair_average's mirror",
    "hilbert_off_clustered": "the division by +-a^(2p-2)",
    "hilbert_on_distinct": "the lift's leftover check",
    "check_reciprocity": "check_reciprocity",
    "verify_against_oracle": "the oracle",
}


def _catcher(exc):
    names = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    return names[-1] if names[-1] != "_mirrored" else names[-2] + "._mirrored"


def _faulty(site, real, sizes, call=None, k=0, delta=0):
    """`real`, the function patched at the site, recording the size of
    each result in `sizes`, with entry k of the result of its call
    number `call` hit by delta."""
    _, size, bump = CIRCLE_SITES[site]

    def run(*args):
        out = real(*args)
        sizes.append(size(out))
        return bump(out, k, delta) if len(sizes) - 1 == call else out
    return run


@functools.cache
def circle_ledger(site):
    """(weights, call, k, delta, the catcher or None) for every fault
    at the site on every input of CIRCLE_WEIGHTS."""
    name = CIRCLE_SITES[site][0]
    real = getattr(squot.circle, name)
    rows = []
    for weights in CIRCLE_WEIGHTS:
        sizes = []
        with mock.patch.object(squot.circle, name,
                               _faulty(site, real, sizes)):
            hilbert_series(weights)
        for call, size in enumerate(sizes):
            for k in range(size):
                for delta in (1, -1):
                    fault = _faulty(site, real, [], call, k, delta)
                    with mock.patch.object(squot.circle, name, fault):
                        try:
                            hilbert_series(weights)
                            caught = None
                        except SquotError as exc:
                            caught = _catcher(exc)
                    rows.append((weights, call, k, delta, caught))
    return rows


@pytest.mark.parametrize("site", CIRCLE_SITES)
def test_circle_single_fault(site):
    """Every +-1 fault at the site, one per run of hilbert_series at the
    default oracle degree, raises a SquotError."""
    rows = circle_ledger(site)
    assert rows
    missed = [row[:4] for row in rows if row[4] is None]
    assert not missed, f"{len(missed)} faults exit 0, first {missed[0]}"


def test_every_circle_check_catches():
    """Each check of the circle pipeline is the first to catch at least
    one fault of the ledger, so none of them holds by construction."""
    caught = {row[4] for site in CIRCLE_SITES for row in circle_ledger(site)}
    silent = [CIRCLE_CATCHERS[c] for c in CIRCLE_CATCHERS if c not in caught]
    assert not silent, f"catch no fault: {silent}"


@pytest.mark.parametrize("delta", [1, -1])
def test_mirrored_fault_needs_full_oracle(delta):
    """The known miss: delta at k = C // 3 of the third averaged piece
    of (191,192,193), and eps * delta at its mirror C - k (C and eps
    from `_averaged_reciprocity`), keeps every mirror and reciprocity,
    and the default oracle degree lets it through.  The full
    certificate, the oracle through degree 575, half the numerator's
    1150, catches it."""
    real = squot.circle.pair_average
    calls = []

    def fault(f, a, rest):
        out = real(f, a, rest)
        calls.append(a)
        if len(calls) == 3:
            top, eps = _averaged_reciprocity(
                f, _exact_image(f.denominator, a), a)
            k = top // 3
            out = _bumped_numerator(_bumped_numerator(out, k, delta),
                                    top - k, eps * delta)
        return out
    with mock.patch.object(squot.circle, "pair_average", fault):
        with pytest.raises(OracleMismatch):
            hilbert_series((191, 192, 193), oracle_degree=575)
    assert len(calls) == 3


# The laurent ledger: gamma_0, gamma_2 and gamma_3, the coefficients
# with a closed form, each hit by +-1 in the integer core's numerator.
LAURENT_WEIGHTS = [(5, 7, 9), (13, 14, 15), (1, 3, 7), (4, 4, 9),
                   (3, 4, 5, 7)]


@pytest.mark.parametrize("weights", LAURENT_WEIGHTS, ids=str)
@pytest.mark.parametrize("k", [0, 2, 3])
@pytest.mark.parametrize("delta", [1, -1])
def test_laurent_closed_form_single_fault(weights, k, delta, capsys):
    """n_k + delta over the shared D moves gamma_k by 1/D; the closed
    form comparison, n * D against n_k times the closed form's
    denominator, raises ClosedFormMismatch, and `laurent` exits 3."""
    real = squot.cli.laurent_at_one

    def fault(f, order):
        ex = real(f, order)
        return ex._replace(
            numerators=tuple(_bumped_list(ex.numerators, k, delta)))
    argv = ["laurent", "--weights", ",".join(map(str, weights))]
    with mock.patch.object(squot.cli, "laurent_at_one", fault):
        args = build_parser().parse_args(argv)
        with pytest.raises(ClosedFormMismatch, match=f"gamma{k} = "):
            args.func(args)
        assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: weights ")


@pytest.mark.parametrize("weights", LAURENT_WEIGHTS, ids=str)
@pytest.mark.parametrize("command", ["laurent", "symplectic"])
@pytest.mark.parametrize("delta", [1, -1])
def test_circle_pole_order_single_fault(weights, command, delta, capsys):
    """A pole order off 2n - 2 by delta raises ClosedFormMismatch: the
    record of n weights is checked against it, and `laurent` and
    `symplectic` exit 3 with one line."""
    real = squot.cli.laurent_at_one

    def fault(f, order):
        ex = real(f, order)
        return ex._replace(pole_order=ex.pole_order + delta)
    argv = [command, "--weights", ",".join(map(str, weights)), "--order", "3"]
    with mock.patch.object(squot.cli, "laurent_at_one", fault):
        assert main(argv) == 3
    out, err = capsys.readouterr()
    pole = 2 * len(weights) - 2
    assert (out, err) == ("", f"verification failure: weights {weights}: "
                              f"pole order {pole + delta} != {pole}\n")
