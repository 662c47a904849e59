"""Fault ledger: faults injected into the pipeline, each of which a
check must catch, so that no check holds by construction unnoticed."""

import random
from unittest import mock

import pytest

from squot.errors import SquotError
from squot.exact import SLACK
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
