"""Seeded op lists for the benchmark's workloads.

An op is one squot command line.  Each workload draws its inputs from
a population by stratified sampling: the population is sorted by cost
and cut into as many equal slices as there are ops, and the seed picks
one input per slice.  Different seeds thus give different inputs with
nearly the same cost profile, which keeps run-to-run spread low.  The
cost order is measured (see make_tables.py and tables/).  Slices are
disjoint, so no two ops of a run share a normalized input and squot's
unbounded ``lru_cache`` on ``hilbert_series`` never serves a timed op.

Op counts are given for a 20 s run and scale with ``--seconds``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from checks import group_closure, normalize

NOMINAL_SECONDS = 20

#: op_tail_s is the highest percentile with at least this many ops above.
TAIL_OPS = 10

#: Reach of the seed around each stratum's centre, in table entries.
NEIGHBOURS = 2

TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tables")


@dataclass(frozen=True)
class Op:
    kind: str            # a key of checks.CHECKERS
    argv: tuple
    weights: tuple = ()
    generators: tuple = ()  # (modulus, exponents) pairs
    level: int = 0

    @property
    def key(self):
        """The normalized input, which must not repeat within a run;
        circle ops share squot's cache whatever the subcommand."""
        if self.weights:
            return normalize(self.weights)
        if self.generators:
            return (self.kind, self.generators)
        return (self.kind, self.level)


def _count(nominal, seconds):
    return max(2 * TAIL_OPS, round(nominal * seconds / NOMINAL_SECONDS))


def stratified(rng, population, k):
    """k distinct items from a population in cost order: the centres of
    k equal slices, each moved by the seed to one of its NEIGHBOURS
    nearest neighbours on either side (fewer when slices are small)."""
    n = len(population)
    k = min(k, n)
    reach = min(NEIGHBOURS, (n // k - 1) // 2)
    return [population[(2 * i + 1) * n // (2 * k)
                       + rng.randint(-reach, reach)] for i in range(k)]


def _csv(values):
    return ",".join(str(v) for v in values)


def format_spec(item):
    """A table entry: weights "1,2,3" or generators "4:1,0,3;2:1,1,0"."""
    if isinstance(item[0], tuple):
        return ";".join(f"{m}:{_csv(e)}" for m, e in item)
    return _csv(item)


def parse_spec(spec):
    if ":" in spec:
        return tuple((int(m), tuple(int(x) for x in e.split(",")))
                     for m, e in (g.split(":") for g in spec.split(";")))
    return tuple(int(a) for a in spec.split(","))


def read_table(name):
    """The inputs of tables/<name>.txt, in cost order."""
    with open(os.path.join(TABLES, name + ".txt")) as fh:
        return [parse_spec(line.split()[0])
                for line in fh if line.strip() and not line.startswith("#")]


# ----------------------------------------------------- circle workloads


def laurent_op(weights):
    return Op("laurent", ("laurent", "--weights", _csv(weights),
                          "--order", "119"), weights=weights)


def hilbert_on_op(weights):
    return Op("hilbert_on", ("hilbert", "--weights", _csv(weights)),
              weights=weights)


def hilbert_off_op(weights):
    return Op("hilbert_off", ("hilbert", "--weights", _csv(weights), "--off"),
              weights=weights)


def sweep_n3_population():
    """The paper's n = 3 experiment: gcd-1 triples with weights <= 15,
    less (1,1,1), which every run includes."""
    return [w for w in combinations_with_replacement(range(1, 16), 3)
            if math.gcd(*w) == 1 and w != (1, 1, 1)]


GENERIC_LOW, GENERIC_HIGH, GENERIC_POOL = 100, 200, 300


def generic_large_population():
    """A fixed pool of pairwise-distinct gcd-1 triples with entries in
    [GENERIC_LOW, GENERIC_HIGH]."""
    rng = random.Random("generic_large pool")
    pool = set()
    while len(pool) < GENERIC_POOL:
        w = tuple(sorted(rng.sample(range(GENERIC_LOW, GENERIC_HIGH + 1), 3)))
        if math.gcd(*w) == 1:
            pool.add(w)
    return sorted(pool)


def degenerate_population():
    """Weight vectors with a repeated entry, not all equal, gcd 1: n = 4
    with entries at most 10, and n = 3 of the forms (a, a, a+k) and
    (a, a+k, a+k) with k = 1, 2 and a = 12..45."""
    pop = [w for w in combinations_with_replacement(range(1, 11), 4)
           if 1 < len(set(w)) < 4]
    for a in range(12, 46):
        for k in (1, 2):
            pop += [(a, a, a + k), (a, a + k, a + k)]
    return [w for w in pop if math.gcd(*w) == 1]


def sweep_n3(rng, seconds):
    """All three dispatch methods run: (1,1,1) is the only all-equal
    triple."""
    picked = stratified(rng, read_table("sweep_n3"), _count(90, seconds) - 1)
    return [laurent_op(w) for w in picked + [(1, 1, 1)]]


def generic_large(rng, seconds):
    """On-shell `hilbert` on distinct weights; the multisection,
    reconstruction and oracle path with numerators of degree about
    2(a+b+c)."""
    picked = stratified(rng, read_table("generic_large"), _count(24, seconds))
    return [hilbert_on_op(w) for w in picked]


def degenerate(rng, seconds):
    """Off-shell `hilbert` on repeated weights.  The cost of these ops
    is erratic in the weights (it depends on which factors cancel
    before the reduction), hence the measured order."""
    picked = stratified(rng, read_table("degenerate"), _count(30, seconds))
    return [hilbert_off_op(w) for w in picked]


# --------------------------------------------------------- finite_scan

FINITE_MAX_ORDER, FINITE_POOL = 48, 400


def _random_group(rng):
    n = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(2, 8)
        gens.append((m, tuple(rng.randrange(m) for _ in range(n))))
    return tuple(gens)


def finite_population():
    """A fixed pool of random diagonal groups: 1-2 generators, moduli
    <= 8, n = 2..4, order 2..FINITE_MAX_ORDER, one presentation each."""
    rng = random.Random("finite_scan pool")
    pool = {}
    while len(pool) < FINITE_POOL:
        gens = _random_group(rng)
        n = len(gens[0][1])
        elements = frozenset(group_closure(gens, n)[1])
        if 2 <= len(elements) <= FINITE_MAX_ORDER:
            pool.setdefault((n, elements), gens)
    return sorted(pool.values())


def finite_op(generators):
    gens = sum((("--gen", f"{m}:{_csv(e)}") for m, e in generators), ())
    return Op("finite", ("finite",) + gens + ("--order", "3"),
              generators=generators)


def finite_scan(rng, seconds):
    """Groups from the pool run as `finite --order 3`, plus `scan` runs
    at levels 300..400 that stay at most a tenth of the ops."""
    ops = [finite_op(g) for g in stratified(rng, read_table("finite_scan"),
                                            _count(40, seconds))]
    scans = max(1, len(ops) // 10)
    for i in range(scans):
        level = rng.randrange(300 + 100 * i // scans,
                              300 + 100 * (i + 1) // scans)
        ops.append(Op("scan", ("scan", "--max-level", str(level),
                               "--jobs", "1"), level=level))
    return ops


#: Workloads whose inputs come from a measured table: (population, op).
TABLED = {
    "sweep_n3": (sweep_n3_population, laurent_op),
    "generic_large": (generic_large_population, hilbert_on_op),
    "degenerate": (degenerate_population, hilbert_off_op),
    "finite_scan": (finite_population, finite_op),
}

WORKLOADS = {
    "sweep_n3": sweep_n3,
    "generic_large": generic_large,
    "degenerate": degenerate,
    "finite_scan": finite_scan,
}


def make_ops(workload, seed, seconds):
    """(ops in run order, count of repeated normalized inputs)."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, seconds)
    rng.shuffle(ops)
    repeated = len(ops) - len({op.key for op in ops})
    return ops, repeated
