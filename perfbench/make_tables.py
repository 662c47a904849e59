"""Regenerate a cost-ordered input table under perfbench/tables/.

    python3 perfbench/make_tables.py WORKLOAD

WORKLOAD is sweep_n3, generic_large, degenerate or finite_scan.

Run from the root of a squot checkout.  Every candidate of the
workload's population (see workloads.py) is run as its op through
`squot.cli.main` in REPEATS passes, each pass in fresh processes of
CHUNK candidates (so squot's cache never serves a repeat and stays
small).  Times are normalized as in run.py.  The table lists the
candidates fastest first, by their median time, and leaves out those
above the workload's cap.  Only the order matters to the benchmark: it
is the cost order of its stratified sampling, so a table made on other
hardware, or with a faster squot, still works; it only makes the
spread between seeds a little wider.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import SRC, calibration_time, normalize_times
from workloads import TABLED, TABLES, format_spec

REPEATS = 3
CHUNK = 60
#: Candidates slower than this (seconds) are left out, to keep a run short.
MAX_COST = {"degenerate": 0.8, "finite_scan": 1.0}


def time_chunk(workload, start, stop):
    """Normalized seconds per candidate of population[start:stop], one
    pass."""
    sys.path.insert(0, SRC)
    import squot.cli
    population, make_op = TABLED[workload]
    times, calibrations = [], [calibration_time()]
    for item in population()[start:stop]:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = squot.cli.main(list(make_op(item).argv))
            times.append(time.perf_counter() - t0)
        calibrations.append(calibration_time())
        if code != 0:
            raise SystemExit(f"{item}: exit {code}")
    return normalize_times(times, calibrations)


def main(workload):
    population = TABLED[workload][0]()
    samples = [[] for _ in population]
    for _ in range(REPEATS):
        for start in range(0, len(population), CHUNK):
            proc = subprocess.run(
                [sys.executable, __file__, workload, str(start),
                 str(start + CHUNK)],
                stdout=subprocess.PIPE, check=True)
            for i, t in enumerate(json.loads(proc.stdout), start):
                samples[i].append(t)
    cost = [statistics.median(ts) for ts in samples]
    cap = MAX_COST.get(workload)
    rows = sorted((t, item) for t, item in zip(cost, population)
                  if cap is None or t <= cap)
    path = os.path.join(TABLES, workload + ".txt")
    with open(path, "w") as fh:
        fh.write(f"# {workload}: input, then the median of {REPEATS} "
                 f"normalized times of its op in ms, fastest first.\n"
                 f"# Python {platform.python_version()}, "
                 f"{os.cpu_count()} CPUs.\n")
        if cap is not None:
            fh.write(f"# {len(population) - len(rows)} candidates slower "
                     f"than {cap} s left out.\n")
        for t, item in rows:
            fh.write(f"{format_spec(item)} {1000 * t:.1f}\n")


if __name__ == "__main__":
    if len(sys.argv) == 4:
        print(json.dumps(time_chunk(sys.argv[1], int(sys.argv[2]),
                                    int(sys.argv[3]))))
    else:
        main(sys.argv[1])
