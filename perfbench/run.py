"""squot benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a squot checkout; squot is imported from ./src.
A workload's ops are squot command lines, run one at a time through
`squot.cli.main(argv)` with stdout captured (a closed loop with one
client), and checked afterwards against references computed here (see
checks.py and README.md).  The op list is run in ROUNDS rounds, each in
a fresh child process, so squot's cache never serves a timed op.
Times are normalized to a reference machine speed, measured by a
calibration kernel that runs between the ops (see calibration_time).

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced round and
the tracing overhead against the untraced rounds around it.  The line
before it is a report: provenance, op counts, the op_tail_s
percentile, fail_ratio and any failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Rounds of the op list per run; an op's latency is its median round.
ROUNDS = 3
#: calibration_time() on the reference machine, in a quiet period.
CALIBRATION_REF_S = 1.5e-3
#: A time is normalized by the median of this many calibrations on
#: either side of it: one calibration is a point sample of a speed that
#: changes within an op.
CALIBRATION_REACH = 4
#: Fresh interpreters started before each round to measure setup_s.
SETUP_SAMPLES = 3
#: Wall-clock budget of one run, below the 180 s a run may take.
RUN_BUDGET_S = 170

#: A fresh interpreter's set-up: import squot.cli and build its parser,
#: then print the wall-clock time at which that finished.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import squot.cli; squot.cli.build_parser(); print(time.time())")


# ------------------------------------------------------ child: one round


def calibration_time():
    """Seconds taken by a fixed piece of exact arithmetic like squot's
    own.  The collector is off, so that squot's heap does not bear on it.

    The machine's speed drifts by up to 1.5x within seconds (other
    tenants of the host), which the guest cannot see as steal or CPU
    time.  A time measured between calibrations is divided by the
    median of those nearest to it and multiplied by CALIBRATION_REF_S:
    seconds at the reference speed.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 300):
            acc += Fraction(k % 7 + 1, k)
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalize_times(times, calibrations):
    """Times at the reference speed; time i lies between calibrations i
    and i + 1."""
    return [t * CALIBRATION_REF_S / statistics.median(
                calibrations[max(0, i + 1 - CALIBRATION_REACH):
                             i + 1 + CALIBRATION_REACH])
            for i, t in enumerate(times)]


def run_round(workload, seed, seconds, traced):
    """Run the workload's ops once in this process; return the raw
    results."""
    sys.path.insert(0, SRC)
    import squot  # noqa: F401  (binds every module the tracer covers)
    import squot.cli
    from checks import References, check_outputs
    from workloads import make_ops

    ops, repeated = make_ops(workload, seed, seconds)
    refs = References(ops)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    outputs, latencies = [], []
    calibrations = [calibration_time()]
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = squot.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as a failed op, run goes on
                code = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        calibrations.append(calibration_time())
        outputs.append((code, out.getvalue(), err.getvalue()))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, failures = check_outputs(ops, outputs, refs)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    result = {
        "latencies": latencies,
        "calibrations": calibrations,
        "kinds": [op.kind for op in ops],
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "repeated_inputs": repeated,
        "op_counts": kinds,
        "stdout_bytes": sum(len(o[1].encode()) for o in outputs),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


# ----------------------------------------------------- parent: one run


def tail_rank(count):
    """(percentile, 0-based index) of the highest whole percentile with
    at least 10 ops above it, by nearest rank."""
    pct = max(0, 100 * (count - 10) // count)
    return pct, max(0, -(-pct * count // 100) - 1)


def measure_setup(deadline):
    """Normalized times from spawning a fresh interpreter to its having
    imported squot.cli and built the parser.  The end time comes from
    the child's own clock, so waiting for it to exit is not counted."""
    samples, calibrations = [], [calibration_time()]
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC],
                              stdout=subprocess.PIPE, check=True,
                              timeout=max(1.0, deadline - time.time()))
        samples.append(float(proc.stdout) - start)
        calibrations.append(calibration_time())
    return normalize_times(samples, calibrations)


def spawn_round(args, traced, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--round", "traced" if traced else "plain"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=max(1.0, deadline - time.time()))
    return json.loads(proc.stdout.decode().splitlines()[-1])


def git_commit():
    """The checkout's commit from .git, or 'unknown' outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--round", dest="round_kind",
                        choices=["plain", "traced"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.round_kind:
        result = run_round(args.workload, args.seed, args.seconds,
                           args.round_kind == "traced")
        print(json.dumps(result))
        return 0

    if not os.path.isfile(os.path.join(SRC, "squot", "cli.py")):
        print(f"error: no squot sources under {SRC}", file=sys.stderr)
        return 1
    # A traced run puts its traced round between two plain ones, so that
    # a drift in machine speed cancels out of trace.overhead_s.
    traced_flags = [False, True, False] if args.trace else [False] * ROUNDS
    deadline = time.time() + RUN_BUDGET_S
    setup, rounds = [], []
    try:
        for traced in traced_flags:
            if not args.trace:
                setup += measure_setup(deadline)
            rounds.append(spawn_round(args, traced, deadline))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    repeated = plain[0]["repeated_inputs"]
    for r in rounds:
        r["normalized"] = normalize_times(r["latencies"], r["calibrations"])
    # An op's latency is its median round; wall_s is the median round's
    # time to solution, the sum of its op latencies.  The few scans of
    # finite_scan count in wall_s only, so that the op percentiles are
    # those of one kind of op.
    lat = sorted(statistics.median(times) for kind, *times in zip(
        plain[0]["kinds"], *(r["normalized"] for r in plain))
        if kind != "scan")
    pct, rank = tail_rank(len(lat))
    walls = [sum(r["normalized"]) for r in plain]
    if args.trace:
        traced = rounds[1]
        layers = traced["layers"]
        layers["cli.stdout_bytes"] = (traced["stdout_bytes"], "bytes")
        layers["trace.overhead_s"] = (
            sum(traced["normalized"]) - statistics.fmean(walls), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "op_tail_s": {"value": lat[rank], "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    failures = [f for r in rounds for f in r["failures"]]
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "rounds": len(rounds),
        "round_wall_s": [sum(r["normalized"]) for r in rounds],
        "round_raw_wall_s": [sum(r["latencies"]) for r in rounds],
        "round_speed": [
            CALIBRATION_REF_S / statistics.median(r["calibrations"])
            for r in rounds],
        "op_counts": plain[0]["op_counts"],
        "op_tail_percentile": pct,
        "op_tail_ops_above": len(lat) - 1 - rank,
        "fail_ratio": {"value": failed / attempted, "unit": "ratio",
                       "failed": failed, "attempted": attempted},
        "repeated_inputs": repeated,
        "failures": failures[:20],
    }
    if args.trace:
        total = sum(v for k, (v, _) in traced["layers"].items()
                    if k.endswith(".self_s"))
        report["self_time_shares"] = {
            k[:-len(".self_s")]: round(v / total, 4)
            for k, (v, _) in sorted(traced["layers"].items(),
                                    key=lambda kv: -kv[1][0])
            if k.endswith(".self_s") and v} if total else {}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and repeated == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
