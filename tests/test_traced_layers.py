"""The benchmark tracer's view of squot stays valid.

`perfbench/tracing.py` wraps 20 named squot functions from outside and
reads some of their arguments by position (for example
`rational_reconstruct`'s `prefix.order`).  A refactor that renames one
of them, moves an argument or drops an attribute breaks the benchmark's
layer timings without failing any other test.  This probe installs the
tracer in a fresh interpreter (`-B`, so nothing is written under
`perfbench/`), runs one command per code path through `squot.cli.main`
and checks that every covered layer was called and every count read a
plausible value.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
PERFBENCH = os.path.join(HERE, "..", "perfbench")

COMMANDS = [
    ["hilbert", "--weights", "1,2,3"],
    ["hilbert", "--weights", "1,2,2", "--off"],
    ["laurent", "--weights", "1,2,3", "--order", "3"],
    ["finite", "--gen", "2:1,1", "--order", "2"],
    ["scan", "--max-level", "12"],
]

PROBE = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import squot.cli
from tracing import COVERED, Tracer
tracer = Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(squot.cli.main(argv))
print(json.dumps({"covered": len(COVERED), "codes": codes,
                  "calls": tracer.calls, "counts": tracer.counts}))
"""


def test_every_covered_layer_traced():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, SRC, PERFBENCH,
         json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(COMMANDS)
    assert len(report["calls"]) == report["covered"] == 20
    assert {name for name, calls in report["calls"].items()
            if calls <= 0} == set()
    for name, (num, den) in report["counts"].items():
        assert num > 0, name
        if den is not None:
            assert 0 < num <= den, name
