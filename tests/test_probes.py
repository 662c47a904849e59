"""The CLI probes: one table of command lines, each with its exit code,
an optional check and an optional time bound in seconds.  Under pytest
each row runs in process through `squot.cli.main`, its bound checked as
elapsed time; `python tests/test_probes.py` runs each through the
`squot` script on PATH under its bound as a timeout, and exits 1 naming
every row that fails.  Rows run in a temporary directory, `{fixtures}`
read as the package's fixtures.  No row prints a traceback.  Exit 2
prints one `error:` line and no stdout, and the check gets that line;
exit 0 prints `json.dumps(document, indent=2)` and a newline, and the
check gets the document, or with `--text` the text.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from typing import Callable, NamedTuple, Optional

import squot
from squot.cli import main

FIXTURES = os.path.join(os.path.dirname(squot.__file__), "fixtures")


class Probe(NamedTuple):
    argv: str
    code: int = 0
    check: Optional[Callable] = None
    timeout: Optional[float] = None

    def args(self) -> list:
        return [a.format(fixtures=FIXTURES) for a in self.argv.split()]


def _laurent_13_14_15(doc) -> bool:
    # gamma_k printed from integers over one denominator, as Fractions
    want = squot.laurent_at_one(
        squot.hilbert_series((13, 14, 15)).on_shell, 119).coefficients
    return doc["result"]["coefficients"] == [str(c) for c in want]


def _levels_written(doc) -> bool:  # the --out JSON lines
    with open("scan1500.jsonl") as fh:
        return [json.loads(line) for line in fh] == doc["result"]["levels"]


def _scan_60(doc) -> bool:
    text = json.dumps(doc, indent=2) + "\n"  # the stdout, as checked
    return hashlib.sha256(text.encode()).hexdigest() == (
        "c6af43682779fc66f1ec9a11c01c614288913c081ebfd2ea5fe4ffe756a50b95")


PROBES = [
    Probe("hilbert --weights 1,2,2 --off"),
    Probe("laurent --series {fixtures}/o_n.txt --order 5"),
    Probe("hilbert --weights -3,5,7"),
    Probe("finite --gen 2:1,1 --gen 3:0,1 --order 3"),
    # no field for the identity that gamma_4 gives by construction
    Probe("finite --gen 2:1,0 --gen 3:0,1 --order 3", check=lambda d:
          "identityGamma3_2Gamma4_Gamma5" not in d["result"]
          and d["result"]["symplectic"]["passed"] is True),
    # |K_i| = 3, 2, 4: 2 + 1 + 3 pseudoreflections; 11 move two axes
    Probe("finite --gen 6:2,3,0 --gen 4:0,2,1 --order 3", check=lambda d: (
        d["result"]["primitivePseudoreflectionOrders"],
        d["result"]["pseudoreflectionCount"],
        d["result"]["twoCoordinateCount"]) == ([3, 2, 4], 6, 11)),
    # 997 character lanes; 16 lanes of Z/8 x Z/2 from five generators
    Probe("finite --gen 997:1,2,3 --order 3", timeout=60),
    Probe("finite --gen 8:1,0 --gen 8:0,4 --gen 8:1,4 --gen 8:3,4 "
          "--gen 8:5,0 --order 3", check=lambda d: d["result"]["order"] == 16),
    Probe("scan --max-level 12", check=lambda d: d["request"]["n"] == 3),
    # mirrored path; full certificate by kernel count; Kronecker words
    Probe("hilbert --weights 191,192,193 --oracle-verify 40", timeout=60),
    Probe("hilbert --weights 191,192,193 --oracle-verify 575", timeout=10),
    Probe("hilbert --weights 100,101,102,103 --oracle-verify 600",
          timeout=20),
    # seven pieces merged and lifted in 128-bit lanes
    Probe("hilbert --weights 2,3,5,7,11,13,17", timeout=60),
    # on shell in lowest terms: degree 46, two below the product
    Probe("hilbert --weights 1,1,3,4,5", check=lambda d:
          len(d["result"]["series"]["numerator"]) == 47),
    # (2, 1) beside the reduced on-shell passes, grouped into (1 - x^3)^3
    # Psi_2^2, not (1 - x^2)(1 - x^3)^2 Psi_2 Psi_3, in JSON and text
    Probe("hilbert --weights 1,1,2,4,6 --off", check=lambda d: (
        d["result"]["series"]["denominator"],
        d["result"]["series"].get("extraFactor"))
        == ([[3, 3], [4, 1], [5, 3], [7, 2]], [1, 2, 1])),
    Probe("hilbert --weights 1,1,2,4,6 --off --text", check=lambda t:
          t.endswith("/ (1-x^3)^3(1-x^4)(1-x^5)^3(1-x^7)^2(1 + 2*x + x^2)\n")),
    # the oracle by the kernel count, and at n = 7 by Kronecker words
    Probe("hilbert --weights 13,14,15 --oracle-verify 120", timeout=60),
    Probe("hilbert --weights 1,1,1,1,1,1,2 --off --oracle-verify 60"),
    # each piece over its exact image denominator
    Probe("hilbert --weights 150,175,196", timeout=60, check=lambda d: [
        sum(m * e for m, e in p["denominator"]) for p in d["result"]["pieces"]
    ] == [210, 70, 252]),
    # packed prefixes: six factors a piece; m = 1, 2 beside m near 200;
    # then n = 3 closed-form lattice sums
    Probe("hilbert --weights 60,97,130,171", timeout=60),
    Probe("hilbert --weights 100,101,102,103", timeout=60),
    Probe("hilbert --weights 100,101,102", timeout=60),
    Probe("hilbert --weights 101,150,199", timeout=60),
    # the merge and lift on 84,000 lanes; on 4,500 filled by 33-35 bits
    Probe("hilbert --weights 10000,12001,14999", timeout=20),
    Probe("hilbert --weights 500,501,502,503", timeout=20),
    # passes below PACKED_MIN_M; lattice sums that discard some j_1
    Probe("hilbert --weights 1,2,3,4 --off --oracle-verify 60"),
    Probe("hilbert --weights 6,10,15 --oracle-verify 90"),
    Probe("hilbert --weights 41,41,43 --off"),
    # every residue on shell from the start
    Probe("hilbert --weights 1,1,5,7 --off --oracle-verify 60"),
    Probe("hilbert --weights 110,110,111 --off", timeout=60),
    Probe("hilbert --weights 5,5,6,6,7 --off",
          check=lambda d: "extraFactor" in d["result"]["series"]),
    # graded factor inverses: p = 8; 4 and 3; 20; pieces divided by up to
    # 5^14 and printed as ints
    Probe("hilbert --weights 1,1,1,1,1,1,1,1,2 --off --oracle-verify 60",
          timeout=60),
    Probe("hilbert --weights 2,2,2,2,3,3,3 --off"),
    Probe("hilbert --weights 1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,2 --off",
          timeout=10),
    Probe("hilbert --weights 3,3,3,3,3,3,3,3,4,4,4,4,4,4,4,4,5,5,5,5,5,5,5,5",
          timeout=10, check=lambda d: d["result"]["pieces"] and all(
              type(c) is int for p in d["result"]["pieces"]
              for c in p["numerator"])),
    Probe("hilbert --weights 37,37,37,38,38,38,39,39,39,40,40,40,40,40,40",
          timeout=20),
    # an int above sys.maxsize; residue ints with too many digits
    Probe("hilbert --weights 99999999999999999999,1", code=2),
    Probe("hilbert --weights 1,1,9223372036854775807 --off", code=2),
    Probe("finite --gen 2:1,0 --gen 3:1", code=2, check=lambda e:
          e == "error: generators act on different dimensions\n"),
    # Psi_2 leaves the pass (1, -1); Psi_6 of 1,1,5,8 leaves (3, -1),
    # which multiplies the numerator before the division in w
    Probe("laurent --weights 5,5,6,6,7 --order 40", timeout=60),
    Probe("hilbert --weights 5,5,6,6,7 --off --oracle-verify 200"),
    Probe("laurent --weights 1,1,5,8 --order 40"),
    Probe("symplectic --weights 1,1,5,8 --order 20",
          check=lambda d: d["result"]["passed"] is True),
    Probe("laurent --weights 13,14,15 --order 119", timeout=60,
          check=_laurent_13_14_15),
    Probe("symplectic --weights 5,7,9 --order 60",
          check=lambda d: d["result"]["passed"] is True),
    # numerators of degree 7398, one not palindromic
    Probe("laurent --weights 1000,1201,1499 --order 119", timeout=60,
          check=lambda d: d["result"]["agreement"] is True),
    Probe("symplectic --series {fixtures}/su2_2v1.txt --order 100"),
    Probe("hilbert --weights 5,7,7,8 --off"),
    Probe("laurent --weights 4,5,20 --order 3"),
    Probe("finite --gen 4:1,3,2 --order 3"),
    Probe("hilbert --weights 101,108,115"),
    Probe("hilbert --weights 1,1,5,7 --off"),
    # the extra factor printed as a polynomial, like the numerator
    Probe("hilbert --weights 7,8,8,8 --text",
          check=lambda t: "Fraction(" not in t and "[[" not in t),
    Probe("scan --max-level 1500 --out scan1500", timeout=30,
          check=_levels_written),
    # --jobs has no effect
    Probe("scan --max-level 60 --jobs 2", check=_scan_60),
    Probe("scan --max-level 60 --jobs 1", check=_scan_60),
]


def failure(probe: Probe, code, out: str, err: str) -> Optional[str]:
    """Why this run of `probe` fails, or None."""
    if "Traceback" in err or code != probe.code:
        return f"exit {code}, not {probe.code}; stderr {err!r}"
    if code == 2 and (out or not err.startswith("error: ")
                      or err.count("\n") != 1):
        return f"stderr {err!r}"
    text = code == 2 or "--text" in probe.argv
    try:
        value = err if code == 2 else out if text else json.loads(out)
        if not text and out != json.dumps(value, indent=2) + "\n":
            return "stdout is not json.dumps(document, indent=2)"
        if probe.check is None or probe.check(value):
            return None
    except Exception as exc:  # a failed row, and the script goes on
        return f"check raised {exc!r}"
    return "check failed"


def run_all(argv):
    """Exit code, stdout and stderr of `main(argv)`, in process."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def pytest_generate_tests(metafunc):
    metafunc.parametrize("probe", PROBES, ids=[p.argv for p in PROBES])


def test_probe(probe, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run_all(probe.args())
    elapsed = time.perf_counter() - start
    assert failure(probe, code, out, err) is None
    assert probe.timeout is None or elapsed < probe.timeout


def run_installed() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for probe in PROBES:
            try:
                child = subprocess.run(["squot", *probe.args()],
                                       capture_output=True, text=True,
                                       timeout=probe.timeout)
                why = failure(probe, child.returncode, child.stdout,
                              child.stderr)
            except subprocess.TimeoutExpired:
                why = f"over {probe.timeout} s"
            if why:
                failed += 1
                print(f"FAIL squot {probe.argv}: {why}", file=sys.stderr)
    print(f"{len(PROBES) - failed} of {len(PROBES)} probes passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_installed())
