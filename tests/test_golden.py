"""Byte-for-byte CLI output against recorded golden data.

`tests/golden/cli_outputs.json` maps each command line (arguments joined
by single spaces) to its exact stdout.  Fixture files are named relative
to the package's `fixtures/` directory, which is the working directory
while the commands run, so the recorded requests do not depend on where
the repository lives.

Regenerate the data (only when an output change is intended and
declared) with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from io import StringIO
from unittest import mock

import pytest

from squot.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "cli_outputs.json")
FIXTURES = os.path.join(HERE, "..", "src", "squot", "fixtures")

WEIGHTS = ["1,2,3", "1,2,2", "7,8,8,8", "1,1,1,2", "3,3,3", "5,7,7,8",
           "2,2,3,3,5", "13,13,14,15"]
SERIES = ["o_n.txt", "su2_2v1.txt", "torus_2x4.txt", "torus_2x5.txt"]
SUBGROUPS = [
    [(2, (1, 1))],
    [(3, (1, 2))],
    [(4, (1, 1))],
    [(5, (1, 2))],
    [(2, (1, 0)), (2, (0, 1))],
    [(2, (1, 0)), (3, (0, 1))],
    [(4, (1, 2)), (2, (0, 1))],
    [(6, (1, 5))],
    [(3, (1, 1, 1))],
    [(2, (1, 1, 0)), (2, (0, 1, 1))],
    [(4, (1, 3, 2))],
    [(5, (1, 2, 3))],
    [(1, (0, 0))],
    [(8, (1, 3, 5, 7)), (4, (0, 1, 2, 3))],
    [(6, (1, 2, 3, 4)), (4, (1, 0, 1, 0))],
]


#: sha256 of the exact stdout of large commands, whose output is too
#: long to keep in the golden file: the generic path at weights above
#: 100 (two of them with weights sharing factors, where each piece is
#: printed over its exact image denominator, shorter than its input's
#: denominator), the residue path with a mirrored half, Laurent data at
#: order 119 (with and without an extraFactor) and S_m up to 100, where the
#: su2 fixture violates S_2.  The residue path is pinned on large
#: repeated weights, on three clusters with an extraFactor, on two
#: clusters of multiplicity above one, and on (1,1,2,2), whose a = 1
#: residue comes out over (1 - u)(1 - u^2)^2 (1 - u^3)^3 on shell, as
#: every printed piece is.  The closed-form averages of weights of
#: multiplicity 1 beside at most two others are pinned where factors
#: meet: (97,150,344), where a + b = c - a gives
#: the factor 247 twice for a = 97; (50,100,151), where a divides b;
#: (37,91), one pair; and (120,131,131), a repeated partner.  The
#: multisected prefix, which no n = 3 input with distinct weights
#: reaches, is pinned by (100,101,102,103), whose pieces each have a
#: factor with m = 1 beside factors with m near 200, and
#: (60,97,130,171), with six factors per piece.  `scan` at levels 400
#: and 1500 pins every level's record from one pass of the scan kernel,
#: the second on intervals of up to 186 values of b.  The
#: packed merge and lift are pinned at the frontier: (500,501,502,503),
#: whose 33-35-bit pieces fill whole 64-bit lanes, (3,5,8,11,13,17),
#: six pieces over 22 factors, and (10000,12001,14999), a merged sum of
#: 83,995 lanes.
DIGESTS = {
    "laurent --weights 13,14,15 --order 119":
        "5fb5b1ccf0221abba66227eec3afeee43e7493373b67967ea9789db111d0cf76",
    "laurent --weights 7,8,8,8 --order 119":
        "c04a57309cc16b96567bcf284e3327d34a99244f31360b78416ad568f80aa9b2",
    "symplectic --weights 5,7,9 --order 60":
        "144337ce39b92eb07af9f6f0e4398b806b9ecf7831e3cd806af99975a252a557",
    "symplectic --series su2_2v1.txt --order 100":
        "6c994a853b4f78be02c9efadb884d00260751cfe981d673d56e68280a347b57f",
    "hilbert --weights 101,150,199":
        "aa7c2179a45c4b754f5a0133038e655496f2c99086d6553b5f873dab681a1868",
    "hilbert --weights 191,192,193":
        "bd6b476570e740297fc14dc2abbb4d9984ee373a36316a509b6077a8436c7279",
    "hilbert --weights 41,41,43 --off":
        "74060beafd7d5cbb2753b2eaa7602d19b30a138d795ebd609570bdf41b2e914b",
    "hilbert --weights 13,13,14,15 --off":
        "2d71eebcb007dbf68eef426c5f032fca13d7b324f437e780895392df09be1bb4",
    "hilbert --weights 110,110,111 --off":
        "bc3e13777822500924d7bbb2cd38732ff3bf43f7ee555ff9c1148bb1308ea666",
    "hilbert --weights 5,5,6,6,7 --off":
        "336280d7f88e21749329d22e6ad9cbeeea4a1ff16e47e4b779b00f3c898c1f23",
    "hilbert --weights 3,3,3,4,4,5 --off":
        "1a7f0896bb51786b6d8465402ddf132dc6fc7798713268f63a69cd54529ffe4e",
    "hilbert --weights 1,1,2,2 --off":
        "8e3a2bf2523d4412e6c7ee5b076ee11cf1c0c63c66c9afab74d97228e9184270",
    "laurent --weights 12,12,13 --order 119":
        "134afc61b920391e36dd1d02c5c0168c43a9cab6b15c867224149973b9cc723a",
    "hilbert --weights 150,175,196":
        "5af048ee65c3471181edbab8c4abfaed032ab5d4bea8c02c6be6b18171e1d4ac",
    "hilbert --weights 159,166,180":
        "2c428cb0d7d22ebf8ead8b24edce3db04ce2d039343cb96b600204acbcbd553f",
    "hilbert --weights 100,101,102":
        "f25a41365e56be891d2b000074e49a727a5ccbcd7c4536e6cd949fd1f9b21eac",
    "hilbert --weights 60,97,130,171":
        "f2c9c57b9f08a50f2989ac00667723fac2c7cb044a220abb8c320bf7f0222395",
    "hilbert --weights 97,150,344":
        "5485afc1a35167159485367fa7d660d4eae7776951f2fa1fc5aee9abc938034d",
    "hilbert --weights 50,100,151":
        "187703d2c2008db7ffd4acc96243bfec4af8359651ab9646a69d7ac53eb42a29",
    "hilbert --weights 37,91":
        "1154c56a99bca7e2a8d274e08fbf5889e1b94fc9b5fef3744079d8b32df4cca5",
    "hilbert --weights 120,131,131 --off":
        "1d431e4a388546bbe020c355f4492a78ce1d9ad8f8611d8a9a505520410ecd84",
    "hilbert --weights 100,101,102,103":
        "a1be38ea9faf64b0fd3b061cf8124007c8681e7d59097b751c82791f276f4286",
    "hilbert --weights 500,501,502,503":
        "a29ba3ae1f97889340cb0c767358836857b90943f7aa9b4a4f6e22b46602b998",
    "hilbert --weights 3,5,8,11,13,17":
        "4816b4d8ff85ce7e7797e97abadb960de7eec9c718e5dc3a1cd5384acce4486a",
    "hilbert --weights 10000,12001,14999":
        "722b70c0b82a28a4a5a89b8177ec7a09869f3297fa99f7c2d8e190522023c874",
    "scan --max-level 400":
        "6595c4d896a6e8972e9453ba772209df4bdf3266d7221ee069838e25ae520722",
    "scan --max-level 1500":
        "f5d9049a7edbaab4242653ac454cf06ae549e9e92529fad1486cc68ee274990b",
}


def commands():
    out = []
    for w in WEIGHTS:
        for extra in ([], ["--off"], ["--text"]):
            out.append(["hilbert", "--weights", w] + extra)
    for w in ["4,5,20", "1,1,1,2"]:
        out.append(["laurent", "--weights", w])
    for name in SERIES:
        out.append(["laurent", "--series", name, "--order", "5"])
        out.append(["symplectic", "--series", name, "--order", "3"])
    for gens in SUBGROUPS:
        argv = ["finite"]
        for m, exps in gens:
            argv += ["--gen", f"{m}:" + ",".join(map(str, exps))]
        out.append(argv + ["--order", "3"])
    out.append(["scan", "--max-level", "12"])
    return out


def stdout_of(argv):
    """Stdout of one command run in the fixtures directory; it must
    exit 0."""
    buf = StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with mock.patch("sys.stdout", buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, argv
    return buf.getvalue()


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_commands():
    assert sorted(load_golden()) == sorted(" ".join(a) for a in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_stdout_matches_golden(argv):
    assert stdout_of(argv) == load_golden()[" ".join(argv)]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_large_stdout_digest(command):
    out = stdout_of(command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


if __name__ == "__main__":
    data = {" ".join(argv): stdout_of(argv) for argv in commands()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} outputs to {GOLDEN}", file=sys.stderr)
