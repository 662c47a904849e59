"""The output checks accept squot's outputs and reject perturbed ones.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import squot.cli  # noqa: E402
from checks import References, check_op, check_outputs  # noqa: E402
from run import CALIBRATION_REF_S, normalize_times  # noqa: E402
from workloads import TABLED, Op, make_ops, read_table  # noqa: E402


def run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert squot.cli.main(list(op.argv)) == 0
    return json.loads(out.getvalue())


def circle(kind, weights, *extra):
    argv = ("laurent" if kind == "laurent" else "hilbert", "--weights",
            ",".join(map(str, weights))) + extra
    return Op(kind, argv, weights=weights)


GENERIC = circle("hilbert_on", (150, 173, 211))
DEGENERATE = circle("hilbert_off", (6, 6, 7, 8), "--off")
LAURENT = circle("laurent", (2, 3, 7), "--order", "119")
FINITE = Op("finite", ("finite", "--gen", "4:1,0,3", "--gen", "2:1,1,0",
                       "--order", "3"),
            generators=((4, (1, 0, 3)), (2, (1, 1, 0))))
SCAN = Op("scan", ("scan", "--max-level", "40", "--jobs", "1"), level=40)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = [GENERIC, DEGENERATE, LAURENT, FINITE, SCAN]
        cls.refs = References(cls.ops)
        cls.docs = {op: run(op) for op in cls.ops}

    def failures(self, op, doc):
        return check_op(op, json.dumps(doc), self.refs)

    def perturbed(self, op, edit):
        doc = copy.deepcopy(self.docs[op])
        edit(doc["result"])
        return self.failures(op, doc)

    def test_accepts_program_outputs(self):
        for op in self.ops:
            self.assertEqual(self.failures(op, self.docs[op]), [], op.argv)

    def test_numerator_coefficient_off_by_one(self):
        for op, series in ((GENERIC, lambda r: r["series"]),
                           (DEGENERATE, lambda r: r["series"]),
                           (FINITE, lambda r: r["series"])):
            size = len(series(self.docs[op]["result"])["numerator"])
            # low, middle and top coefficient; past degree 60 on GENERIC
            for k in sorted({0, size // 2, size - 1}):
                def bump(result, k=k):
                    num = series(result)["numerator"]
                    num[k] = str(Fraction(str(num[k])) + 1)
                self.assertTrue(self.perturbed(op, bump), (op.argv, k))

    def test_changed_gamma2(self):
        def laurent(result):
            result["coefficients"][2] = "1/7"
        failures = self.perturbed(LAURENT, laurent)
        self.assertTrue(any("gamma2" in f for f in failures), failures)

        def finite(result):
            result["laurent"]["coefficients"][2] = "1/7"
        failures = self.perturbed(FINITE, finite)
        self.assertTrue(any("gamma2" in f for f in failures), failures)

    def test_changed_scan_hits(self):
        def edit(result):
            result["levels"][-1]["hits"] += 1
        failures = self.perturbed(SCAN, edit)
        self.assertTrue(any(f.startswith("hits") for f in failures), failures)

    def test_dropped_extra_factor(self):
        self.assertIn("extraFactor", self.docs[DEGENERATE]["result"]["series"])

        def edit(result):
            del result["series"]["extraFactor"]
        failures = self.perturbed(DEGENERATE, edit)
        self.assertTrue(any(f.startswith("series") for f in failures),
                        failures)

    def test_failures_are_counted_and_named_not_raised(self):
        good = json.dumps(self.docs[LAURENT])
        bad = copy.deepcopy(self.docs[LAURENT])
        bad["result"]["coefficients"][2] = "1/7"
        ops = [LAURENT, LAURENT, FINITE, SCAN]
        outputs = [(0, good, ""), (0, json.dumps(bad), ""),
                   (3, "", "verification failed"),
                   (0, json.dumps(self.docs[SCAN]), "")]
        failed, failures = check_outputs(ops, outputs, self.refs)
        self.assertEqual(failed, 2)
        self.assertTrue(any(f.startswith("op 1 `laurent") and "gamma2" in f
                            for f in failures), failures)
        self.assertTrue(any(f.startswith("op 2 `finite") and "exit: 3" in f
                            for f in failures), failures)

    def test_undecodable_output_is_a_failure_not_an_error(self):
        self.assertTrue(check_op(LAURENT, "not json", self.refs))
        self.assertTrue(check_op(FINITE, "{}", self.refs))


class WorkloadTest(unittest.TestCase):
    def test_tables_list_their_populations(self):
        for name, (population, _) in TABLED.items():
            table = read_table(name)
            self.assertEqual(len(set(table)), len(table), name)
            self.assertLessEqual(set(table), set(population()), name)

    def test_seeded_and_without_repeats(self):
        for name in ("sweep_n3", "generic_large", "degenerate",
                     "finite_scan"):
            ops, repeated = make_ops(name, 7, 10)
            self.assertEqual(repeated, 0, name)
            self.assertEqual(ops, make_ops(name, 7, 10)[0], name)
            self.assertNotEqual(ops, make_ops(name, 8, 10)[0], name)


class NormalizationTest(unittest.TestCase):
    def test_times_scale_with_the_calibrations_around_them(self):
        ref = CALIBRATION_REF_S
        self.assertEqual(normalize_times([0.5, 0.5], [2 * ref] * 3),
                         [0.25, 0.25])
        # one outlying calibration does not move its neighbours
        self.assertEqual(normalize_times([0.5] * 3, [ref, 9 * ref, ref, ref]),
                         [0.5] * 3)


if __name__ == "__main__":
    unittest.main()
