"""End-to-end tests of the command-line interface."""

import csv
import decimal
import hashlib
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squot.circle
import squot.cli
import squot.exact
import squot.finite
from squot.circle import hilbert_equal_weights, hilbert_series, u_average
from squot.cli import (_dumps, _Ints, _level_fields, _parse_weights,
                       _poly_text, laurent_payload, load_series,
                       series_payload)
from squot.errors import InputError, ReconstructionMismatch
from squot.exact import (FactoredDenominator, LaurentExpansion, QPolynomial,
                         RationalFunction, laurent_at_one, series_of_rational)
from squot.finite import FiniteDiagonalGroup, analyze_group, molien_series
from squot.laurent import gamma0_closed, gamma2_closed, symplectic_check

from polyring import Poly, factored
from test_faults import MOLIEN_GROUPS, parse_group
from test_golden import SERIES, commands, stdout_of
from test_golden import WEIGHTS as GOLDEN_WEIGHTS
from test_probes import FIXTURES, run_all


def psi_exponents(coeffs):
    """The (d, e) pairs with prod Psi_d^e = the integer polynomial
    `coeffs`, by trial division by sympy's cyclotomic polynomials; a d
    with phi(d) = k is at most 2 k^2, so d stops there."""
    import sympy
    x = sympy.Symbol("x")
    rest = sympy.Poly(list(reversed(coeffs)), x)
    pairs = []
    for d in range(2, 2 * rest.degree() ** 2 + 3):
        factor = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
        e = 0
        while rest.degree() >= factor.degree():
            quo, rem = rest.div(factor)
            if not rem.is_zero:
                break
            rest, e = quo, e + 1
        if e:
            pairs.append((d, e))
    assert rest.as_expr() == 1, f"{coeffs} is not a product of Psi_d"
    return pairs


def payload_to_rational(payload):
    """The rational function of a "series" payload, the inverse of
    `series_payload`."""
    num = QPolynomial(payload["numerator"])
    den = factored(((m, e) for m, e in payload["denominator"]),
                   psi_exponents(payload.get("extraFactor", [1])))
    return RationalFunction(num, den)


def run(argv):
    code, out, _ = run_all(argv)
    return code, out


def run_json(argv):
    code, text = run(argv)
    assert code == 0, text
    return json.loads(text)


def fixture(name):
    return os.path.join(FIXTURES, name)


def expand_payload(payload, degree):
    """Taylor coefficients 0..degree of a "series" payload, read off its
    JSON fields alone: numerator / prod (1 - x^m)^e / extraFactor."""
    coeffs = [Fraction(str(c)) for c in payload["numerator"][:degree + 1]]
    coeffs += [Fraction(0)] * (degree + 1 - len(coeffs))
    for m, e in payload["denominator"]:
        for _ in range(e):
            for k in range(m, degree + 1):
                coeffs[k] += coeffs[k - m]
    extra = [Fraction(str(c)) for c in payload.get("extraFactor", [1])]
    for k in range(degree + 1):
        coeffs[k] -= sum(extra[j] * coeffs[k - j]
                         for j in range(1, min(k, len(extra) - 1) + 1))
        coeffs[k] /= extra[0]
    return coeffs


class TestHilbertCommand:
    def test_worked_example(self):
        doc = run_json(["hilbert", "--weights", "1,2,3"])
        assert doc["schemaVersion"] == "1"
        result = doc["result"]
        assert result["method"] == "Generic"
        assert result["series"]["numerator"] == [1, 0, 1, 3, 4, 4, 4, 3, 1,
                                                 0, 1]
        assert result["series"]["denominator"] == [[2, 1], [3, 1], [4, 1],
                                                   [5, 1]]

    def test_single_weight(self):
        doc = run_json(["hilbert", "--weights", "1"])
        assert doc["result"]["series"] == {"numerator": [1],
                                           "denominator": []}

    def test_degenerate_with_oracle(self):
        doc = run_json(["hilbert", "--weights", "1,2,2",
                        "--oracle-verify", "40"])
        assert doc["result"]["method"] == "DegenerateResidue"

    def test_off_shell(self):
        doc = run_json(["hilbert", "--weights", "1,2,3", "--off"])
        assert [2, 2] in doc["result"]["series"]["denominator"]
        assert doc["result"]["shell"] == "off"

    def test_json_flag_is_unknown(self):
        # JSON is the only output besides --text; there is no --json
        code, out, err = run_all(["hilbert", "--weights", "1,2,3",
                                  "--json"])
        assert code == 2
        assert out == "" and "unrecognized arguments: --json" in err

    def test_invalid_weights_exit_2(self):
        code, _ = run(["hilbert", "--weights", "0,1"])
        assert code == 2
        code, _ = run(["hilbert", "--weights", "spam"])
        assert code == 2

    def test_byte_stable(self):
        a = run(["hilbert", "--weights", "2,3,5"])
        b = run(["hilbert", "--weights", "2,3,5"])
        assert a == b

    @pytest.mark.parametrize("coeffs,text", [
        ([1, -1, 0, 1], "1 - x + x^3"),
        ([0, 1], "x"),
        ([-1, 0, -2], "-1 - 2*x^2"),
        ([0, 0, 3, -1], "3*x^2 - x^3"),
        ([Fraction(1, 2), Fraction(-1, 3)], "1/2 - 1/3*x"),
    ])
    def test_text_terms(self, coeffs, text):
        assert _poly_text(coeffs) == text

    def test_round_trip(self):
        doc = run_json(["hilbert", "--weights", "1,2,2"])
        rebuilt = payload_to_rational(doc["result"]["series"])
        direct = payload_to_rational(series_payload(rebuilt))
        assert (series_of_rational(rebuilt, 30).coefficients
                == series_of_rational(direct, 30).coefficients)


class TestPrintedPieces:
    @pytest.mark.parametrize("weights,method", [
        ("1,2,3", "Generic"), ("150,175,196", "Generic"),
        ("1,1,1,2", "DegenerateResidue"), ("5,7,7,8", "DegenerateResidue"),
        ("13,13,14,15", "DegenerateResidue"),
        ("1,1,5,7", "DegenerateResidue")])
    def test_pieces_sum_to_series(self, weights, method):
        # every method's pieces are printed on shell and add up to the
        # on-shell series; the off-shell a = 1 piece of (1,1,5,7), over
        # (1 - x^4)(1 - x^6)^4 (1 - x^8)^2, has no (1 - x^2) to cancel
        result = run_json(["hilbert", "--weights", weights])["result"]
        assert result["method"] == method
        total = map(sum, zip(*(expand_payload(p, 60)
                               for p in result["pieces"])))
        assert list(total) == expand_payload(result["series"], 60)

    def test_pieces_over_exact_image(self):
        # each weight shares a factor with another, so each piece's
        # denominator is shorter than its input's (742, 742 and 784)
        pieces = run_json(["hilbert", "--weights", "150,175,196"])[
            "result"]["pieces"]
        assert [sum(m * e for m, e in p["denominator"])
                for p in pieces] == [210, 70, 252]
        assert not any("extraFactor" in p for p in pieces)


class TestNegativeWeights:
    @pytest.mark.parametrize("command,rest", [
        ("hilbert", []),
        ("hilbert", ["--off"]),
        ("laurent", ["--order", "3"]),
        ("symplectic", ["--order", "4"]),
    ])
    @pytest.mark.parametrize("weights", ["-3,5,7", "-3,-5", "-2,1,-1"])
    def test_separate_value_same_as_attached(self, command, rest, weights):
        # "-3,5,7" looks like an option to argparse
        separate = run_all([command, "--weights", weights] + rest)
        attached = run_all([command, f"--weights={weights}"] + rest)
        assert separate[0] == 0, separate[2]
        assert separate == attached


class TestLaurentCommand:
    def test_weights_with_closed_forms(self):
        doc = run_json(["laurent", "--weights", "4,5,20", "--order", "3"])
        result = doc["result"]
        assert result["coefficients"] == ["1/27", "0", "23/162", "23/162"]
        assert result["closedForms"] == {"gamma0": "1/27",
                                         "gamma2": "23/162",
                                         "gamma3": "23/162"}
        assert result["agreement"] is True

    def test_extra_factor_reaches_on_shell(self):
        # (1,1,1,2) has an off-shell extra factor 1 + x beside (1 - x^2)
        doc = run_json(["laurent", "--weights", "1,1,1,2", "--order", "4"])
        assert doc["result"]["coefficients"][0] == "53/216"
        assert doc["result"]["agreement"] is True

    def test_closed_form_disagreement_exit_3(self):
        wrong = mock.patch("squot.laurent.gamma0_closed",
                           return_value=Fraction(1, 7))
        with wrong:
            code, out, err = run_all(["laurent", "--weights", "4,5,20",
                                      "--order", "3"])
        assert code == 3
        assert out == ""
        assert err.startswith("verification failure: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_trivial_weight(self):
        doc = run_json(["laurent", "--weights", "1", "--order", "2"])
        assert doc["result"]["poleOrder"] == 0
        assert doc["result"]["coefficients"] == ["1", "0", "0"]

    def test_fixture_series(self):
        doc = run_json(["laurent", "--series", fixture("o_n.txt"),
                        "--order", "5"])
        assert doc["result"]["poleOrder"] == 6
        assert doc["result"]["coefficients"] == [
            "5/32", "0", "11/128", "11/128", "11/128", "11/128"]


class TestScriptProbes:
    """Seven pieces merged and lifted in 128-bit lanes, as the probe
    table's row for these weights also checks."""
    SEVEN = ["hilbert", "--weights", "2,3,5,7,11,13,17"]

    @pytest.mark.parametrize("argv", [SEVEN])
    def test_exits_0(self, argv):
        assert run_json(argv)["result"]["series"]["numerator"]

    def test_wide_lanes_print_json_text(self):
        code, out = run(self.SEVEN)
        assert (code, out) == (0, json.dumps(json.loads(out), indent=2) + "\n")


class TestReciprocityExit:
    @staticmethod
    def bumped(f):
        """f with its top numerator coefficient raised by one."""
        num = f.numerator + Poly.monomial(f.numerator.degree)
        return RationalFunction(num, f.denominator)

    @pytest.mark.parametrize("oracle", [[], ["--oracle-verify", "0"]])
    def test_hilbert_exit_3(self, oracle):
        real = squot.circle.hilbert_on_distinct

        def wrong(*args):
            on, pieces = real(*args)
            return self.bumped(on), pieces
        with mock.patch("squot.circle.hilbert_on_distinct", wrong):
            code, out, err = run_all(["hilbert", "--weights", "4,5,20"]
                                     + oracle)
        assert code == 3
        assert out == ""
        assert err.startswith("verification failure: weights (4, 5, 20)")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_hilbert_oracle_exit_3(self):
        # x^3 + x^7 keeps the numerator of (1,2,3) palindromic, so the
        # reciprocity check passes and the brute-force count (Kronecker
        # substitution at these weights) must catch it
        real = squot.circle.hilbert_on_distinct

        def wrong(*args):
            on, pieces = real(*args)
            bump = Poly.monomial(3) + Poly.monomial(7)
            return RationalFunction(on.numerator + bump,
                                    on.denominator), pieces
        with mock.patch("squot.circle.hilbert_on_distinct", wrong):
            code, out, err = run_all(["hilbert", "--weights", "1,2,3"])
            assert (code, out) == (3, "")
            assert err.startswith("verification failure: weights (1, 2, 3): "
                                  "degree 3 coefficient ")
            assert run_all(["hilbert", "--weights", "1,2,3",
                            "--oracle-verify", "2"])[0] == 0

    def test_lift_leftover_exit_3(self):
        # an ansatz that lacks a factor of the merged on-shell
        # denominator fails the exact lift
        real = squot.circle._pair_sum_denominator

        def short(weights):
            return FactoredDenominator.from_pairs(
                (m, e) for m, e in real(weights).factors if m != 5)
        with mock.patch("squot.circle._pair_sum_denominator", short):
            code, out, err = run_all(["hilbert", "--weights", "1,2,3"])
        assert (code, out) == (3, "")
        assert err == ("verification failure: weights (1, 2, 3): "
                       "denominator factors ((5, 1),) are not in the "
                       "pair-sum ansatz\n")

    def test_wrong_residue_scale_exit_3(self):
        # a scale twice too large leaves an averaged residue numerator
        # that its divisor does not divide: here the p = 1 piece of
        # weight 1, over d = s / a = 2 instead of 1
        real = squot.circle.residue_cluster

        def wrong(*args):
            piece, scale = real(*args)
            return piece, 2 * scale
        with mock.patch("squot.circle.residue_cluster", wrong):
            code, out, err = run_all(["hilbert", "--weights", "1,2,2",
                                      "--off", "--oracle-verify", "0"])
        assert code == 3
        assert out == ""
        assert err == ("verification failure: weight 1: averaged residue "
                       "numerator is not divisible by 2\n")

    def test_finite_exit_3(self):
        real = squot.finite.rational_reconstruct

        def wrong(*args):
            return real(*args) + Poly.monomial(1)
        with mock.patch("squot.finite.rational_reconstruct", wrong):
            code, out, err = run_all(["finite", "--gen", "3:1,2"])
        assert code == 3
        assert out == ""
        assert err.startswith("verification failure: group of order 3")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestSymplecticCommand:
    def test_su2_fixture_violates_s2(self):
        doc = run_json(["symplectic", "--series", fixture("su2_2v1.txt"),
                        "--order", "100"])
        assert doc["result"]["violations"] == [2]
        assert doc["result"]["passed"] is False

    def test_weights_pass(self):
        doc = run_json(["symplectic", "--weights", "1,2,3", "--order", "60"])
        assert doc["result"]["passed"] is True

    def test_torus_fixture_two_files(self, tmp_path):
        num = tmp_path / "num.txt"
        den = tmp_path / "den.txt"
        num.write_text("1 0 2 2 2 0 1\n")
        den.write_text("2:2 3:2\n")
        doc = run_json(["symplectic", "--series", str(num), str(den),
                        "--order", "20"])
        assert doc["result"]["passed"] is True


class TestFiniteCommand:
    def test_z2_example(self):
        doc = run_json(["finite", "--gen", "2:1"])
        result = doc["result"]
        assert result["series"] == {"numerator": [1, 0, 1],
                                    "denominator": [[2, 2]]}
        assert result["gammas"][0] == "1/2"
        assert result["gammas"][2] == "1/8"

    def test_symplectic_subreport(self):
        doc = run_json(["finite", "--gen", "4:1,1", "--order", "3"])
        assert doc["result"]["symplectic"]["passed"] is True

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_symplectic_subreport_holds_by_construction(self, k):
        # the Molien series is reciprocal and its expansion is built in
        # w, so +1 in the quotient's W_k moves the gammas, yet S_1..S_6
        # still vanish: the sub-report certifies nothing about them
        gens = [(4, (1, 2)), (2, (0, 1))]
        series = analyze_group(FiniteDiagonalGroup.from_generators(gens)).series
        want = laurent_at_one(series, 11).coefficients
        real = squot.exact._shared_quotient

        def fault(a, b, n):
            out, shared = real(a, b, n)
            if k < n:
                out[k] += 1
            return out, shared
        with mock.patch.object(squot.exact, "_shared_quotient", fault):
            assert laurent_at_one(series, 11).coefficients != want
            doc = run_json(["finite", "--gen", "4:1,2", "--gen", "2:0,1",
                            "--order", "6"])
        report = doc["result"]["symplectic"]
        assert report["residuals"] == ["0"] * 6 and report["passed"] is True

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_symplectic_reuses_group_expansion(self, order):
        # through R = 3 the order-5 expansion of analyze_group serves
        # S_1..S_R; only a longer one is computed again
        gens = [(4, (1, 2)), (2, (0, 1))]
        series = analyze_group(FiniteDiagonalGroup.from_generators(gens)).series
        want = symplectic_check(laurent_at_one(series, 2 * order - 1), order)
        calls = []
        real = squot.cli.laurent_at_one

        def counted(*args):
            calls.append(args[1])
            return real(*args)
        with mock.patch("squot.cli.laurent_at_one", counted):
            doc = run_json(["finite", "--gen", "4:1,2", "--gen", "2:0,1",
                            "--order", str(order)])
        assert calls == ([] if order <= 3 else [2 * order - 1])
        assert doc["result"]["symplectic"]["residuals"] \
            == [str(r) for r in want.residuals]

    def test_cyclic_prefix_syntax(self):
        a = run_json(["finite", "--gen", "cyclic:3:1,2"])
        b = run_json(["finite", "--gen", "3:1,2"])
        assert a["result"] == b["result"]

    def test_trivial_group(self):
        doc = run_json(["finite", "--gen", "1:0,0"])
        assert doc["result"]["series"] == {"numerator": [1],
                                           "denominator": [[1, 4]]}
        assert doc["result"]["gammas"][0] == "1"

    def test_bad_generator_exit_2(self):
        code, _ = run(["finite", "--gen", "banana"])
        assert code == 2

    def test_zero_modulus_exit_2(self):
        code, out, err = run_all(["finite", "--gen", "0:1"])
        assert code == 2
        assert out == ""
        assert err == "error: modulus must be >= 1\n"


class TestScanCommand:
    def test_level_three(self):
        doc = run_json(["scan", "--max-level", "3"])
        assert doc["result"]["levels"] == [
            {"level": 3, "hits": 0, "total": 1, "probability": "0",
             "decimal": "0.000000000000"}]

    def test_files_written(self, tmp_path):
        # byte for byte: the JSON lines are json.dumps of each stdout
        # record and the CSV rows csv.writer's, all three as sha256 pins
        base = str(tmp_path / "scan")
        code, out = run(["scan", "--max-level", "60", "--out", base])
        assert code == 0
        levels = json.loads(out)["result"]["levels"]
        assert len(levels) == 58
        jsonl = Path(base + ".jsonl").read_bytes()
        assert jsonl == "".join(json.dumps(rec) + "\n"
                                for rec in levels).encode()
        rows = StringIO()
        writer = csv.writer(rows)
        writer.writerow(["level", "hits", "total", "probability", "decimal"])
        writer.writerows(rec.values() for rec in levels)
        table = Path(base + ".csv").read_bytes()
        assert table == rows.getvalue().encode()
        assert [hashlib.sha256(text).hexdigest()
                for text in (out.encode(), jsonl, table)] == [
            "c6af43682779fc66f1ec9a11c01c614288913c081ebfd2ea5fe4ffe756a50b95",
            "160647d386ddb3aab86c32156e820f5fae4286fd2baf1335a93487c7ca0f5da7",
            "f981b90f1a815123d032a232051e32014b4488f5d501ebf0282d21c3e63e160d"]

    def test_level_ten_hits(self):
        doc = run_json(["scan", "--max-level", "10"])
        last = doc["result"]["levels"][-1]
        assert last["hits"] == 4 and last["probability"] == "1/30"
        assert last["decimal"] == "0.033333333333"

    def test_unsupported_n(self):
        # every scan is over triples; there is no --n option
        code, _, err = run_all(["scan", "--n", "4", "--max-level", "10"])
        assert code == 2 and "unrecognized arguments: --n 4" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, jobs):
        code, out, err = run_all(["scan", "--max-level", "10",
                                  "--jobs", jobs])
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be >= 1, got {jobs}\n"


def decimal_twelve_places(hits, total):
    """hits/total as the prec-40 decimal route prints it: rounded to 40
    significant digits, then half-even to 12 places."""
    ctx = decimal.Context(prec=40)
    q = Fraction(hits, total)
    d = ctx.divide(decimal.Decimal(q.numerator),
                   decimal.Decimal(q.denominator))
    return format(d.quantize(decimal.Decimal("1." + "0" * 12), context=ctx),
                  "f")


class TestScanRounding:
    @given(st.integers(1, 10 ** 20 - 1).flatmap(
        lambda t: st.tuples(st.integers(0, t), st.just(t))))
    @settings(max_examples=500, deadline=None)
    def test_matches_decimal_route(self, case):
        hits, total = case
        assert _level_fields(7, hits, total) == (
            7, hits, total, str(Fraction(hits, total)),
            decimal_twelve_places(hits, total))

    @given(st.integers(0, 10 ** 12 - 1), st.integers(1, 5 * 10 ** 7 - 1),
           st.sampled_from([-1, 0, 1]))
    @example(0, 1, 0)
    @example(1, 1, 0)
    @settings(max_examples=500, deadline=None)
    def test_ties_and_their_neighbours(self, q, scale, offset):
        # hits/total = (2q + 1) / (2 10^12), halfway between two values
        # of 12 places, or just off it; total < 10^20
        hits = (2 * q + 1) * scale + offset
        total = 2 * 10 ** 12 * scale
        text = _level_fields(7, hits, total)[4]
        assert text == decimal_twelve_places(hits, total)
        if offset == 0:  # a tie goes to the even neighbour
            assert int(text[-1]) % 2 == 0


#: ints of both signs beyond 64 bits, and strings that json escapes
wide_ints = (st.integers() | st.integers(min_value=2 ** 64)
             | st.integers(max_value=-(2 ** 64)))
escaped_text = st.text() | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f", "\u00e9\u4e2d",
     "\u2028", "\ud800", "\U0001f600"])
emitter_leaves = (st.none() | st.booleans() | wide_ints | escaped_text
                  | st.lists(wide_ints, max_size=6)
                  | st.lists(st.booleans(), max_size=4)
                  | st.lists(st.sampled_from([0, 1, True, False, -1]),
                             max_size=5))
#: documents of dicts and lists over those leaves, which include lists
#: of plain ints (written by one format call), of bools and of both
json_documents = st.recursive(
    emitter_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(escaped_text, inner, max_size=4)),
    max_leaves=30)


class TestRationalText:
    # every printed rational is an int or a Fraction, printed by str in
    # lowest terms, from a numerator over a scale not in lowest terms
    @pytest.mark.parametrize("q,text", [
        (3, "3"), (-2, "-2"), (Fraction(6, 4), "3/2"), (Fraction(4, 2), "2")])
    def test_rat(self, q, text):
        q = Fraction(q)
        record = LaurentExpansion(1, (6 * q.numerator,), 6 * q.denominator)
        assert laurent_payload(record) \
            == {"poleOrder": 1, "coefficients": [text]}


class TestEmitter:
    @pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, {1}],
                             ids=lambda v: type(v).__name__)
    def test_other_types_raise(self, value):
        # as json.dumps does: a TypeError that names the type
        for document in (value, [value], {"k": [1, value]}):
            with pytest.raises(TypeError, match=type(value).__name__):
                _dumps(document)

    @given(json_documents)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, document):
        assert _dumps(document) == json.dumps(document, indent=2)

    def test_edge_values(self):
        document = {"empty list": [], "empty dict": {}, "flags": [True, False],
                    "none": None, "text": "\u00e9\u4e2d \"q\" \\ \n\x01",
                    "ints": [-1, 0, 10 ** 40, -(10 ** 40)],
                    "ints and flags": [1, True, 0, False], "one": [1],
                    "nested": [[[]], [{}], {"k": [{"": ""}]}],
                    "\u00fc key": (1, "2")}
        assert _dumps(document) == json.dumps(document, indent=2)
        for scalar in ([], {}, "", 0, -7, True, None):
            assert _dumps(scalar) == json.dumps(scalar, indent=2)

    @given(st.lists(wide_ints, max_size=8), json_documents)
    @settings(max_examples=100, deadline=None)
    def test_marked_list_is_json_text(self, ints, document):
        # a marked list prints as the list does, anywhere in a document
        plain = {"numerator": ints, "rest": [document, ints]}
        marked = {"numerator": _Ints(ints), "rest": [document, _Ints(ints)]}
        assert _dumps(marked) == json.dumps(plain, indent=2)
        assert _dumps(_Ints(ints)) == json.dumps(ints, indent=2)

    def test_marked_lists_hold_plain_ints(self):
        # `%d` would print True as 1 and truncate a Fraction, so every
        # list that a golden command marks holds ints and nothing else
        marked = []

        class Recorded(_Ints):
            def __init__(self, values):
                super().__init__(values)
                marked.append(self)
        with mock.patch.object(squot.cli, "_Ints", Recorded):
            for argv in commands():
                stdout_of(argv)
        assert len(marked) > len(commands())
        assert all(type(x) is int for values in marked for x in values)

    def test_series_payload_coefficients(self):
        # integer numerators are printed as they are; the extra factor
        # Psi_2 Psi_3 is multiplied out
        den = FactoredDenominator.from_psi([(2, 1), (3, 1)])
        f = RationalFunction(QPolynomial([3, 2, -(10 ** 30)]), den)
        payload = series_payload(f)
        assert payload["numerator"] == [3, 2, -(10 ** 30)]
        assert [type(c) for c in payload["numerator"]] == [int] * 3
        assert payload["extraFactor"] == [1, 2, 2, 1]
        assert [type(c) for c in payload["extraFactor"]] == [int] * 4


class TestSeriesFiles:
    def test_fixture_loader(self):
        f = load_series([fixture("torus_2x4.txt")])
        assert list(f.numerator.coeffs) == [1, 0, 2, 2, 2, 0, 1]
        assert f.denominator.factors == ((2, 2), (3, 2))

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        code, _ = run(["laurent", "--series", str(bad), "--order", "2"])
        assert code == 2

    def test_missing_file(self):
        code, _ = run(["laurent", "--series", "/nonexistent", "--order", "2"])
        assert code == 2

    @pytest.mark.parametrize("command", ["laurent", "symplectic"])
    def test_zero_denominator_coefficient_exit_2(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1/0 2\n1:2\n")
        code, out, err = run_all([command, "--series", str(bad),
                                  "--order", "2"])
        assert code == 2 and out == ""
        assert err == f"error: {bad}: cannot read '1/0'\n"

    @pytest.mark.parametrize("token", ["1/2", "2.0", "3/1"])
    def test_fractional_numerator_token_exit_2(self, tmp_path, token):
        # numerators are integer polynomials: a fraction or a decimal,
        # of integer value or not, is no numerator token
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1 {token} 2\n1:2\n")
        code, out, err = run_all(["laurent", "--series", str(bad),
                                  "--order", "2"])
        assert code == 2 and out == ""
        assert err == f"error: {bad}: cannot read '{token}'\n"

    def test_numerators_hold_ints(self):
        # read from the shipped fixtures, or built as Molien series and
        # circle series (on and off shell, and every piece)
        series = [load_series([fixture(name)]) for name in SERIES]
        series += [molien_series(FiniteDiagonalGroup.from_generators(
            parse_group(spec))) for spec in MOLIEN_GROUPS]
        for text in GOLDEN_WEIGHTS:
            result = hilbert_series(tuple(map(int, text.split(","))))
            series += [result.on_shell, result.off_shell, *result.pieces]
        assert all(type(c) is int
                   for f in series for c in f.numerator.coeffs)

    def test_binary_file_exit_2(self, tmp_path):
        # bytes that are no text are the file's fault, not squot's
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x80\xff")
        code, out, err = run_all(["laurent", "--series", str(bad)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    @pytest.mark.parametrize("token", ["2:x", "2:1:3", "2", "0:1", "2:-1",
                                       "1:0"])
    def test_bad_factor_token_names_second_file(self, tmp_path, token):
        num, den = tmp_path / "num.txt", tmp_path / "den.txt"
        num.write_text("1 2\n")
        den.write_text(f"1:1 {token}\n")
        code, out, err = run_all(["laurent", "--series", str(num), str(den),
                                  "--order", "2"])
        assert code == 2 and out == ""
        assert err == f"error: {den}: cannot read '{token}'\n"


#: Above 2^63, so above sys.maxsize on any 64-bit build.
HUGE = 99999999999999999999
WEIGHTS = "--weights divided by their gcd"
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: The most entries a list can have (8-byte pointers, sys.maxsize
#: bytes), and each command line up to the option that sizes one, with
#: the largest value it takes: order + 1 entries, or 2R for S_1..S_R
ENTRIES = sys.maxsize // 8
SIZED = [(["hilbert", "--weights", "1,2,3", "--oracle-verify"], ENTRIES - 1),
         (["laurent", "--weights", "1,2,3", "--order"], ENTRIES - 1),
         (["symplectic", "--weights", "1,2,3", "--order"], ENTRIES // 2),
         (["finite", "--gen", "2:1,1", "--order"], ENTRIES // 2),
         (["scan", "--max-level"], ENTRIES - 1)]
UPPER = {(argv[0], argv[-1]): high for argv, high in SIZED}
BOUNDARY = [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1, 3 * 2 ** 61,
            sys.maxsize - 1, sys.maxsize, sys.maxsize + 1]


def _id(param):  # the subcommand of a command line, else the number
    return param[0] if isinstance(param, list) else str(param)


def _capped(kind, value):
    hard = resource.getrlimit(kind)[1]
    if hard != resource.RLIM_INFINITY:
        value = min(value, hard)
    resource.setrlimit(kind, (value, hard))


def run_capped(argv):
    """Exit code, stdout and stderr of the CLI in a child process with
    1 GiB of address space and 60 s of CPU, capped in the child only: a
    request that would allocate or run without bound fails there."""
    def caps():
        _capped(resource.RLIMIT_AS, 1 << 30)
        _capped(resource.RLIMIT_CPU, 60)
    child = subprocess.run(
        [sys.executable, "-B", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "from squot.cli import main; sys.exit(main(sys.argv[2:]))",
         SRC, *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=caps)
    return child.returncode, child.stdout, child.stderr


class TestExitContract:
    @pytest.mark.parametrize("argv", [
        ["laurent", "--weights", "1,2,3", "--order", "-1"],
        ["symplectic", "--weights", "1,2,3", "--order", "-2"],
        ["symplectic", "--weights", "1,2,3", "--order", "0"],
        ["hilbert", "--weights", "1,2,3", "--oracle-verify", "-1"],
        ["scan", "--max-level", "10", "--jobs", "0"],
        ["finite", "--gen", "0:1"],
        ["hilbert", "--weights", "1,-1,0"],
        ["finite", "--gen", "2:1", "--order", "-1"],
        ["hilbert", "--weights", "1,x,3"],
    ])
    def test_bad_input_exit_2_one_line(self, argv):
        code, out, err = run_all(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,option", [
        (["hilbert", "--weights", f"{HUGE},1"], WEIGHTS),
        (["laurent", "--weights", f"{HUGE},1,2", "--order", "2"], WEIGHTS),
        (["hilbert", "--weights", "1,2,3", "--oracle-verify", f"{HUGE}"],
         "--oracle-verify"),
        (["scan", "--max-level", f"{HUGE}"], "--max-level"),
        (["laurent", "--weights", "1,2,3", "--order", f"{HUGE}"], "--order"),
        (["symplectic", "--weights", "1,2,3", "--order", f"{HUGE}"],
         "--order"),
        (["finite", "--gen", "2:1,1", "--order", f"{HUGE}"], "--order"),
    ])
    def test_index_overflow_exit_2_one_line(self, argv, option):
        # above sys.maxsize no list has that many entries: each value is
        # rejected before anything is sized by it
        code, out, err = run_all(argv)
        assert (code, out) == (2, "")
        high = UPPER.get((argv[0], option), sys.maxsize)
        assert err == f"error: {option} must be <= {high}, got {HUGE}\n"

    @pytest.mark.parametrize("argv,high,value", [
        (argv, high, value) for argv, high in SIZED for value in BOUNDARY],
        ids=_id)
    def test_size_boundary_exit_2_one_line(self, argv, high, value):
        # above the most entries a list can have, each value is rejected
        # before anything is sized by it, naming the option
        code, out, err = run_all(argv + [str(value)])
        assert (code, out) == (2, "")
        assert err == f"error: {argv[-1]} must be <= {high}, got {value}\n"

    @pytest.mark.parametrize("argv,high", SIZED, ids=_id)
    def test_largest_accepted_size_exits_2(self, argv, high):
        # accepted, the list cannot be allocated: one line, no traceback
        code, out, err = run_capped(argv + [str(high)])
        assert (code, out) == (2, "")
        assert err == "error: not enough memory for this request\n"

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--weights", f"1,1,{sys.maxsize}"],
        ["hilbert", "--weights", f"1,1,{sys.maxsize}", "--off"],
        ["hilbert", "--weights", f"1,1,{2 ** 62}"],
        ["hilbert", "--weights", f"1,1,{2 ** 62}", "--off"],
        ["laurent", "--weights", f"1,1,{sys.maxsize}"],
        ["hilbert", "--weights", f"1,{sys.maxsize - 1},{sys.maxsize}"],
        # the closed-form average is sized before any lattice point is
        # enumerated, about 9.2 * 10^18 of them for the smallest weight
        ["hilbert", "--weights", f"{sys.maxsize - 2},{sys.maxsize - 1},"
                                 f"{sys.maxsize}"],
    ], ids=" ".join)
    def test_weights_near_the_bound_exit_2(self, argv):
        # within the weight bound, the residue path's ints would have
        # too many digits, or an index would not fit (OverflowError):
        # one line, no traceback
        code, out, err = run_capped(argv)
        assert (code, out) == (2, "")
        assert err == "error: not enough memory for this request\n"

    @pytest.mark.parametrize("value", BOUNDARY[:-1])
    def test_unsized_option_at_the_boundary_runs(self, value):
        # --jobs sizes nothing: any index is accepted
        code, out, err = run_capped(["scan", "--max-level", "12",
                                     "--jobs", str(value)])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == run_json(
            ["scan", "--max-level", "12"])["result"]

    def test_scan_level_below_3_names_the_option(self):
        code, out, err = run_all(["scan", "--max-level", "2"])
        assert (code, out) == (2, "")
        assert err == "error: --max-level must be >= 3, got 2\n"

    def test_huge_weights_with_a_small_normal_form_run(self):
        # only the weights divided by their gcd must fit an index
        doc = run_json(["hilbert", "--weights", f"{HUGE},{HUGE}", "--off"])
        assert doc["request"]["weights"] == [HUGE, HUGE]
        assert doc["result"] \
            == run_json(["hilbert", "--weights", "1,1", "--off"])["result"]

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--weights", "1,2,3", "--slack", "16"],
        ["finite", "--gen", "2:1", "--slack", "16"],
    ])
    def test_removed_options_exit_2(self, argv):
        code, out, err = run_all(argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize("argv", [
        ["finite", "--gen", "2:1", "--gen", "-3:1"],
        ["finite", "--gen", "-3:1,2"],
        ["finite", "--ge", "-1:0", "--order", "2"],
    ])
    def test_negative_generator_modulus_exit_2(self, argv):
        # "-3:1" looks like an option to argparse; it is read as the
        # value of --gen, so the modulus check names the fault
        code, out, err = run_all(argv)
        assert (code, out, err) == (2, "", "error: modulus must be >= 1\n")

    def test_parse_failure_leaves_next_command_alone(self):
        # main reuses one parser per process; an argparse failure must
        # not change what the next command prints
        valid = ["laurent", "--weights", "1,2,3"]
        alone = run_capped(valid)
        code, _, err = run_all(["laurent", "--weights", "1,2",
                                "--series", "x"])
        assert code == 2 and "not allowed with" in err
        assert run(valid) == alone[:2]
        assert alone[0] == 0

    def test_import_path_has_no_dataclasses(self):
        # the records are NamedTuples: dataclasses, and the inspect it
        # imports, would add to the start-up of every process
        probe = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import squot.cli; "
             "squot.cli.build_parser(); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
             SRC],
            capture_output=True, text=True, timeout=120)
        assert (probe.returncode, probe.stdout) == (0, "[]\n")

    def test_unparseable_weights_not_zero_weight(self):
        with pytest.raises(InputError, match="cannot parse weights '1,x,3'"):
            _parse_weights("1,x,3")

    def test_smallest_valid_values_accepted(self):
        assert run(["laurent", "--weights", "1,2,3", "--order", "0"])[0] == 0
        assert run(["symplectic", "--weights", "1,2,3",
                    "--order", "1"])[0] == 0
        assert run(["hilbert", "--weights", "1,2,3",
                    "--oracle-verify", "0"])[0] == 0


#: Library calls outside their domain, each with the message that pins
#: its check: without one, each returned a wrong value (a zero series,
#: 3 coefficients of order -2, a vacuous pass) or raised
#: ZeroDivisionError.
_SERIES = hilbert_series((1, 2, 3))
GUARDS = {
    "gamma0_closed((1, -1))": (lambda: gamma0_closed((1, -1)),
                               "gamma0 closed form needs n >= 2 positive"),
    "gamma0_closed((0, 1))": (lambda: gamma0_closed((0, 1)),
                              "gamma0 closed form needs n >= 2 positive"),
    "gamma2_closed((1, 1, 0))": (lambda: gamma2_closed((1, 1, 0)),
                                 "gamma2 closed form needs n >= 3 positive"),
    "symplectic_check(e, 0)": (
        lambda: symplectic_check(laurent_at_one(_SERIES.on_shell, 3), 0),
        "S_1..S_R read 2R >= 2 coefficients, got R = 0"),
    "u_average(f, 0)": (lambda: u_average(_SERIES.off_shell, 0),
                        "averaging needs a >= 1, got 0"),
    "hilbert_equal_weights(0)": (lambda: hilbert_equal_weights(0),
                                 "need n >= 1 equal weights, got 0"),
    "series_of_rational(f, -2)": (
        lambda: series_of_rational(_SERIES.on_shell, -2),
        "series order must be >= 0, got -2"),
}


@pytest.mark.parametrize("call,message", GUARDS.values(), ids=GUARDS)
def test_library_guard_raises_input_error(call, message):
    with pytest.raises(InputError, match=message.replace(".", r"\.")):
        call()


def _raise(exc):
    def fault(*args):
        raise exc
    return fault


class TestExitByClass:
    """The class of what a command raises decides its exit code."""

    @pytest.mark.parametrize("exc", [ValueError("boom"),
                                     ZeroDivisionError("boom")], ids=repr)
    def test_internal_fault_exits_3(self, exc):
        # a fault of squot's own is no bad input, and prints no traceback
        with mock.patch.object(squot.circle, "pair_average", _raise(exc)):
            code, out, err = run_all(["hilbert", "--weights", "1,2,3"])
        assert (code, out) == (3, "")
        assert err == f"internal error: {type(exc).__name__}: boom\n"

    def test_failed_check_exits_3(self):
        fault = _raise(ReconstructionMismatch("boom"))
        with mock.patch.object(squot.circle, "pair_average", fault):
            code, out, err = run_all(["hilbert", "--weights", "1,2,3"])
        assert (code, out, err) == (3, "", "verification failure: boom\n")


#: gamma_600 of (5,7,9) as text needs more digits than the smallest
#: limit Python allows on int-to-text conversion
LONG = ["laurent", "--weights", "5,7,9", "--order", "600"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on the digits of an int as text")
class TestLongIntegers:
    """Exact results print whatever the length of their integers; the
    limit on int-to-text digits is lifted for one command only."""

    def test_smallest_limit_prints_the_same(self):
        default = run_all(LONG)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            small = run_all(LONG)
            assert sys.get_int_max_str_digits() == 640
            failed = run_all(["laurent", "--weights", "0", "--order", "1"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(old)
        assert small == default and default[0] == 0
        assert max(map(len, default[1].split())) > 640
        assert failed[0] == 2

    def test_long_fixture_token_loads(self, tmp_path):
        # (1 + B x) / (1 - x)^2, B of 5000 digits: gamma_0 = B + 1 and
        # gamma_1 = -B, read off the text
        big = "1" + "0" * 4998 + "7"
        path = tmp_path / "long.txt"
        path.write_text(f"1 {big}\n1:2\n")
        code, out, err = run_all(["laurent", "--series", str(path),
                                  "--order", "1"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["coefficients"] \
            == [big[:-1] + "8", "-" + big]


@st.composite
def argv_fragments(draw):
    """A small command line: valid and invalid values, a stray flag."""
    def number():  # out-of-range values about as often as valid ones
        return str(draw(st.one_of(st.integers(-3, 1), st.integers(2, 20))))

    def weights():  # mostly valid, so that later checks are reached
        if not draw(st.integers(0, 4)):
            return draw(st.sampled_from(["", "x", "1,,2", "1,x,3", "0,1"]))
        ws = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        return ",".join(str(w * draw(st.sampled_from([1, -1]))) for w in ws)

    command = draw(st.sampled_from(["hilbert", "laurent", "symplectic",
                                    "finite", "scan"]))
    if command == "hilbert":
        argv = ["hilbert", "--weights", weights()]
        argv += draw(st.sampled_from([[], ["--off"], ["--text"]]))
        options = ["--oracle-verify"]
    elif command in ("laurent", "symplectic"):
        argv = [command, "--weights", weights(), "--order", number()]
        options = []
    elif command == "finite":
        argv = ["finite"]
        for _ in range(draw(st.integers(1, 2))):
            exps = draw(st.lists(st.integers(-2, 5), max_size=3))
            argv += ["--gen", f"{draw(st.integers(-1, 6))}:"
                     + ",".join(map(str, exps))]
        options = ["--order"]
    else:
        argv = ["scan", "--max-level", str(draw(st.integers(-1, 15))),
                "--jobs", str(draw(st.integers(-1, 4)))]
        options = []
    for option in draw(st.lists(st.sampled_from(options), unique=True)
                       if options else st.just([])):
        argv += [option, number()]
    stray = draw(st.sampled_from([None, None, None, "--bogus", "--order"]))
    return argv + [stray] if stray else argv


class TestExitContractProperty:
    @given(argv_fragments())
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_no_traceback(self, argv):
        code, _, err = run_all(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err and "internal error" not in err
