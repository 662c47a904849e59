"""Command-line interface.

Subcommands: hilbert, laurent, symplectic, finite, scan.  Canonical
output is a versioned JSON document on stdout with all rationals
rendered exactly; exit code 0 on success, 2 on invalid input, 3 on a
failed verification or an internal error (`main`).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .circle import DEFAULT_ORACLE_DEGREE, hilbert_series, normalize_weights
from .errors import InputError, SquotError
from .exact import (FactoredDenominator, QPolynomial, RationalFunction,
                    _divisors, laurent_at_one)
from .finite import FiniteDiagonalGroup, analyze_group
from .laurent import (check_closed_forms, circle_closed_forms,
                      symplectic_check)
from .scan import full_scan

SCHEMA_VERSION = "1"


def _grouped(den: FactoredDenominator) -> tuple:
    """(pairs, psi) to print: den's Psi_d grouped greedily into
    (1 - x^m)^e, largest m first, and the Psi_d left.  A pure product
    is its own grouping (the Psi_m of its largest m has that factor's
    exponent, and the rest is pure), so it is returned at once."""
    if all(e > 0 for _, e in den.factors):
        return list(den.factors), []
    exps, pairs = den.psi_exponents(), []
    for m in sorted(exps, reverse=True):
        if exps[m] and (k := min(map(exps.__getitem__, _divisors(m)))):
            pairs.append((m, k))
            for d in _divisors(m):
                exps[d] -= k
    return sorted(pairs), sorted((d, e) for d, e in exps.items() if e)


class _Ints(list):
    """Plain ints, as a `QPolynomial` holds: `_dumps` writes the list by
    one `%` call with no type scan (`%d` prints True as 1)."""


def series_payload(f: RationalFunction) -> dict:
    """f's fields; the numerator and extra factor are `_Ints`: integer
    lanes and closed forms (circle), counts times passes (finite)."""
    pairs, psi = _grouped(f.denominator)
    payload = {"numerator": _Ints(f.numerator.coeffs),
               "denominator": [[m, e] for m, e in pairs]}
    if psi:  # prod Psi_d^e, multiplied out
        payload["extraFactor"] = _Ints(
            FactoredDenominator.from_psi(psi).times([1]))
    return payload


def laurent_payload(expansion) -> dict:
    """A Laurent record's fields, each gamma_k = n_k / D in lowest terms."""
    return {"poleOrder": expansion.pole_order,
            "coefficients": [_ratio_text(n, expansion.scale)
                             for n in expansion.numerators]}


def symplectic_payload(report, **pole) -> dict:
    """An S_1..S_R report's fields; `pole` (poleOrder=...) goes second."""
    return {"maxOrder": report.max_order, **pole,
            "residuals": [str(s) for s in report.residuals],
            "violations": list(report.violations), "passed": report.passed}


def _parse_weights(text: str):
    """The weights, at most sys.maxsize once divided by their gcd."""
    try:
        weights = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse weights {text!r}; "
                         "expected comma-separated integers")
    _check_range("--weights divided by their gcd",
                 normalize_weights(weights)[-1], 1)
    return weights


#: The most entries a list can have: 8-byte pointers, sys.maxsize bytes.
_MAX_ENTRIES = sys.maxsize // 8


def _check_range(option: str, value, low: int,
                 high: int = sys.maxsize) -> None:
    """Reject a numeric option outside [low, high]; None means not
    given.  `high` is sys.maxsize, the largest index, or for an option
    that sizes a list (order + 1 entries, 2R for S_1..S_R) the largest
    value whose list can exist."""
    if value is not None and not low <= value <= high:
        bound = f">= {low}" if value < low else f"<= {high}"
        raise InputError(f"{option} must be {bound}, got {value}")


def _parse_generator(text: str):
    body = text[len("cyclic:"):] if text.startswith("cyclic:") else text
    modulus, sep, rest = body.partition(":")
    try:
        return int(modulus), tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise InputError(f"cannot parse generator {text!r}; "
                         "expected m:e1,...,en")


def _read_token(path, tok) -> int:
    """int(tok), or an InputError that names the file and the token (a
    fraction or a decimal too: numerators are integer polynomials)."""
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"{path}: cannot read {tok!r}") from None


def load_series(paths) -> RationalFunction:
    """Read a series fixture: numerator coefficients, then m:e factors.

    Both lines may live in one file or in two separate files; blank
    lines and '#' comments are skipped.
    """
    lines = []
    for path in paths:
        try:
            with open(path) as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None
        lines += [(path, toks) for raw in text.split("\n")
                  if (toks := raw.split("#", 1)[0].split())]
    if len(lines) != 2:
        raise InputError(f"expected 2 data lines across {list(paths)}, "
                         f"found {len(lines)}")
    (num_path, num_toks), (den_path, den_toks) = lines
    num = QPolynomial(_read_token(num_path, tok) for tok in num_toks)
    pairs = []
    for tok in den_toks:
        try:
            m, e = map(int, tok.split(":"))
        except ValueError:
            m = e = 0
        if m < 1 or e < 1:
            raise InputError(f"{den_path}: cannot read {tok!r}")
        pairs.append((m, e))
    return RationalFunction(num, FactoredDenominator.from_pairs(pairs))


def _series_source(args):
    """(the request's source entry, the series, its normalized weights,
    () for --series); weights are echoed as the parsed list."""
    if args.weights is not None:
        weights = _parse_weights(args.weights)
        result = hilbert_series(weights)
        return {"weights": list(weights)}, result.on_shell, result.weights
    return {"series": list(args.series)}, load_series(args.series), ()


def _document(command: str, request: dict, result: dict) -> dict:
    return {"schemaVersion": SCHEMA_VERSION, "command": command,
            "request": request, "result": result}


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dumps(value, indent: str = "") -> str:
    """The text json.dumps(value, indent=2) gives for a document of
    dicts with string keys, lists, strings, ints, bools and None, built
    directly, a list of plain ints by one `%` call: json's own encoder
    falls back to pure Python whenever `indent` is set; only an `_Ints`
    list skips the type check.  Any other value raises TypeError, as
    json.dumps does."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = {int} if type(value) is _Ints else {*map(type, value)}
        if kinds == {int}:  # not bool, which prints true
            body = (f"%d,\n{inner}" * (len(value) - 1) + "%d") % tuple(value)
        elif kinds == {str}:
            body = f",\n{inner}".join(map(encode_basestring_ascii, value))
        else:
            body = f",\n{inner}".join([_dumps(item, inner) for item in value])
        return f"[\n{inner}" + body + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _dumps(item, inner)
                 for key, item in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(document: dict) -> int:
    sys.stdout.write(_dumps(document) + "\n")
    return 0


def cmd_hilbert(args) -> int:
    _check_range("--oracle-verify", args.oracle_verify, 0, _MAX_ENTRIES - 1)
    weights = _parse_weights(args.weights)
    oracle = args.oracle_verify if args.oracle_verify is not None \
        else DEFAULT_ORACLE_DEGREE
    result = hilbert_series(weights, oracle_degree=oracle)
    series = result.off_shell if args.off else result.on_shell
    payload = {
        "method": result.method,
        "normalizedWeights": list(result.weights),
        "shell": "off" if args.off else "on",
        "series": series_payload(series),
    }
    if result.pieces:
        payload["pieces"] = [series_payload(p) for p in result.pieces]
    if args.text:
        _print_series_text(payload["series"])
        return 0
    return _emit(_document("hilbert",
                           {"weights": list(weights), "off": args.off},
                           payload))


def _poly_text(coeffs) -> str:
    """Nonzero terms in ascending degree, e.g. `2 - x + 3*x^4`."""
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
            size = "" if power and abs(c) == 1 else str(abs(c))
            terms.append(("- " if c < 0 else "+ ")
                         + "*".join(filter(None, (size, power))))
    text = " ".join(terms)
    return "-" + text[2:] if text.startswith("-") else text[2:]


def _print_series_text(payload: dict) -> None:
    """One line of text from a `series_payload`."""
    parts = [f"(1-x^{m})^{e}" if e > 1 else f"(1-x^{m})"
             for m, e in payload["denominator"]]
    if "extraFactor" in payload:
        parts.append(f"({_poly_text(payload['extraFactor'])})")
    print(f"({_poly_text(payload['numerator'])}) / {''.join(parts) or '1'}")


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, from one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _checked_record(args, order: int) -> tuple:
    """(the request's source entry, the Laurent record through `order`,
    its closed forms): a --weights record (n normalized weights) is
    checked against the circle table and the pole order 2n - 2."""
    request, f, weights = _series_source(args)
    expansion = laurent_at_one(f, order)
    closed = circle_closed_forms(weights)
    check_closed_forms(expansion, closed, f"weights {weights}",
                       2 * len(weights) - 2 if weights else None)
    return request, expansion, closed


def cmd_laurent(args) -> int:
    _check_range("--order", args.order, 0, _MAX_ENTRIES - 1)  # order + 1
    request, expansion, closed = _checked_record(args, args.order)
    payload = laurent_payload(expansion)
    if closed:
        payload["closedForms"] = {f"gamma{k}": str(value)
                                  for k, value in closed.items()}
        payload["agreement"] = True
    request["order"] = args.order
    return _emit(_document("laurent", request, payload))


def cmd_symplectic(args) -> int:
    # R >= 1, or "passed" would hold vacuously; S_1..S_R read 2R gammas
    _check_range("--order", args.order, 1, _MAX_ENTRIES // 2)
    request, expansion, _ = _checked_record(args, 2 * args.order - 1)
    report = symplectic_check(expansion, args.order)
    payload = symplectic_payload(report, poleOrder=expansion.pole_order)
    request["order"] = args.order
    return _emit(_document("symplectic", request, payload))


def cmd_finite(args) -> int:
    _check_range("--order", args.order, 0, _MAX_ENTRIES // 2)  # 2R
    gens = [_parse_generator(g) for g in args.gen]
    group = FiniteDiagonalGroup.from_generators(gens)
    result = analyze_group(group)
    payload = {
        "order": group.order,
        "dimension": group.dimension,
        "coordinateOrders": list(group.coordinate_orders()),
        "series": series_payload(result.series),
        "laurent": laurent_payload(result.laurent),
        "gammas": [str(g) for g in result.gammas],
        "primitivePseudoreflectionOrders":
            list(result.reflections.primitive_orders),
        "pseudoreflectionCount": result.reflections.reflection_count,
        "twoCoordinateCount": result.reflections.two_coordinate_count,
        "qContribution": str(result.q_contribution),
    }
    if args.order:
        # S_1..S_R read gamma_0..gamma_(2R-1); result.laurent holds 0..5
        expansion = (result.laurent if args.order <= 3 else
                     laurent_at_one(result.series, 2 * args.order - 1))
        payload["symplectic"] = symplectic_payload(
            symplectic_check(expansion, args.order))
    return _emit(_document("finite",
                           {"generators": list(args.gen),
                            "order": args.order},
                           payload))


#: One level of `scan`: in the stdout document, where _dumps would
#: indent it, and as the json.dumps line of its --out BASE.jsonl file.
_LEVEL = ('      {\n        "level": %d,\n        "hits": %d,\n'
          '        "total": %d,\n        "probability": "%s",\n'
          '        "decimal": "%s"\n      }')
_LEVEL_LINE = ('{"level": %d, "hits": %d, "total": %d, '
               '"probability": "%s", "decimal": "%s"}\n')


def _level_fields(level: int, hits: int, total: int) -> tuple:
    """(level, hits, total, hits/total in lowest terms, hits/total
    rounded half-even to 12 places), 0 <= hits <= total."""
    q, rest = divmod(hits * 10 ** 12, total)
    if 2 * rest > total or 2 * rest == total and q & 1:
        q += 1
    return (level, hits, total, _ratio_text(hits, total),
            f"{q // 10 ** 12}.{q % 10 ** 12:012d}")


def cmd_scan(args) -> int:
    # hits by total weight 0..max level
    _check_range("--max-level", args.max_level, 3, _MAX_ENTRIES - 1)
    _check_range("--jobs", args.jobs, 1)
    rows = [_level_fields(*r) for r in full_scan(args.max_level)]
    if args.out:
        with open(args.out + ".jsonl", "w") as fh:
            fh.writelines(_LEVEL_LINE % row for row in rows)
        with open(args.out + ".csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["level", "hits", "total", "probability",
                             "decimal"])
            writer.writerows(rows)
    # the levels are never empty; _dumps writes the rest of the document
    head, tail = _dumps(_document("scan",
                                  {"n": 3, "maxLevel": args.max_level},
                                  {"levels": []})).rsplit("[]", 1)
    sys.stdout.write(f"{head}[\n" + ",\n".join(_LEVEL % row for row in rows)
                     + f"\n    ]{tail}\n")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by `main`."""
    parser = argparse.ArgumentParser(
        prog="squot",
        description="Exact Hilbert series of symplectic circle and "
                    "finite-group quotients.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("hilbert", help="compute a circle-quotient series")
    p.add_argument("--weights", required=True,
                   help="comma-separated nonzero integers")
    p.add_argument("--off", action="store_true",
                   help="report the off-shell series instead")
    p.add_argument("--oracle-verify", type=int, metavar="D",
                   help="verify against monomial counts through degree D")
    p.add_argument("--text", action="store_true",
                   help="print the series as one line of text, not JSON")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("laurent", help="Laurent data at x = 1")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--series", nargs="+", metavar="FILE",
                     help="fixture file(s): numerator line, factor line")
    p.add_argument("--order", type=int, default=5, metavar="K",
                   help="report gamma_0..gamma_K")
    p.set_defaults(func=cmd_laurent)

    p = sub.add_parser(
        "symplectic", help="test the S_m constraints",
        description="Report S_1..S_R. On --series input this tests the "
                    "series. On --weights input the series is reciprocal, "
                    "so S_1..S_R vanish by construction of its expansion "
                    "in w = u^2/(1 - u): \"passed\" holds whatever its "
                    "coefficients in w are.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--weights")
    src.add_argument("--series", nargs="+", metavar="FILE")
    p.add_argument("--order", type=int, required=True, metavar="R",
                   help="check S_1..S_R")
    p.set_defaults(func=cmd_symplectic)

    p = sub.add_parser(
        "finite", help="finite diagonal abelian subgroup",
        description="With --order R, also report S_1..S_R. The Molien "
                    "series is reciprocal, so S_1..S_R vanish by "
                    "construction of its expansion in w = u^2/(1 - u): "
                    "\"passed\" holds whatever its coefficients in w are.")
    p.add_argument("--gen", action="append", required=True,
                   metavar="M:E1,...,EN",
                   help="generator m:e1,...,en (repeatable); "
                        "cyclic:m:... is accepted too")
    p.add_argument("--order", type=int, metavar="R",
                   help="also check S_1..S_R")
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("scan", help="integrality statistics over triples")
    p.add_argument("--max-level", type=int, required=True, metavar="L")
    p.add_argument("--out", metavar="BASE",
                   help="write BASE.jsonl and BASE.csv")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (at least 1); the scan "
                        "runs in one process whatever its value")
    p.set_defaults(func=cmd_scan)
    return parser


def _attach_values(argv) -> list:
    """`--weights -3,5` as `--weights=-3,5`, and `--gen -3:1` as
    `--gen=-3:1`: argparse takes a token that starts with '-' and is not
    one number for an option."""
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (out and len(out[-1]) > 2
                and any(o.startswith(out[-1]) for o in ("--weights", "--gen"))
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one command; the class of what it raises decides the exit
    code.  Python's limit on int/text digits is lifted while it runs."""
    parser = build_parser()
    digits = hasattr(sys, "set_int_max_str_digits")  # 3.10.7 and later
    if digits:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(_attach_values(argv))
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        # a request within every bound can still not fit, e.g. weights
        # near sys.maxsize give ints with too many digits for any machine
        print("error: not enough memory for this request", file=sys.stderr)
        return 2
    except SquotError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if digits:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
