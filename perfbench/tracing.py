"""Per-layer tracing from outside the program.

`Tracer.install` replaces each covered squot function, at every module
attribute that binds it, with a wrapper that records a span: calls,
and self time (the span's duration minus the spans of covered
functions it called).  Some wrappers also read a count from the
call's arguments or result.  squot's source is not touched; the
wrappers stay installed until the traced process exits.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (module, qualified name) of every covered function.
COVERED = (
    ("cli", "main"),
    ("circle", "hilbert_series"),
    ("circle", "hilbert_on_distinct"),
    ("circle", "u_average"),
    ("circle", "residue_cluster"),
    ("circle", "hilbert_off_clustered"),
    ("circle", "verify_against_oracle"),
    ("exact", "series_of_rational"),
    ("exact", "rational_reconstruct"),
    ("exact", "laurent_at_one"),
    ("exact", "RationalFunction.reduce"),
    ("laurent", "gamma0_closed"),
    ("laurent", "gamma2_closed"),
    ("laurent", "symplectic_check"),
    ("finite", "FiniteDiagonalGroup.from_generators"),
    ("finite", "invariant_counts"),
    ("finite", "molien_series"),
    ("finite", "reflection_analysis"),
    ("finite", "analyze_group"),
    ("scan", "hits_by_sum"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _degree(f):
    """Numerator plus denominator degree of a RationalFunction; both
    denominator kinds expose `.degree` without expanding."""
    return f.numerator.degree + f.denominator.degree


def unordered_triples(level):
    """Triples a <= b <= c with a + b + c <= level, the scan loop's
    iteration count."""
    return sum((level - a - 2 * b) + 1
               for a in range(1, level // 3 + 1)
               for b in range(a, (level - a) // 2 + 1))


class Tracer:
    """Span and count recorder for one traced pass."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        # count name -> [numerator, denominator]; a denominator of None
        # marks a plain total
        self.counts = {
            "exact.series_of_rational.coeffs": [0, None],
            "exact.rational_reconstruct.useful_ratio": [0, 0],
            "circle.u_average.kept_ratio": [0, 0],
            "exact.laurent_at_one.input_degree": [0, None],
            "exact.RationalFunction.reduce.degree_in": [0, None],
            "exact.RationalFunction.reduce.degree_out": [0, None],
            "circle.verify_against_oracle.degree": [0, None],
            "finite.group_order": [0, None],
            "scan.triples": [0, None],
        }
        self._stack = []

    # ------------------------------------------------------------ counts

    def _add(self, name, num, den=0):
        entry = self.counts[name]
        entry[0] += num
        if entry[1] is not None:
            entry[1] += den

    def _counter(self, name, defaults):
        """Count hook for a covered function, or None."""
        add = self._add
        if name == "exact.series_of_rational":
            return lambda a, k, r: add("exact.series_of_rational.coeffs",
                                       _arg(a, k, 1, "order") + 1)
        if name == "exact.rational_reconstruct":
            return lambda a, k, r: add(
                "exact.rational_reconstruct.useful_ratio",
                _arg(a, k, 2, "degree_bound") + 1,
                _arg(a, k, 0, "prefix").order + 1)
        if name == "circle.u_average":
            return lambda a, k, r: add("circle.u_average.kept_ratio", 1,
                                       _arg(a, k, 1, "a"))
        if name == "exact.laurent_at_one":
            return lambda a, k, r: add("exact.laurent_at_one.input_degree",
                                       _degree(_arg(a, k, 0, "f")))
        if name == "exact.RationalFunction.reduce":
            def reduce_hook(a, k, r):
                add("exact.RationalFunction.reduce.degree_in", _degree(a[0]))
                add("exact.RationalFunction.reduce.degree_out", _degree(r))
            return reduce_hook
        if name == "circle.verify_against_oracle":
            return lambda a, k, r: add("circle.verify_against_oracle.degree",
                                       _arg(a, k, 2, "order", defaults[-1]))
        if name == "finite.FiniteDiagonalGroup.from_generators":
            return lambda a, k, r: add("finite.group_order", r.order)
        if name == "scan.hits_by_sum":
            return lambda a, k, r: add(
                "scan.triples", unordered_triples(_arg(a, k, 0, "level")))
        return None

    # ------------------------------------------------------------- spans

    def _wrap(self, name, func):
        self.self_s[name] = 0.0
        self.calls[name] = 0
        counter = self._counter(name, func.__defaults__)
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[name] += span - stack.pop()
                calls[name] += 1
            if counter is not None:
                counter(args, kwargs, result)
            if stack:
                # the parent's self time excludes this span and its count
                stack[-1] += perf_counter() - start
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "squot" or name.startswith("squot.")}
        for mod_name, qual in COVERED:
            module = modules["squot." + mod_name]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                static = isinstance(raw, staticmethod)
                func = raw.__func__ if static else raw
                wrapper = self._wrap(name, func)
                setattr(cls, attr, staticmethod(wrapper) if static else wrapper)
                continue
            func = getattr(module, qual)
            wrapper = self._wrap(name, func)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)

    def metrics(self):
        """Per-layer totals, keyed by metric name: (value, unit)."""
        out = {}
        for name in self.self_s:
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        for name, (num, den) in self.counts.items():
            if den is None:
                out[name] = (num, "count")
            else:
                out[name] = (num / den if den else 0.0, "ratio")
        return out
