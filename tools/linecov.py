"""Statement coverage of `src/squot` under pytest, with no dependency
beyond the standard library and pytest.

Runs `pytest.main(argv)` in this process with a line tracer
(`sys.settrace`, and `threading.settrace` for threads) on every frame
whose code lives in `src/squot`, then prints, per module, the
statements that never ran.  Statements are found with `ast`: those in
function and method bodies, less docstrings and `def`, `class`,
`import`, `global` and `nonlocal` lines; module-level and class-level
statements run at import and are skipped.  A statement ran if a line
event fired on any line of it (only its header, for `if`, `for`,
`while`, `with` and `match`); a `try` ran if any statement in it ran.

    python tools/linecov.py -q tests/

The arguments go to pytest as they are.  Tracing slows the suite down
about 2.5 times, so this is run by hand, not in CI.  The exit code is
pytest's.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "squot")

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
            ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _blocks(node) -> list:
    """The statement lists nested in a compound statement."""
    blocks = [getattr(node, field, []) for field in
              ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", [])]
    blocks += [c.body for c in getattr(node, "cases", [])]
    return [b for b in blocks if b]


def statements(tree) -> dict:
    """{line: the lines whose events count for the statement} for each
    statement in a function body of the module `tree`; a `try` maps to
    the lines of the statements in it."""
    found = {}

    def visit(body, in_function):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                visit(node.body, isinstance(node, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef)))
                continue
            if not in_function or isinstance(node, _SKIPPED) \
                    or (i == 0 and _is_docstring(node)):
                continue
            blocks = _blocks(node)
            if isinstance(node, ast.Try):
                found[node.lineno] = set(range(node.lineno,
                                               node.end_lineno + 1))
            else:
                end = blocks[0][0].lineno - 1 if blocks else node.end_lineno
                found[node.lineno] = set(range(node.lineno, end + 1))
            for block in blocks:
                visit(block, True)
    visit(tree.body, False)
    return found


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    ran = set()  # (file, line)
    prefix = os.path.realpath(PACKAGE) + os.sep
    ours = {}  # co_filename -> whether it lives in the package

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return on_line if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines = {}  # realpath -> lines that ran
    for name, line in ran:
        lines.setdefault(os.path.realpath(name), set()).add(line)
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path) as fh:
            source = fh.read()
        done = lines.get(os.path.realpath(path), set())
        found = statements(ast.parse(source, path))
        missed = sorted(k for k, span in found.items() if not span & done)
        text = source.splitlines()
        print(f"src/squot/{module}: {len(missed)} of {len(found)} "
              "statements never ran")
        for k in missed:
            print(f"  {k:5d}  {text[k - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
