"""Every function of the package runs in the program, or says why not.

`test_api.py` asks that each name have a reader in `src/`; a name can
still be read only from code the program never runs.  This test runs
`cli.main` in process on the fast commands of `test_golden.py` (each in
both formats) and on `preset list`, with every preset loaded afresh, under
`sys.setprofile`, and collects the code objects that start.  Each
non-dunder function or method of `src/intforms/*.py`, nested ones
included, must be among them or be listed in ALLOWED with the reason it
stays.  An entry that runs, or whose function is gone, fails too.

Code objects are matched by file and first line (a decorated function
starts at its first decorator), not by `co_qualname`, which Python 3.10
lacks.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import intforms
from intforms.cli import main
from intforms.presets import REGISTRY

from test_golden import BROKEN, RUNS

PACKAGE = Path(intforms.__file__).resolve().parent
COMMANDS = [
    [*argv, "--format", fmt]
    for name, (argv, _) in RUNS.items()
    if name.endswith("-fast") and BROKEN not in argv
    for fmt in ("text", "json")
] + [["preset", "list"]]

# why a function stays although the commands above never run it
TEST_REFERENCE = "the tests' reference for a kernel the program runs"
PERFBENCH = "read by perfbench"
INPUT = "reached by input the shipped presets do not contain: a literal or an error"
OPERATORS = "takes Fraction operands, as the scalar types' operators do"
DUNDER = "a helper of dunder methods, which this test exempts"
IMPORT = "runs when the package is imported, before the trace starts"
KEPT = "kept on purpose; see test_api.ALLOWED"

ALLOWED = {
    "homconn.hom_mul_form": TEST_REFERENCE,
    "homconn.HomForm._like": DUNDER,
    "descent.BHomForm._like": DUNDER,
    "matrixcalc.MatForm._like": DUNDER,
    "matrixcalc.MatHomForm._like": DUNDER,
    "dga._form_term_str": DUNDER,
    "scalars.ScalarRF.is_zero": PERFBENCH,
    "scalars.ScalarRF.denom_terms": PERFBENCH,
    "scalars.ScalarRF.evaluate": PERFBENCH,
    "scalars._eval_terms": PERFBENCH,
    "scalars._exact": OPERATORS,
    "scalars.ScalarContext.from_fraction": OPERATORS,
    "scalars.ScalarContext._power": INPUT,
    "scalars.ScalarContext._out_of_range": INPUT,
    "scalars.ScalarContext._overflow": INPUT,
    "scalars._power": INPUT,
    "scalars._check_power_size": INPUT,
    "scalars._fraction_sub": INPUT,
    "parser._ExprParser.fail": INPUT,
    "dga.check_d_squared.<locals>.fail": INPUT,
    "presets._data_text": IMPORT,
    "presets._registry": IMPORT,
    "suites._calculus_with": IMPORT,
    "dga.CalculusSpec.reduce_word": KEPT,
    "multider.detect_q_skew": KEPT,
    "multider._ratio": KEPT,
    "ncalg.counit": KEPT,
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _functions():
    """{(file, first line): qualified name} of every non-dunder function."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not _dunder(child.name):
                    out[(str(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def _reached(monkeypatch):
    """(file, first line) of every code object the commands start."""
    for preset in REGISTRY.values():
        monkeypatch.setattr(preset, "_cache", None)
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            statuses = [main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert statuses == [0] * len(COMMANDS)
    files = {name: str(Path(name).resolve()) for name, _ in reached}
    return {(files[name], line) for name, line in reached}


def test_every_function_runs_in_the_program_or_is_allowed(monkeypatch):
    functions = _functions()
    reached = {functions[key] for key in _reached(monkeypatch) if key in functions}
    unreached = set(functions.values()) - reached
    assert sorted(unreached - ALLOWED.keys()) == []
    # an entry goes when its function starts to run, or is gone
    assert sorted(ALLOWED.keys() & reached) == []
    assert sorted(ALLOWED.keys() - set(functions.values())) == []
