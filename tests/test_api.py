"""Every public name of the package has a reader in the program itself.

Each public top-level name of `src/intforms/*.py`, and each public method
of its public classes, must be read somewhere in `src/` or `perfbench/`
outside its own definition.  Tests do not count as readers: a name that
only tests call is surface without a user, and goes.  The scan matches
bare names, so a method shares its readers with every attribute of the
same name; it catches the names nothing reads at all.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "intforms"

# qualified name -> why it stays without a reader
ALLOWED = {
    "dga.CalculusSpec.reduce_word": (
        "the top-form pairing that derives ladder verticals is to read it"
    ),
    "multider.detect_q_skew": "the paper's q-skew notion, kept on purpose",
    "ncalg.counit": "the validation of the Hopf data at load is to read it",
    "ncalg.antipode": (
        "its inverse branch (power=-1) waits for the same validation"
    ),
}


def _reads(node):
    """How often each bare name is read under node, as a variable or attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _definitions(module, tree):
    """(qualified name, bare name, defining node) of each public name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield f"{module}.{name}", name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member.name, member


def _scan():
    """Qualified names of all public definitions, and of those nothing reads."""
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    reads = Counter()
    for tree in package.values():
        reads += _reads(tree)
    for path in (ROOT / "perfbench").glob("*.py"):
        reads += _reads(ast.parse(path.read_text()))
    defined, unread = set(), set()
    for module, tree in package.items():
        for qualified, name, node in _definitions(module, tree):
            defined.add(qualified)
            if reads[name] == _reads(node)[name]:
                unread.add(qualified)
    return defined, unread


def test_every_public_name_has_a_reader():
    defined, unread = _scan()
    assert sorted(unread - ALLOWED.keys()) == []
    # an entry whose definition went goes with it
    assert sorted(ALLOWED.keys() - defined) == []
