"""Every name of the package has a reader in the program itself.

Each top-level name of `src/intforms/*.py`, and each method of its classes,
must be read somewhere in `src/` or `perfbench/` outside its own
definition; only dunders are exempt.  Tests do not count as readers: a
public name that only tests call is surface without a user, and a private
helper that nothing calls is dead code, and either goes.

A top-level function or class is read where its module reads its bare
name, or where another module reads it through what it imported: a name
bound by `from .m import name` (or `from intforms.m import name`), or an
attribute `m.name` of a module bound by an import.  Importing a name is not
reading it, so a re-export in `__init__.py` does not count.  A method is
matched by its bare name, so it shares its readers with every attribute of
the same name; that half catches the methods nothing reads at all.
"""
from __future__ import annotations

import ast
from collections import Counter
from functools import cache
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


def _bound_modules(tree, modules):
    """Local names bound to package modules ("" for the package itself),
    and to their top-level names, by the imports anywhere in tree."""
    to_module, to_name = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif node.module == "intforms" or node.module.startswith("intforms."):
                base = node.module[len("intforms.") :]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    to_name[local] = f"{base}.{alias.name}"
                elif alias.name in modules:
                    to_module[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "intforms" or alias.name.startswith("intforms."):
                    if alias.asname:
                        to_module[alias.asname] = alias.name[len("intforms.") :]
                    else:
                        to_module["intforms"] = ""
    return to_module, to_name


def _module_of(node, to_module, modules):
    # the package module an expression names, or None
    if isinstance(node, ast.Name):
        return to_module.get(node.id)
    if isinstance(node, ast.Attribute) and _module_of(node.value, to_module, modules) == "":
        return node.attr if node.attr in modules else None
    return None


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(function):
    """The names a function binds itself, other than by import: its
    parameters, and every target in its body outside nested functions."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    body = function.body if isinstance(function.body, list) else [function.body]
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _scoped(tree, shadowed=frozenset()):
    """Every node under tree, with the names that enclosing functions bind
    locally there, so that a bare name read there is not the module's."""
    for node in ast.iter_child_nodes(tree):
        inner = shadowed | _locals(node) if isinstance(node, _FUNCTIONS) else shadowed
        yield node, inner
        yield from _scoped(node, inner)


def _reads(tree, module, modules, top):
    """Qualified top-level names read in tree, and bare names read at all."""
    to_module, to_name = _bound_modules(tree, modules)
    qualified, bare = Counter(), Counter()
    for node, shadowed in _scoped(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare[node.id] += 1
            if node.id in shadowed:
                continue
            if node.id in to_name:
                qualified[to_name[node.id]] += 1
            elif module is not None and node.id in top[module]:
                qualified[f"{module}.{node.id}"] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            bare[node.attr] += 1
            owner = _module_of(node.value, to_module, modules)
            if owner:
                qualified[f"{owner}.{node.attr}"] += 1
    return qualified, bare


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(qualified):
    return any(part.startswith("_") for part in qualified.split(".")[1:])


def _definitions(module, tree):
    """(qualified name, is a method, defining node) of each name but the
    dunders."""
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
            if not _dunder(name):
                yield f"{module}.{name}", False, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not _dunder(member.name):
                    yield f"{module}.{node.name}.{member.name}", True, member


@cache
def _scan():
    """Qualified names of all definitions, and of those nothing reads."""
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    modules = set(package)
    top = {
        module: {qualified.split(".")[1] for qualified, _, _ in _definitions(module, tree)}
        for module, tree in package.items()
    }
    trees = [(module, tree) for module, tree in package.items()]
    trees += [(None, ast.parse(path.read_text())) for path in (ROOT / "perfbench").glob("*.py")]
    qualified, bare = Counter(), Counter()
    for module, tree in trees:
        reads = _reads(tree, module, modules, top)
        qualified += reads[0]
        bare += reads[1]
    defined, unread = set(), set()
    for module, tree in package.items():
        for name, method, node in _definitions(module, tree):
            defined.add(name)
            own = ast.Module(body=[node], type_ignores=[])
            own_q, own_bare = _reads(own, module, modules, top)
            if method:
                short = name.rsplit(".", 1)[1]
                if bare[short] == own_bare[short]:
                    unread.add(name)
            elif qualified[name] == own_q[name]:
                unread.add(name)
    return defined, unread


def test_every_public_name_has_a_reader():
    defined, unread = _scan()
    assert sorted(name for name in unread - ALLOWED.keys() if not _private(name)) == []
    # an entry whose definition went goes with it
    assert sorted(ALLOWED.keys() - defined) == []


def test_every_private_helper_has_a_reader():
    _, unread = _scan()
    assert sorted(name for name in unread if _private(name)) == []
