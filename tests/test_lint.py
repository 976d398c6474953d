"""Leftovers in the package source and the tests, found with ``ast``.

An import that its module never uses, and a private top-level function,
class or method that nothing in the package refers to, are code that no
verdict reaches.  Imports are checked in the package and the test modules;
the package's ``__init__.py`` is skipped: it re-exports.  The packed layout
of a monomial is read in ``jets`` alone, so no other package module imports
or reads a name of that layout.  ``operators``, the ring of differential
operators over the field of fractions, imports from the package only the
layers below it.  The raw words and local parts of ``nonlocal_ops`` stay
inside it: no other package module imports one of its private names.
"""

import ast
import os

import pytest

import diffalg

SRC = os.path.dirname(os.path.abspath(diffalg.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
# a package module by its file name, a test module as tests/<file name>
IMPORTING = {**{m: os.path.join(SRC, m) for m in MODULES if m != "__init__.py"},
             **{f"tests/{f}": os.path.join(TESTS, f)
                for f in sorted(os.listdir(TESTS)) if f.endswith(".py")}}


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _used_names(tree: ast.Module) -> set:
    """Every name read as a variable or an attribute, including the names in
    string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("name", list(IMPORTING))
def test_every_import_is_used(name):
    tree = _tree(IMPORTING[name])
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{name} imports but never uses {unused}"


def test_every_private_definition_is_referenced():
    trees = {name: _tree(os.path.join(SRC, name)) for name in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = []
    for name, tree in trees.items():
        defs = list(tree.body)
        defs += [d for c in tree.body if isinstance(c, ast.ClassDef) for d in c.body]
        for node in defs:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__") \
                    and node.name not in referenced:
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert not unreferenced, f"defined but never referenced: {unreferenced}"


# the packed monomial's layout: field width, bias and masks, the field tables
# and the decoders and shifts that read them
LAYOUT = {"_W", "_LOG_W", "_MASK", "_HALF", "_HALVES", "_WIDE", "_JETS", "_FIELD",
          "_field", "_fields", "_digit", "_support", "_SHIFT", "_new_shift"}


def test_only_jets_knows_the_monomial_layout():
    """Every other module multiplies and divides monomials with + and - and
    reads them through the functions of ``jets``, so a change of the layout
    touches ``jets`` alone."""
    leaks = []
    for name in MODULES:
        if name == "jets.py":
            continue
        for node in ast.walk(_tree(os.path.join(SRC, name))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(
                    node.value, "id", getattr(node.value, "attr", None)) == "jets":
                names = [node.attr]
            else:
                continue
            leaks += [f"{name}:{node.lineno} {n}" for n in names if n in LAYOUT]
    assert not leaks, f"the monomial layout is read outside jets: {leaks}"


def _package_imports(tree: ast.Module) -> set:
    """The package modules a module imports, by their short names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "diffalg"):
            if node.module in (None, "diffalg"):  # from . import name
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".", 1)[1] for alias in node.names
                      if alias.name.startswith("diffalg.")}
    return found


def test_operators_imports_only_the_layers_below_it():
    """The arithmetic under the ring, and ``grammar`` to print an operator;
    evolutionary fields on operators live in ``calculus``, above it."""
    found = _package_imports(_tree(os.path.join(SRC, "operators.py")))
    extra = found - {"jets", "ratfun", "tower", "grammar"}
    assert not extra, f"operators imports from above its layer: {sorted(extra)}"


def test_no_module_imports_the_private_names_of_nonlocal_ops():
    """An identity that needs the raw words of a product or a Lie derivative
    is built in ``nonlocal_ops``, as ``twisted_lie`` and ``hereditary_defect``
    are, and reaches the other modules through their public names."""
    leaks = []
    for name in MODULES:
        for node in ast.walk(_tree(os.path.join(SRC, name))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(
                    ".", 1)[-1] == "nonlocal_ops":
                leaks += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not leaks, f"private names of nonlocal_ops imported: {leaks}"
