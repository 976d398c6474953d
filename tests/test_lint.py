"""Leftovers in the package source and the tests, found with ``ast``.

An import that its module never uses, and a private top-level function,
class or method that nothing in the package refers to, are code that no
verdict reaches.  Imports are checked in the package and the test modules;
the package's ``__init__.py`` is skipped: it re-exports.
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
