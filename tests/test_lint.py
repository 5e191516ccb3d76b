"""Source checks over src/hyperkit: no unused module-level imports, no memo
outside hyperkit.search, and no bare `assert` in the modules that have been
cleared of them."""
import ast
import os

import pytest

import hyperkit

SRC = os.path.dirname(os.path.abspath(hyperkit.__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


# the package __init__ imports to re-export: its imports are the public API
@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_module_level_imports_are_used(name):
    tree = _tree(name)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "search.py"])
def test_no_memo_outside_search(name):
    memos = {"lru_cache", "cache", "cached_property"}
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in memos]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in memos
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(f"functools.{node.attr}")
    assert found == []


# Modules whose invariants are all `errors.ensure` checks, which still run
# under `python -O`; extend the list as more modules are cleared.
NO_BARE_ASSERT = ["axioms.py", "core.py", "hom.py", "matroid.py", "monoidal.py", "univ.py", "zoo.py"]


@pytest.mark.parametrize("name", NO_BARE_ASSERT)
def test_no_bare_assert(name):
    lines = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Assert)]
    assert lines == []
