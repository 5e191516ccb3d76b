"""Source checks over src/hyperkit: no unused module-level imports (there
and in tests/), each module importing only from the layers below it and each
name from the module that defines it, no function-level import but cli's deferred one,
no name a function reads that is bound nowhere, no memo outside hyperkit.search,
memoised functions with positional parameters only, no bare `assert` in any
module, no definition that nothing names, no dataclass field that nothing
reads, no function parameter that its body never reads, every function
the benchmark's tracer wraps still exists, every module stays below
8,192 tokens, and every error message and search name that opens with a
function's name names a function that exists."""
import ast
import builtins
import importlib
import os
import re
import symtable
import tokenize

import pytest

import hyperkit

SRC = os.path.dirname(os.path.abspath(hyperkit.__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


TESTS = os.path.dirname(os.path.abspath(__file__))
# the package __init__ imports to re-export: its imports are the public API
IMPORTERS = {m: os.path.join(SRC, m) for m in MODULES if m != "__init__.py"}
IMPORTERS.update(
    (f"tests/{m}", os.path.join(TESTS, m)) for m in sorted(os.listdir(TESTS)) if m.endswith(".py")
)


@pytest.mark.parametrize("name", list(IMPORTERS))
def test_module_level_imports_are_used(name):
    with open(IMPORTERS[name]) as fh:
        tree = ast.parse(fh.read(), name)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


# (module, function, imported module) of each import a function makes: cli
# keeps the suite out of `check` and `construct`, and says so on its line
DEFERRED_IMPORTS = [("cli.py", "cmd_paper_suite", "suite")]


def test_function_level_imports_are_the_deferred_ones():
    found = []
    for name in MODULES:
        with open(os.path.join(SRC, name)) as fh:
            source = fh.read()
        lines = source.splitlines()
        owner = {}
        # ast.walk goes outside in, so a nested function overwrites its parent
        for node in ast.walk(ast.parse(source, name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    owner[child] = node.name
        for node, function in owner.items():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = node.module if isinstance(node, ast.ImportFrom) else node.names[0].name
                found.append((name, function, module))
                assert "  # deferred: " in lines[node.lineno - 1], found[-1]
    assert sorted(found) == DEFERRED_IMPORTS


# The package's layers, lowest first: hom-sets and morphism kinds, then free
# and representing objects and (co)limits, then the examples, the monoidal
# structures with their internal homs, and what is built on them.  The
# package's __init__ and __main__ sit above every layer.
LAYERS = [
    "errors", "search", "core", "axioms", "hom", "univ",
    "zoo", "monoidal", "matroid", "formats", "suite", "cli",
]
ENTRY_POINTS = ["__init__", "__main__"]


# a module imports from lower layers only, in a function too, so no cycle
# can form; and each name from the module that defines it
def test_imports_follow_the_layers_and_name_the_defining_module():
    assert sorted(f"{m}.py" for m in LAYERS + ENTRY_POINTS) == MODULES
    defined = {m: set(_definitions(_tree(f"{m}.py"))) for m in LAYERS}
    bad = []
    for name in MODULES:
        module = name[:-3]
        for node in ast.walk(_tree(name)):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module is None:  # `from . import formats` imports modules
                pairs = [(alias.name, None) for alias in node.names]
            else:
                pairs = [(node.module, alias.name) for alias in node.names]
            for target, imported in pairs:
                if module in LAYERS and LAYERS.index(target) >= LAYERS.index(module):
                    bad.append(f"{name} imports {target}, which is not below it")
                if imported is not None and imported not in defined[target]:
                    bad.append(f"{name} imports {imported} from {target}, which does not define it")
    assert bad == []


# a global that no module-level statement binds fails only when it is read
@pytest.mark.parametrize("name", MODULES)
def test_globals_read_are_bound(name):
    with open(os.path.join(SRC, name)) as fh:
        top = symtable.symtable(fh.read(), name, "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    unbound = []
    scopes = list(top.get_children())
    while scopes:
        scope = scopes.pop()
        scopes += scope.get_children()
        for sym in scope.get_symbols():
            g = sym.get_name()
            if sym.is_global() and sym.is_referenced() and g not in bound:
                if not hasattr(builtins, g):
                    unbound.append(f"{scope.get_name()}: {g}")
    assert sorted(unbound) == []


# a parameter that the body never reads is an input that does nothing
def test_function_parameters_are_read():
    unread = []
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            function = f"{name}:{getattr(node, 'name', 'lambda')}"
            unread += [f"{function}:{p}" for p in params if p not in read]
    assert unread == []


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


# a memoised call has one key: its positional args, with nothing defaulted
@pytest.mark.parametrize("name", MODULES)
def test_memo_functions_take_positional_args_only(name):
    bad = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(d, ast.Name) and d.id == "memo" for d in node.decorator_list
        ):
            a = node.args
            if a.defaults or a.kwonlyargs or a.vararg or a.kwarg:
                bad.append(node.name)
    assert bad == []


# invariants are `errors.ensure` checks, which still run under `python -O`
@pytest.mark.parametrize("name", MODULES)
def test_no_bare_assert(name):
    lines = [node.lineno for node in ast.walk(_tree(name)) if isinstance(node, ast.Assert)]
    assert lines == []


# CPython 3.11's parser allocates its tokens in blocks that double in size,
# so a module of 8,192 tokens or more compiles with a higher memory peak, and
# every pass of the benchmark compiles the package from source.  Comments,
# blank lines and the encoding marker are not counted.
TOKEN_LIMIT = 8192
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("name", MODULES)
def test_module_stays_below_the_parser_token_step(name):
    with open(os.path.join(SRC, name), "rb") as fh:
        tokens = sum(t.type not in UNCOUNTED for t in tokenize.tokenize(fh.readline))
    assert tokens < TOKEN_LIMIT


def test_traced_names_resolve():
    # read from the source, so that the benchmark harness is not imported
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), "tracer.py")
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    ]
    names = ast.literal_eval(traced)
    assert names
    missing = []
    for name in names:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"hyperkit.{module}"), func, None)):
            missing.append(name)
    assert missing == []


def _named(tree):
    """Every identifier a module names: names read, attributes, imported
    names, and dotted-name strings such as the tracer's "zoo.analyze".  A
    name that is only assigned is not named."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                out += node.value.split(".")
    return out


def _definitions(tree):
    """The module-level functions, classes and assigned names, and the
    methods of module-level classes other than dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}"
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__version__":
                yield target.id


def _project_trees():
    """The parsed modules of src/hyperkit, tests and perfbench."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for folder in (SRC, os.path.join(root, "tests"), os.path.join(root, "perfbench")):
        for dirpath, _, files in os.walk(folder):
            for f in files:
                if f.endswith(".py"):
                    with open(os.path.join(dirpath, f)) as fh:
                        yield ast.parse(fh.read(), f)


def test_module_level_definitions_are_named_elsewhere():
    # a definition that nothing names is dead code
    named = {name for tree in _project_trees() for name in _named(tree)}
    unnamed = [
        f"{name}:{definition}"
        for name in MODULES
        for definition in _definitions(_tree(name))
        if definition.split(".")[-1] not in named
    ]
    assert unnamed == []


def _dataclass_fields(tree):
    """The fields of the module-level dataclasses, as Class.field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(d, ast.Name) and d.id == "dataclass"
            or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}"


def test_dataclass_fields_are_read():
    # a field that no code reads is a result nobody uses
    read = {
        node.attr
        for tree in _project_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}:{field}"
        for name in MODULES
        for field in _dataclass_fields(_tree(name))
        if field.split(".")[-1] not in read
    ]
    assert unread == []


def _leading_text(node):
    """The literal text a message expression opens with: a string, or the
    first literal part of an f-string; "" for anything else."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _messages(tree):
    """The messages of each `raise E(msg)` and `ensure(cond, msg)`, and the
    name of each `Budget(name)`, as expressions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            yield node.exc.args[0]
        elif isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "ensure" and len(node.args) == 2:
                yield node.args[1]
            elif called == "Budget" and node.args:
                yield node.args[0]


# a message that opens with "name(" or "name: " says which function failed
# or which search ran out; a renamed or deleted function leaves it stale
NAMED = re.compile(r"([A-Za-z_]\w*)(?:\(|: )")


def test_messages_name_functions_that_exist():
    trees = {name: _tree(name) for name in MODULES}
    functions = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    named, stale = [], []
    for name, tree in trees.items():
        for message in _messages(tree):
            match = NAMED.match(_leading_text(message))
            if match:
                named.append(match[1])
                if match[1] not in functions:
                    stale.append(f"{name}:{message.lineno}: {match[1]}")
    assert "reversible_table_blocks" in named
    assert stale == []
