"""The memo's scope rule, each case in a fresh interpreter: tier-1 itself runs
inside one session-wide `search.scope()` (tests/conftest.py), so only a new
process starts with no scope open and an empty memo."""
import json
import os
import subprocess
import sys

import hyperkit

# The zero-argument memoised functions, whose one entry lasts the process.
CONSTANTS = {
    "hyperkit.zoo.z2",
    "hyperkit.zoo.krasner",
    "hyperkit.zoo.make_gf9",
    "hyperkit.zoo.gf9_quotient",
    "hyperkit.zoo.gf9_frobenius",
    "hyperkit.zoo._gf9_classifier_targets",
}

PRELUDE = """
import json, os, sys
import hyperkit.cli, hyperkit.suite
from hyperkit import axioms, cli, hom, monoidal, search, zoo
from hyperkit.axioms import Tag
from hyperkit.errors import SearchCapExceeded

# every memo table, by the name of the memoised function
TABLES = {
    f"{fn.__module__}.{fn.__name__}": fn.cache_clear.__self__
    for name, module in list(sys.modules.items())
    if name.startswith("hyperkit")
    for fn in vars(module).values()
    if hasattr(fn, "cache_clear")
}

def held():
    return {name: [repr(key) for key in table] for name, table in TABLES.items() if table}

def set_cap(nodes):
    os.environ["HYPERKIT_SEARCH_CAP"] = str(nodes)

V = zoo.group_to_hypermagma(zoo.klein_four_group())
H, K = zoo.gf9_quotient().additive, zoo.krasner()
"""


def _fresh(script: str):
    """What `script` prints as JSON, run after PRELUDE in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("HYPERKIT_SEARCH_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _only_constants(held: dict) -> bool:
    return set(held) <= CONSTANTS and all(keys == ["()"] for keys in held.values())


def test_top_level_calls_leave_only_the_constants():
    held = _fresh(
        """
monoidal.hom_object(V, H, Tag.CMSC)
monoidal.enumerate_bimorphisms(V, V, K, Tag.CMSC)
axioms.analyze(V)
print(json.dumps(held()))
"""
    )
    assert _only_constants(held) and "hyperkit.zoo.gf9_quotient" in held


def test_commands_leave_only_the_constants(tmp_path):
    held = _fresh(
        f"""
os.chdir({str(tmp_path)!r})
out = []
for argv in (
    ["paper-suite", "--max-size", "2"],
    ["construct", "builtin", "--name", "klein", "-o", "v.json"],
    ["construct", "hom", "v.json", "v.json", "--tag", "cmsc", "-o", "h.json"],
    ["check", "h.json"],
):
    code = cli.main(argv)
    out.append((code, held()))
print(json.dumps(out))
"""
    )
    assert len(held) == 4
    for code, after in held:
        assert code == 0 and _only_constants(after)


def test_a_command_shares_results_across_its_checks():
    alone, command = _fresh(
        """
import contextlib, io
searches = []
real = hom.colax_maps
hom.colax_maps = lambda *args: searches.append(1) or real(*args)
hyperkit.suite.run_suite(only="refuter", max_size=3)
alone = len(searches)
searches.clear()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["paper-suite", "--only", "refuter", "--max-size", "3"])
print(json.dumps([alone, len(searches)]))
"""
    )
    # the three refuters read the same hom-sets of each class; `run_suite`
    # opens one scope for its checks, in a command or outside one
    assert alone == command > 0


def test_a_scope_shares_results_until_it_ends():
    seen = _fresh(
        """
name = "hyperkit.monoidal.hom_object"
with search.scope():
    first = monoidal.hom_object(V, H, Tag.CMSC)
    shared = monoidal.hom_object(V, H, Tag.CMSC) is first
    with search.scope():
        report = axioms.analyze(V)
        inner = axioms.analyze(V) is report and monoidal.hom_object(V, H, Tag.CMSC) is first
    after_inner = (name in held(), "hyperkit.axioms.analyze" in held())
print(json.dumps([shared, inner, after_inner, held()]))
"""
    )
    shared, inner, after_inner, after = seen
    assert shared and inner
    assert after_inner == [True, False]
    assert _only_constants(after)


def test_a_failed_search_leaves_no_entry():
    seen = _fresh(
        """
out = []
set_cap(3)
with search.scope():
    try:
        monoidal.hom_object(V, H, Tag.CMSC)
    except SearchCapExceeded as exc:
        out.append(str(exc))
    out.append(held())
out.append(held())
try:
    monoidal.hom_object(V, H, Tag.CMSC)
except SearchCapExceeded:
    out.append(held())
print(json.dumps(out))
"""
    )
    message, during, after_scope, after_call = seen
    assert message == "enumerate_morphisms(|M|=4, |N|=5, cmsc): node cap exceeded after 3 nodes"
    # the failed search's nested calls had made entries
    assert "hyperkit.hom.colax_schedule" in during
    assert _only_constants(after_scope) and _only_constants(after_call)


def test_a_hit_in_a_scope_raises_at_the_cap_of_a_cold_call():
    seen = _fresh(
        """
fn = hom.enumerate_morphisms
key = (V, H, Tag.CMSC)

def at_cap(nodes):
    set_cap(nodes)
    try:
        return len(fn(*key))
    except SearchCapExceeded as exc:
        return str(exc)

out = []
with search.scope():
    maps = fn(*key)
    nodes = fn.cache_clear.__self__[key][1]
    out += [nodes, len(maps), at_cap(nodes), at_cap(nodes - 1)]
for cap in (nodes - 1, nodes):
    with search.scope():
        out.append(at_cap(cap))
print(json.dumps(out))
"""
    )
    nodes, count, warm_at, warm_below, cold_below, cold_at = seen
    assert nodes > 3 and count > 0
    assert warm_at == cold_at == count
    assert warm_below == cold_below
    assert warm_below.endswith(f"node cap exceeded after {nodes - 1} nodes")
