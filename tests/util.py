"""Shared builders for the test suite."""
from typing import Any

from hyperkit.axioms import Tag
from hyperkit.core import Hypermagma, Morphism, UnionFind, compose, quotient, terminal
from hyperkit.matroid import Matroid
from hyperkit.suite import d_weak_example as d_example, klein_v as klein, mixed3
from hyperkit.univ import cofree, free, unitize
from hyperkit.zoo import FiniteGroup, FiniteRing, gf9_quotient, krasner, z2


def f_mosaic():
    return free(Tag.CMSC, ("1",))


def gf9_add():
    return gf9_quotient().additive


SMALL_BATTERY = None


def small_battery():
    global SMALL_BATTERY
    if SMALL_BATTERY is None:
        SMALL_BATTERY = [
            terminal(),
            z2(),
            krasner(),
            f_mosaic(),
            klein(),
            d_example(),
            mixed3(),
            cofree(("a", "b")),
            free(Tag.HMAG, ("a", "b")),
        ]
    return SMALL_BATTERY


def old_coequalizer(f: Morphism, g: Morphism, tag: Tag) -> Morphism:
    """The coequalizer oracle, written without `univ.identified`: the
    set-coequalizer quotient, and for the unital tags `unitize` at the unit
    class."""
    if tag in (Tag.HGRP, Tag.CAN):
        tag = Tag.UHMAG
    N = f.cod
    uf = UnionFind(N.n)
    for x in range(f.dom.n):
        uf.union(f.map[x], g.map[x])
    piL = quotient(N, uf.proj())
    if tag is Tag.HMAG:
        return piL
    inner = unitize(piL.cod, 1 << piL.map[N.identity])
    return compose(inner, piL)


def hypermagma_to_dict(M: Hypermagma) -> dict:
    """M's object file as a dict: the oracle for `formats.hypermagma_text`,
    and the way tests write hypermagma files."""
    d: dict[str, Any] = {"kind": "hypermagma", "carrier": list(M.labels)}
    if M.identity is not None:
        d["identity"] = M.labels[M.identity]
    # each distinct entry is spelled out once
    subsets = {m: M.label_set(m) for m in set().union(*M.table)}
    d["table"] = [[list(subsets[m]) for m in row] for row in M.table]
    return d


def morphism_to_dict(f: Morphism) -> dict:
    """f's object file as a dict: the oracle for `formats.morphism_text`."""
    return {
        "kind": "morphism",
        "dom": hypermagma_to_dict(f.dom),
        "cod": hypermagma_to_dict(f.cod),
        "map": {a: f.cod.labels[v] for a, v in zip(f.dom.labels, f.map)},
    }


def group_to_dict(G: FiniteGroup) -> dict:
    """G's object file as a dict; no command writes a group file."""
    return {
        "kind": "group",
        "carrier": list(G.labels),
        "table": [[G.labels[G.table[i][j]] for j in range(G.n)] for i in range(G.n)],
    }


def ring_to_dict(R: FiniteRing) -> dict:
    """R's object file as a dict; no command writes a ring file."""
    return {
        "kind": "ring",
        "carrier": list(R.labels),
        "add": [[R.labels[R.add[i][j]] for j in range(R.n)] for i in range(R.n)],
        "mul": [[R.labels[R.mul[i][j]] for j in range(R.n)] for i in range(R.n)],
    }


def matroid_to_dict(M: Matroid) -> dict:
    """M's object file as a dict; no command writes a matroid file."""
    d: dict[str, Any] = {
        "kind": "matroid",
        "ground": list(M.ground),
        "flats": [list(M.label_set(F)) for F in M.flats],
    }
    if M.pointed is not None:
        d["pointed"] = M.ground[M.pointed]
    return d


def set_search_cap(monkeypatch, nodes):
    """Cap every search at `nodes` nodes until the test ends."""
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", str(nodes))
