"""The `desk` workload: a seeded stream of single library and CLI calls,
each on a fresh input.

Every input is a randomly permuted copy of a fixture (the identity stays in
place) whose labels carry a suffix unique to the call, so no two calls share
an input and every memo in hyperkit misses.  Each call's result is reduced
to an isomorphism-invariant summary (see `summarize`) and compared with the
summary recorded for the unpermuted fixture in reference/desk.json.
"""
from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import canon

# Canonical hypergroups of order 4 (four of the 97 classes), as mask tables
# with the identity at index 0.
ORDER4 = {
    "C4a": ((1, 2, 4, 8), (2, 15, 14, 14), (4, 14, 15, 14), (8, 14, 14, 15)),
    "C4b": ((1, 2, 4, 8), (2, 15, 14, 6), (4, 14, 15, 6), (8, 6, 6, 9)),
    "C4c": ((1, 2, 4, 8), (2, 7, 14, 12), (4, 14, 11, 6), (8, 12, 6, 3)),
    "C4d": ((1, 2, 4, 8), (2, 8, 1, 4), (4, 1, 8, 2), (8, 4, 2, 1)),
}

# Call kind -> its entries (fixture names[, tag or element index]).  Entries
# are kept to calls of at most a few tens of milliseconds: interactive use.
MENU = {
    "analyze": [(f,) for f in ("Z2", "K", "V", "H", "Fano", "S3c", "C4a", "C4b", "C4c", "C4d")],
    "enumerate_morphisms": [
        ("V", "H", "cmsc"), ("H", "H", "cmsc"), ("Fano", "K", "cmsc"), ("Fano", "S3c", "cmsc"),
        ("V", "Fano", "cmsc"), ("H", "Fano", "cmsc"), ("C4a", "C4a", "cmsc"), ("H", "C4a", "cmsc"),
        ("H", "H", "hmag"), ("V", "C4a", "hmag"), ("H", "C4b", "hmag"), ("C4a", "C4b", "hmag"),
    ],
    "hom_object": [
        ("V", "H"), ("H", "H"), ("V", "C4a"), ("C4a", "C4a"), ("Fano", "K"), ("V", "V"), ("H", "C4c"),
    ],
    "boxtimes": [
        ("V", "V"), ("V", "H"), ("H", "H"), ("H", "Fano"), ("C4a", "C4b"), ("K", "Fano"), ("S3c", "V"),
    ],
    "wedge_smash": [("V", "H"), ("H", "H"), ("Fano", "V"), ("C4a", "C4b"), ("S3c", "C4c")],
    "boxdot": [("H", "H"), ("V", "Fano"), ("C4a", "C4b"), ("K", "S3c")],
    "find_isomorphism": [(f,) for f in ("V", "H", "Fano", "S3c", "C4a", "C4b", "C4c", "C4d")],
    "enumerate_bimorphisms": [
        ("V", "V", "V"), ("K", "K", "K"), ("S3c", "S3c", "S3c"), ("K", "V", "H"), ("Z2", "H", "H"),
    ],
    "matroid_to_mosaic": [("FanoM",), ("U24",), ("U25",), ("K4",)],
    "unitize": [("V", 1), ("H", 2), ("Fano", 3), ("C4b", 1), ("S3c", 1)],
    "coequalizer": [("H",), ("C4b",), ("C4c",), ("S3c",)],
    "cli_check": [(f,) for f in ("V", "H", "Fano", "S3c", "C4a")],
    "cli_tensor": [("V", "H"), ("K", "C4a"), ("S3c", "S3c")],
}

KINDS = tuple(MENU)


def entry_key(kind: str, args) -> str:
    return kind + ":" + ",".join(str(a) for a in args)


def build_fixtures():
    """The unpermuted fixtures, built with hyperkit's own constructors."""
    from hyperkit import core, matroid, zoo

    fx = {
        "Z2": zoo.group_to_hypermagma(zoo.cyclic_group(2)),
        "K": zoo.krasner(),
        "V": zoo.group_to_hypermagma(zoo.klein_four_group()),
        "H": zoo.gf9_quotient().additive,
        "Fano": matroid.matroid_to_mosaic(matroid.adjoin_point(matroid.fano_matroid())),
        "S3c": zoo.conjugacy_hypergroup(zoo.symmetric_group(3)),
    }
    for name, table in ORDER4.items():
        fx[name] = core.from_masks(("0", "1", "2", "3"), table)
    k4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    fx["FanoM"] = matroid.adjoin_point(matroid.fano_matroid())
    fx["U24"] = matroid.adjoin_point(matroid.uniform_matroid(2, 4))
    fx["U25"] = matroid.adjoin_point(matroid.uniform_matroid(2, 5))
    fx["K4"] = matroid.adjoin_point(matroid.graphic_matroid(k4))
    return fx


def _perm(rng: random.Random | None, n: int, fixed: int | None) -> list[int]:
    """new_of[old] for a random permutation that keeps `fixed` in place
    (the identity permutation when rng is None, for the reference)."""
    rest = [x for x in range(n) if x != fixed]
    shuffled = rest[:]
    if rng is not None:
        rng.shuffle(shuffled)
    new_of = list(range(n))
    for old, new in zip(rest, shuffled):
        new_of[old] = new
    return new_of


def fresh_hypermagma(M, rng: random.Random, suffix: str):
    """A permuted, relabelled copy of M and the permutation used."""
    from hyperkit import core

    n = M.n
    new_of = _perm(rng, n, canon.find_identity(M.table))
    labels = [""] * n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        labels[new_of[i]] = f"{M.labels[i]}~{suffix}"
        for j in range(n):
            rows[new_of[i]][new_of[j]] = canon.image_mask(M.table[i][j], new_of)
    return core.from_masks(labels, rows), new_of


def fresh_matroid(M, rng: random.Random, suffix: str):
    from hyperkit import matroid

    new_of = _perm(rng, M.n, M.pointed)
    ground = [""] * M.n
    for i, g in enumerate(M.ground):
        ground[new_of[i]] = f"{g}~{suffix}"
    flats = tuple(sorted(canon.image_mask(F, new_of) for F in M.flats))
    return matroid.Matroid(tuple(ground), flats, new_of[M.pointed])


def hypermagma_file(M) -> dict:
    """The object-file form of M, written without hyperkit.formats."""
    d = {"kind": "hypermagma", "carrier": list(M.labels)}
    e = canon.find_identity(M.table)
    if e is not None:
        d["identity"] = M.labels[e]
    d["table"] = [
        [[M.labels[z] for z in range(M.n) if (m >> z) & 1] for m in row] for row in M.table
    ]
    return d


def parse_file_table(d: dict) -> list[list[int]]:
    pos = {l: i for i, l in enumerate(d["carrier"])}
    return [[sum(1 << pos[l] for l in entry) for entry in row] for row in d["table"]]


def _cli(argv):
    from hyperkit import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def make_call(kind: str, args, fx, rng: random.Random, suffix: str, workdir: str):
    """Build the inputs of one call.  Returns (thunk, summarize, inputs): thunk
    makes the timed call, summarize(result) gives its invariant summary, and
    inputs is a hashable value equal for two calls only if they share an
    input."""
    from hyperkit import axioms, core, hom, matroid, monoidal, univ

    Tag = axioms.Tag
    if kind == "matroid_to_mosaic":
        Mt = fresh_matroid(fx[args[0]], rng, suffix)
        return (lambda: matroid.matroid_to_mosaic(Mt)), lambda r: canon.invariant(r.table), Mt
    if kind == "find_isomorphism":
        A, _ = fresh_hypermagma(fx[args[0]], rng, suffix + "a")
        B, _ = fresh_hypermagma(fx[args[0]], rng, suffix + "b")
        return (
            lambda: core.find_isomorphism(A, B),
            lambda r: r is not None and canon.is_isomorphism(A.table, B.table, list(r.map)),
            (A, B),
        )
    if kind == "unitize":
        X, new_of = fresh_hypermagma(fx[args[0]], rng, suffix)
        E = (1 << X.identity) | (1 << new_of[args[1]])
        return (lambda: univ.unitize(X, E)), lambda r: canon.invariant(r.cod.table), (X, E)
    if kind == "coequalizer":
        X, _ = fresh_hypermagma(fx[args[0]], rng, suffix)
        e = canon.find_identity(X.table)
        neg = tuple(next(y for y in range(X.n) if (X.table[x][y] >> e) & 1) for x in range(X.n))
        f = core.Morphism(X, X, tuple(range(X.n)))
        g = core.Morphism(X, X, neg)
        return (
            lambda: univ.coequalizer(f, g, Tag.UHMAG),
            lambda r: canon.invariant(r.cod.table),
            (f, g),
        )
    if kind in ("cli_check", "cli_tensor"):
        paths, texts = [], []
        for i, name in enumerate(args):
            X, _ = fresh_hypermagma(fx[name], rng, f"{suffix}{i}")
            paths.append(os.path.join(workdir, f"in-{suffix}-{i}.json"))
            texts.append(json.dumps(hypermagma_file(X)))
            with open(paths[-1], "w") as fh:
                fh.write(texts[-1])
        if kind == "cli_check":
            def summarize_check(r):
                code, out = r
                rep = json.loads(out) if code == 0 else {}
                return [code, rep.get("classification"), rep.get("elements")]

            return (lambda: _cli(["check", paths[0], "--json"])), summarize_check, tuple(texts)
        out_path = os.path.join(workdir, f"out-{suffix}.json")

        def summarize_tensor(r):
            if r[0] != 0:
                return [r[0]]
            with open(out_path) as fh:
                return [r[0], canon.invariant(parse_file_table(json.load(fh)))]

        argv = ["construct", "tensor", *paths, "--op", "boxtimes", "-o", out_path]
        return (lambda: _cli(argv)), summarize_tensor, tuple(texts)

    names = [a for a in args if a not in ("cmsc", "hmag")]
    xs = [fresh_hypermagma(fx[name], rng, f"{suffix}{i}")[0] for i, name in enumerate(names)]
    tag = Tag.HMAG if "hmag" in args else Tag.CMSC
    inputs = tuple(xs)
    if kind == "analyze":
        return (lambda: axioms.analyze(xs[0])), lambda r: r.classification, inputs
    if kind == "enumerate_morphisms":
        return (lambda: hom.enumerate_morphisms(xs[0], xs[1], tag)), len, inputs
    if kind == "enumerate_bimorphisms":
        return (lambda: monoidal.enumerate_bimorphisms(xs[0], xs[1], xs[2], tag)), len, inputs
    if kind == "hom_object":
        return (
            lambda: monoidal.hom_object(xs[0], xs[1], tag),
            lambda r: canon.invariant(r.table),
            inputs,
        )
    if kind == "boxdot":
        return (lambda: monoidal.boxdot(xs[0], xs[1])), lambda r: canon.invariant(r.table), inputs
    if kind in ("boxtimes", "wedge_smash"):
        return (
            lambda: getattr(monoidal, kind)(xs[0], xs[1]),
            lambda r: canon.invariant(r.cod.table),
            inputs,
        )
    raise ValueError(f"unknown desk call kind {kind!r}")


def plan(rng: random.Random, blocks: int):
    """The seeded call stream, as (kind, args) menu entries.  Each block of
    len(KINDS) calls makes every kind of call once, in shuffled order, and
    each kind walks through its entries in reshuffled rounds, so every pass
    makes the same mix of calls and only the order and inputs vary."""
    rounds = {kind: [] for kind in KINDS}
    out = []
    for _ in range(blocks):
        order = list(KINDS)
        rng.shuffle(order)
        for kind in order:
            if not rounds[kind]:
                rounds[kind] = list(MENU[kind])
                rng.shuffle(rounds[kind])
            out.append((kind, rounds[kind].pop()))
    return out
