"""Command-line surface: check an object file, construct new objects, and
run the paper-fact suite.

Exit codes: 0 success, 1 verified failure or refutation, 2 usage or parse
errors.  A standard output closed by its reader (`hyperkit check f | head`)
ends the command with exit 1 and no message.  Every path is a thin wrapper
over the library.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import formats
from .axioms import Tag, analyze
from .core import Hypermagma, from_masks, mask_of
from .errors import FormatError, HyperkitError
from .matroid import adjoin_point, is_simple, matroid_to_mosaic, simplify
from .monoidal import boxdot, boxtimes, hom_object, wedge_smash
from .suite import CHECKS, run_suite
from .univ import coequalizer, cofree, coproduct, equalizer, free, product, unitize
from .zoo import (
    FiniteRing,
    conjugacy_hypergroup,
    double_coset_hypergroup,
    group_to_hypermagma,
    krasner_quotient,
    orbit_hypergroup,
)

TAGS = {t.value: t for t in Tag}

_CLASS_WORDS = {
    "Hypermagma": "hypermagma",
    "UnitalHypermagma": "unital hypermagma",
    "Hypermonoid": "hypermonoid",
    "Mosaic": "mosaic",
    "CommutativeMosaic": "commutative mosaic",
    "Hypergroup": "hypergroup",
    "CanonicalHypergroup": "canonical hypergroup",
    "Monoid": "monoid",
    "Group": "group",
    "AbelianGroup": "abelian group",
}


def _to_hypermagma(kind: str, obj) -> Hypermagma:
    if kind in ("hypermagma", "lattice"):
        return obj
    if kind == "group":
        return group_to_hypermagma(obj)
    if kind == "matroid":
        M = obj
        if M.pointed is None:
            M = adjoin_point(M)
        if not is_simple(M):
            M, _ = simplify(M, pointed=True)
        return matroid_to_mosaic(M)
    if kind == "ring":
        # formats.load validated the ring: its addition is an abelian group
        R: FiniteRing = obj
        return from_masks(R.labels, [[1 << s for s in row] for row in R.add])
    raise FormatError(f"cannot analyze kind {kind!r}")


def cmd_check(args) -> int:
    kind, obj = formats.load(args.path)
    M = _to_hypermagma(kind, obj)
    rep = analyze(M)
    if args.json:
        payload = {
            "classification": rep.classification,
            "elements": M.n,
            "identity": None if rep.identity is None else M.labels[rep.identity],
            "weak_identities": list(M.label_set(rep.weak_identities)),
            "flags": {
                "total": rep.total,
                "commutative": rep.commutative,
                "associative": rep.associative,
                "single_valued": rep.single_valued,
                "unique_inverses": rep.unique_inverses,
                "reversible": rep.reversible,
            },
            "witnesses": {
                name: list(M.labels[i] for i in tup)
                for name, tup in rep.witnesses
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    if M.n == 0:
        print("initial (empty) hypermagma")
        return 0
    print(f"classification: {_CLASS_WORDS[rep.classification]}")
    print(f"elements: {M.n}")
    if rep.identity is not None:
        print(f"identity: {M.labels[rep.identity]}")
    print(
        "flags: "
        + " ".join(
            f"{k}={'yes' if v else 'no'}"
            for k, v in (
                ("total", rep.total),
                ("commutative", rep.commutative),
                ("associative", rep.associative),
                ("unique-inverses", rep.unique_inverses),
                ("reversible", rep.reversible),
            )
        )
    )
    print("weak identities: {" + ", ".join(M.label_set(rep.weak_identities)) + "}")
    for name, tup in rep.witnesses:
        print(f"witness {name}: (" + ", ".join(M.labels[i] for i in tup) + ")")
    return 0


def _load_hm(path: str) -> Hypermagma:
    kind, obj = formats.load(path)
    return _to_hypermagma(kind, obj)


def _write_outputs(args, M: Hypermagma, morphisms: dict) -> None:
    formats.save(args.output, formats.hypermagma_to_dict(M))
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    for role, f in morphisms.items():
        formats.save(f"{base}.{role}.morphism.json", formats.morphism_to_dict(f))


def _label_indices(option: str, value: str, labels: tuple[str, ...]) -> list[int]:
    """Indices of the comma-separated labels of an option's value."""
    out = []
    for label in value.split(","):
        if label not in labels:
            raise FormatError(f"{option}: {label!r} is not a carrier label")
        out.append(labels.index(label))
    return out


def cmd_construct(args) -> int:
    verb = args.verb
    tag = TAGS[args.tag] if args.tag else Tag.HMAG
    morphisms: dict = {}
    if verb == "product":
        cone = product([_load_hm(p) for p in args.inputs])
        out = cone.apex
        morphisms = {f"proj{i}": leg for i, leg in enumerate(cone.legs)}
    elif verb == "coproduct":
        coc = coproduct([_load_hm(p) for p in args.inputs], tag)
        out = coc.apex
        morphisms = {f"inj{i}": leg for i, leg in enumerate(coc.legs)}
    elif verb == "equalizer":
        f = _load_morphism(args.inputs[0])
        g = _load_morphism(args.inputs[1])
        out, inc = equalizer(f, g, TAGS[args.tag] if args.tag else None)
        morphisms = {"include": inc}
    elif verb == "coequalizer":
        f = _load_morphism(args.inputs[0])
        g = _load_morphism(args.inputs[1])
        q = coequalizer(f, g, tag)
        out = q.cod
        morphisms = {"quotient": q}
    elif verb == "unitize":
        M = _load_hm(args.inputs[0])
        E = mask_of(_label_indices("--at", args.at, M.labels)) if args.at else 0
        q = unitize(M, E)
        out = q.cod
        morphisms = {"quotient": q}
    elif verb == "tensor":
        M, N = _load_hm(args.inputs[0]), _load_hm(args.inputs[1])
        if args.op == "boxdot":
            out = boxdot(M, N)
        elif args.op == "wedge":
            q = wedge_smash(M, N)
            out = q.cod
            morphisms = {"quotient": q}
        else:
            q = boxtimes(M, N)
            out = q.cod
            morphisms = {"quotient": q}
    elif verb == "hom":
        M, N = _load_hm(args.inputs[0]), _load_hm(args.inputs[1])
        out = hom_object(M, N, tag)
    elif verb in ("free", "cofree"):
        if args.gens < 0:
            raise FormatError(f"--gens: {args.gens} is negative")
        gens = args.labels.split(",") if args.labels else [str(i + 1) for i in range(args.gens)]
        out = free(tag, gens) if verb == "free" else cofree(gens)
    elif verb == "from-group":
        kind, G = formats.load(args.inputs[0])
        if kind != "group":
            raise FormatError("from-group needs a group file")
        if args.construction == "dcoset":
            out = double_coset_hypergroup(
                G, mask_of(_label_indices("--subgroup", args.subgroup, G.labels))
            )
        elif args.construction == "conj":
            out = conjugacy_hypergroup(G)
        else:
            perms = [
                tuple(_label_indices("--action", images, G.labels))
                for images in args.action.split(";")
            ]
            out = orbit_hypergroup(G, perms)
    elif verb == "from-ring":
        kind, R = formats.load(args.quotient_units)
        if kind != "ring":
            raise FormatError("from-ring needs a ring file")
        if args.subgroup == "units":
            sub = R.units()
        else:
            sub = mask_of(_label_indices("--subgroup", args.subgroup, R.labels))
        Q = krasner_quotient(R, sub)
        out = Q.additive
    elif verb == "from-matroid":
        kind, M = formats.load(args.inputs[0])
        if kind != "matroid":
            raise FormatError("from-matroid needs a matroid file")
        if M.pointed is None:
            M = adjoin_point(M)
        if args.simplify or not is_simple(M):
            M, _ = simplify(M, pointed=True)
        out = matroid_to_mosaic(M)
    elif verb == "from-lattice":
        kind, out = formats.load(args.inputs[0])
        if kind != "lattice":
            raise FormatError("from-lattice needs a lattice file")
    elif verb == "builtin":
        out = _builtin(args.name)
    else:
        raise FormatError(f"unknown construct verb {verb!r}")
    _write_outputs(args, out, morphisms)
    print(f"wrote {args.output} ({out.n} elements)")
    return 0


def _builtin(name: str) -> Hypermagma:
    from . import zoo
    from .matroid import fano_matroid, uniform_matroid
    from .univ import terminal

    table = {
        "krasner": zoo.krasner,
        "z2": zoo.z2,
        "z3": lambda: group_to_hypermagma(zoo.cyclic_group(3)),
        "klein": lambda: group_to_hypermagma(zoo.klein_four_group()),
        "s3": lambda: group_to_hypermagma(zoo.symmetric_group(3)),
        "f": lambda: free(Tag.CMSC, ("1",)),
        "gf9-quotient": lambda: zoo.gf9_quotient().additive,
        "terminal": terminal,
        "fano-mosaic": lambda: matroid_to_mosaic(adjoin_point(fano_matroid())),
        "u24-mosaic": lambda: matroid_to_mosaic(adjoin_point(uniform_matroid(2, 4))),
    }
    if name not in table:
        raise FormatError(
            f"unknown builtin {name!r}; choose from {sorted(table)}"
        )
    return table[name]()


def _load_morphism(path: str):
    kind, obj = formats.load(path)
    if kind != "morphism":
        raise FormatError(f"{path} is not a morphism file")
    return obj


def cmd_paper_suite(args) -> int:
    # a run that selects no check, or no size to search, verifies nothing
    if args.max_size is not None and args.max_size < 1:
        raise FormatError(f"--max-size: {args.max_size} is not positive")
    if args.only is not None and not any(args.only in name for name in CHECKS):
        raise FormatError(f"--only: {args.only!r} names no check")
    results = run_suite(only=args.only, max_size=args.max_size)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hyperkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify an object file")
    p_check.add_argument("path")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_con = sub.add_parser("construct", help="build a new object")
    p_con.add_argument(
        "verb",
        choices=[
            "product",
            "coproduct",
            "equalizer",
            "coequalizer",
            "unitize",
            "tensor",
            "hom",
            "free",
            "cofree",
            "from-group",
            "from-ring",
            "from-matroid",
            "from-lattice",
            "builtin",
        ],
    )
    p_con.add_argument("inputs", nargs="*")
    p_con.add_argument("-o", "--output", required=True)
    p_con.add_argument("--tag", choices=sorted(TAGS), default=None)
    p_con.add_argument("--op", choices=["boxdot", "wedge", "boxtimes"], default="boxdot")
    p_con.add_argument("--construction", choices=["dcoset", "conj", "orbit"], default="conj")
    p_con.add_argument("--subgroup", default="units")
    p_con.add_argument("--action", default="")
    p_con.add_argument("--at", default="")
    p_con.add_argument("--gens", type=int, default=1)
    p_con.add_argument("--labels", default="")
    p_con.add_argument("--name", default="")
    p_con.add_argument("--simplify", action="store_true")
    p_con.add_argument("--quotient-units", dest="quotient_units", default="")
    p_con.set_defaults(fn=cmd_construct)

    p_suite = sub.add_parser("paper-suite", help="verify the recorded finite facts")
    p_suite.add_argument("--max-size", type=int, default=None)
    p_suite.add_argument("--only", default=None)
    p_suite.set_defaults(fn=cmd_paper_suite)
    return ap


# Built once: argparse keeps no state between parses, and building the
# parser costs ten times a parse.
PARSER = build_parser()


def _run(argv) -> int:
    ap = PARSER
    try:
        # flags may precede the input files; argparse then leaves the files
        # unconsumed, so fold them back into the positional list
        args, extra = ap.parse_known_args(argv)
        if extra:
            if any(e.startswith("-") for e in extra) or not hasattr(args, "inputs"):
                ap.error(f"unrecognized arguments: {' '.join(extra)}")
            args.inputs = list(args.inputs) + extra
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyperkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # a closed pipe fails this flush, not the interpreter's last one
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is left in the buffer goes to /dev/null when Python exits
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
