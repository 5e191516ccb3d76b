"""Command-line surface: check an object file, construct new objects, and
run the paper-fact suite.

Exit codes: 0 success, 1 verified failure or refutation, 2 usage or parse
errors, reported on one line: a `construct` verb takes only the files and
options VERBS lists for it, a `from-group` construction only the option
CONSTRUCTIONS names for it, and a malformed HYPERKIT_SEARCH_CAP fails every
command.  A standard output closed by its reader (`hyperkit check f | head`)
ends the command with exit 1 and no message.  Every path is a thin wrapper
over the library.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import formats, search
from .axioms import Tag, analyze
from .core import Hypermagma, fresh_label, from_masks, mask_of, terminal
from .errors import FormatError, HyperkitError
from .matroid import (
    GENERATORS_CAP,
    adjoin_point,
    fano_matroid,
    is_simple,
    matroid_to_mosaic,
    simplify,
    uniform_matroid,
)
from .monoidal import boxdot, boxtimes, hom_object, wedge_smash
from .univ import coequalizer, cofree, coproduct, equalizer, free, product, unitize
from .zoo import (
    FiniteRing,
    conjugacy_hypergroup,
    cyclic_group,
    double_coset_hypergroup,
    gf9_quotient,
    group_to_hypermagma,
    klein_four_group,
    krasner,
    krasner_quotient,
    orbit_hypergroup,
    symmetric_group,
    z2,
)

TAGS = {t.value: t for t in Tag}

BUILTINS = {
    "krasner": krasner,
    "z2": z2,
    "z3": lambda: group_to_hypermagma(cyclic_group(3)),
    "klein": lambda: group_to_hypermagma(klein_four_group()),
    "s3": lambda: group_to_hypermagma(symmetric_group(3)),
    "f": lambda: free(Tag.CMSC, ("1",)),
    "gf9-quotient": lambda: gf9_quotient().additive,
    "terminal": terminal,
    "fano-mosaic": lambda: matroid_to_mosaic(adjoin_point(fano_matroid())),
    "u24-mosaic": lambda: matroid_to_mosaic(adjoin_point(uniform_matroid(2, 4))),
}

# The option each `from-group` construction requires; it takes no other.
CONSTRUCTIONS = {"dcoset": "--subgroup", "conj": None, "orbit": "--action"}

OPTIONS = {
    "--tag": dict(choices=sorted(TAGS)),
    "--op": dict(choices=["boxdot", "wedge", "boxtimes"], default="boxdot"),
    "--construction": dict(choices=sorted(CONSTRUCTIONS), default="conj"),
    "--subgroup": dict(),
    "--action": dict(),
    "--at": dict(default=""),
    "--gens": dict(type=int),
    "--labels": dict(),
    "--name": dict(choices=sorted(BUILTINS), required=True),
    "--simplify": dict(action="store_true"),
    "--quotient-units": dict(metavar="FILE", required=True),
}

# What each construct verb reads: its input files (as an argparse nargs) and OPTIONS.
VERBS = {
    "product": ("+", ()),
    "coproduct": ("+", ("--tag",)),
    "equalizer": (2, ("--tag",)),
    "coequalizer": (2, ("--tag",)),
    "unitize": (1, ("--at",)),
    "tensor": (2, ("--op",)),
    "hom": (2, ("--tag",)),
    "free": (0, ("--tag", "--gens", "--labels")),
    "cofree": (0, ("--gens", "--labels")),
    "from-group": (1, ("--construction", "--subgroup", "--action")),
    "from-ring": (0, ("--quotient-units", "--subgroup")),
    "from-matroid": (1, ("--simplify",)),
    "from-lattice": (1, ()),
    "builtin": (0, ("--name",)),
}

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
        return _matroid_mosaic(obj)
    if kind == "ring":
        # formats.load validated the ring: its addition is an abelian group
        R: FiniteRing = obj
        return from_masks(R.labels, [[1 << s for s in row] for row in R.add])
    raise FormatError(f"cannot analyze kind {kind!r}")


def _matroid_mosaic(M, force_simplify: bool = False) -> Hypermagma:
    """The mosaic of M, pointed and simplified first where needed or asked;
    an adjoined point is labelled "0", primed past the ground labels."""
    if M.pointed is None:
        M = adjoin_point(M, fresh_label("0", M.ground))
    if force_simplify or not is_simple(M):
        M, _ = simplify(M, pointed=True)
    return matroid_to_mosaic(M)


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
    """M to -o and each morphism beside it; each object is rendered once."""
    texts = {M: formats.hypermagma_text(M)}

    def text(X: Hypermagma) -> str:
        if X not in texts:
            texts[X] = formats.hypermagma_text(X)
        return texts[X]

    formats.save(args.output, texts[M])
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    for role, f in morphisms.items():
        formats.save(
            f"{base}.{role}.morphism.json", formats.morphism_text(f, text(f.dom), text(f.cod))
        )


def _label_indices(option: str, value: str, labels: tuple[str, ...]) -> list[int]:
    """Indices of the comma-separated labels of an option's value."""
    out = []
    for label in value.split(","):
        if label not in labels:
            raise FormatError(f"{option}: {label!r} is not a carrier label")
        out.append(labels.index(label))
    return out


def _tag(args, default=Tag.HMAG) -> Tag | None:
    return TAGS[args.tag] if args.tag else default


def cmd_construct(args) -> int:
    verb = args.verb
    morphisms: dict = {}
    if verb == "product":
        cone = product([_load_hm(p) for p in args.inputs])
        out = cone.apex
        morphisms = {f"proj{i}": leg for i, leg in enumerate(cone.legs)}
    elif verb == "coproduct":
        coc = coproduct([_load_hm(p) for p in args.inputs], _tag(args))
        out = coc.apex
        morphisms = {f"inj{i}": leg for i, leg in enumerate(coc.legs)}
    elif verb == "equalizer":
        f, g = (_load_kind(p, "morphism") for p in args.inputs)
        out, inc = equalizer(f, g, _tag(args, None))
        morphisms = {"include": inc}
    elif verb == "coequalizer":
        f, g = (_load_kind(p, "morphism") for p in args.inputs)
        q = coequalizer(f, g, _tag(args))
        out = q.cod
        morphisms = {"quotient": q}
    elif verb == "unitize":
        M = _load_hm(args.inputs[0])
        E = mask_of(_label_indices("--at", args.at, M.labels)) if args.at else 0
        q = unitize(M, E)
        out = q.cod
        morphisms = {"quotient": q}
    elif verb == "tensor":
        M, N = map(_load_hm, args.inputs)
        if args.op == "boxdot":
            out = boxdot(M, N)
        else:
            q = (wedge_smash if args.op == "wedge" else boxtimes)(M, N)
            out = q.cod
            morphisms = {"quotient": q}
    elif verb == "hom":
        M, N = map(_load_hm, args.inputs)
        out = hom_object(M, N, _tag(args))
    elif verb in ("free", "cofree"):
        gens = _generators(verb, args.gens, args.labels)
        out = free(_tag(args), gens) if verb == "free" else cofree(gens)
    elif verb == "from-group":
        construction = args.construction
        for option, value in (("--subgroup", args.subgroup), ("--action", args.action)):
            given = value is not None
            if given != (option == CONSTRUCTIONS[construction]):
                problem = "does not take" if given else "requires"
                raise FormatError(
                    f"hyperkit construct {verb}: --construction {construction} {problem} {option}"
                )
        G = _load_kind(args.inputs[0], "group")
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
        R = _load_kind(args.quotient_units, "ring")
        if args.subgroup in (None, "units"):
            sub = R.units()
        else:
            sub = mask_of(_label_indices("--subgroup", args.subgroup, R.labels))
        out = krasner_quotient(R, sub).additive
    elif verb == "from-matroid":
        out = _matroid_mosaic(_load_kind(args.inputs[0], "matroid"), args.simplify)
    elif verb == "from-lattice":
        out = _load_kind(args.inputs[0], "lattice")
    else:  # builtin
        out = BUILTINS[args.name]()
    _write_outputs(args, out, morphisms)
    print(f"wrote {args.output} ({out.n} elements)")
    return 0


def _generators(verb: str, count: int | None, labels: str | None) -> list[str]:
    """The generators of `free` or `cofree`: the given labels, or 1..count
    (one generator when neither option is given); at most GENERATORS_CAP,
    checked before any table is built."""
    if labels is None:
        count = 1 if count is None else count
        if count < 0:
            raise FormatError(f"--gens: {count} is negative")
        if count > GENERATORS_CAP:
            raise FormatError(f"--gens: {count} is above the limit of {GENERATORS_CAP}")
        return [str(i + 1) for i in range(count)]
    if count is not None:
        raise FormatError(f"hyperkit construct {verb}: --gens and --labels exclude each other")
    gens = labels.split(",")
    if len(gens) > GENERATORS_CAP:
        raise FormatError(f"--labels: {len(gens)} labels, above the limit of {GENERATORS_CAP}")
    for i, label in enumerate(gens):
        if label in gens[:i]:
            raise FormatError(f"--labels: {label!r} is repeated")
    return gens


def _load_kind(path: str, want: str):
    kind, obj = formats.load(path)
    if kind != want:
        raise FormatError(f"{path} is not a {want} file")
    return obj


def cmd_paper_suite(args) -> int:
    from .suite import CHECKS, run_suite  # deferred: no other command runs the suite

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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a FormatError: one line, exit 2.  Each parser
    rejects the arguments it leaves over itself, so the error names the
    command they follow; argparse would pass a sub-parser's leftovers up to
    the top-level parser."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hyperkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify an object file")
    p_check.add_argument("path")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_con = sub.add_parser("construct", help="build a new object")
    verbs = p_con.add_subparsers(dest="verb", required=True)
    for verb, (files, options) in VERBS.items():
        p_verb = verbs.add_parser(verb)
        if files:
            p_verb.add_argument("inputs", nargs=files, metavar="FILE")
        p_verb.add_argument("-o", "--output", required=True)
        for option in options:
            p_verb.add_argument(option, **OPTIONS[option])
        p_verb.set_defaults(fn=cmd_construct)

    p_suite = sub.add_parser("paper-suite", help="verify the recorded finite facts")
    p_suite.add_argument("--max-size", type=int, default=None)
    p_suite.add_argument("--only", default=None)
    p_suite.set_defaults(fn=cmd_paper_suite)
    return ap


# Built once: argparse keeps no state between parses, and building the
# parser costs ten times a parse.
PARSER = build_parser()


def _run(argv) -> int:
    try:
        args = PARSER.parse_args(argv)
        # a malformed cap is an error for every command, searching or not;
        # a valid one is read this once and held while the command runs
        with search.held_cap():
            return args.fn(args)
    except SystemExit as exc:
        # only --help exits the parser; usage errors raise FormatError
        return 2 if exc.code else 0
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
