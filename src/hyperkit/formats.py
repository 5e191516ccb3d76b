"""Object files: a structured JSON notation for hypermagmas, groups, rings,
matroids, lattices and morphisms.

Serialization is canonical: constructing the same object twice yields
byte-identical files.  Missing table entries are illegal; empty products are
explicit empty arrays.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .core import Hypermagma, Morphism, from_masks, iter_bits, mask_of
from .errors import FormatError, HyperkitError
from .matroid import Matroid, make_matroid
from .zoo import (
    FiniteGroup,
    FiniteRing,
    lattice_mosaic,
    make_finite_group,
    make_finite_ring,
)


def hypermagma_text(M: Hypermagma) -> str:
    """M's object file as json.dumps(..., indent=2) writes it: each label
    is encoded once, and each distinct entry rendered once."""
    labels = list(map(encode_basestring_ascii, M.labels))
    entries = {
        m: _joined([labels[i] for i in iter_bits(m)], "      ") for m in set().union(*M.table)
    }
    fields = ['"kind": "hypermagma"', '"carrier": ' + _joined(labels, "  ")]
    if M.identity is not None:
        fields.append('"identity": ' + labels[M.identity])
    rows = [_joined([*map(entries.__getitem__, row)], "    ") for row in M.table]
    fields.append('"table": ' + _joined(rows, "  "))
    return _joined(fields, "", "{}")


def morphism_text(f: Morphism, dom: str, cod: str) -> str:
    """f's object file as json.dumps(..., indent=2) writes it, from the
    texts `hypermagma_text` gave its domain and codomain.  One replace
    indents them a level: json escapes a newline inside a label, so every
    newline in them is a line break."""
    images = list(map(encode_basestring_ascii, f.cod.labels))
    pairs = [encode_basestring_ascii(a) + ": " + images[v] for a, v in zip(f.dom.labels, f.map)]
    fields = [
        '"kind": "morphism"',
        '"dom": ' + dom.replace("\n", "\n  "),
        '"cod": ' + cod.replace("\n", "\n  "),
        '"map": ' + _joined(pairs, "  ", "{}"),
    ]
    return _joined(fields, "", "{}")


def _joined(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Encoded items in an array (or, with brackets "{}", encoded members in
    an object) as json.dumps(..., indent=2) writes it at indentation pad."""
    if not items:
        return brackets
    sep = ",\n" + pad + "  "
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + pad + brackets[1]


def _need(d: dict, key: str):
    if key not in d:
        raise FormatError(f"missing field {key!r}")
    return d[key]


def _carrier(d: dict, key: str = "carrier") -> list[str]:
    labels = _need(d, key)
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise FormatError(f"{key} must be an array of string labels")
    return labels


def _index(pos: dict[str, int], label, what: str) -> int:
    """Position of a label; anything but a carrier label (a list, a number,
    an unknown string) is a format error."""
    if not isinstance(label, str) or label not in pos:
        raise FormatError(f"{what} {label!r} is not a carrier label")
    return pos[label]


def _parse_square(d: dict, key: str, carrier: list[str]):
    table = _need(d, key)
    n = len(carrier)
    if not isinstance(table, list) or len(table) != n:
        raise FormatError(f"{key} must be a {n}x{n} array")
    for row in table:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"{key} must be a {n}x{n} array")
    return table


def _label_table(d: dict, key: str, carrier: list[str]) -> list[list[int]]:
    """The square `key` of carrier labels, as carrier indices."""
    table = _parse_square(d, key, carrier)
    pos = {l: i for i, l in enumerate(carrier)}
    return [[_index(pos, v, f"{key} element") for v in row] for row in table]


def parse_hypermagma(d: dict) -> Hypermagma:
    carrier = _carrier(d)
    table = _parse_square(d, "table", carrier)
    pos = {l: i for i, l in enumerate(carrier)}
    masks: dict[tuple, int] = {}

    def mask(entry) -> int:
        """The entry's mask, converted once per distinct entry."""
        if not isinstance(entry, list):
            raise FormatError("table entries must be arrays of labels")
        key = tuple(entry)
        try:
            return masks[key]
        except (KeyError, TypeError):  # TypeError: an unhashable element, no label
            m = masks[key] = mask_of(_index(pos, l, "table element") for l in entry)
            return m

    rows = [[*map(mask, row)] for row in table]
    identity = d.get("identity")
    if identity is not None:
        identity = _index(pos, identity, "identity")
    return from_masks(carrier, rows, identity)


def parse_group(d: dict) -> FiniteGroup:
    carrier = _carrier(d)
    return make_finite_group(carrier, _label_table(d, "table", carrier))


def parse_ring(d: dict) -> FiniteRing:
    carrier = _carrier(d)
    return make_finite_ring(carrier, _label_table(d, "add", carrier), _label_table(d, "mul", carrier))


def parse_matroid(d: dict) -> Matroid:
    ground = _carrier(d, "ground")
    pos = {l: i for i, l in enumerate(ground)}

    def subset(labels, key: str) -> int:
        if not isinstance(labels, list):
            raise FormatError(f"{key} entries must be arrays of labels")
        return mask_of(_index(pos, x, f"{key} element") for x in labels)

    def entries(key: str) -> list:
        if not isinstance(d[key], list):
            raise FormatError(f"{key} must be an array")
        return d[key]

    pointed = d.get("pointed")
    if pointed is not None:
        _index(pos, pointed, "pointed")
    for key in ("flats", "independent"):
        if key in d:
            sets = [subset(S, key) for S in entries(key)]
            return make_matroid(ground, pointed=pointed, **{key: sets})
    if "rank" in d:
        pairs = {}
        for entry in entries("rank"):
            # type() and not isinstance(): JSON true and false are bools, and bool is an int
            if not (isinstance(entry, list) and len(entry) == 2 and type(entry[1]) is int):
                raise FormatError("rank entries must be [subset, rank] pairs")
            pairs[subset(entry[0], "rank")] = entry[1]
        if len(pairs) != 1 << len(ground):
            raise FormatError("rank oracle must list every subset")
        return make_matroid(ground, rank=lambda S: pairs[S], pointed=pointed)
    raise FormatError("matroid needs flats, independent, or rank")


def parse_lattice(d: dict) -> Hypermagma:
    """The lattice's Nakano mosaic, so that a meet table that is not a
    semilattice with top fails here, as invalid file content."""
    carrier = _carrier(d)
    M = lattice_mosaic(carrier, _label_table(d, "meet", carrier))
    top = d.get("top")
    pos = {l: i for i, l in enumerate(carrier)}
    if top is not None and _index(pos, top, "top") != M.identity:
        raise FormatError(f"top {top!r} is not the top of the meet table")
    return M


def _part(d: dict, key: str) -> Hypermagma:
    part = _need(d, key)
    if not isinstance(part, dict):
        raise FormatError(f"{key} must be a hypermagma object")
    return parse_hypermagma(part)


def parse_morphism(d: dict) -> Morphism:
    dom, cod = _part(d, "dom"), _part(d, "cod")
    mp = _need(d, "map")
    if not isinstance(mp, dict):
        raise FormatError("map must be an object from domain to codomain labels")
    if set(mp.keys()) != set(dom.labels):
        raise FormatError("map must cover the whole domain carrier")
    try:
        return Morphism(dom, cod, tuple(cod.index(mp[l]) for l in dom.labels))
    except ValueError:
        raise FormatError("map image not in the codomain carrier") from None


PARSERS = {
    "hypermagma": parse_hypermagma,
    "group": parse_group,
    "ring": parse_ring,
    "matroid": parse_matroid,
    "lattice": parse_lattice,
    "morphism": parse_morphism,
}


def load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's recursion limit
        raise FormatError(f"cannot read {path}: {exc}") from None
    if not isinstance(d, dict):
        raise FormatError("object file must be a JSON object")
    kind = _need(d, "kind")
    if not isinstance(kind, str) or kind not in PARSERS:
        raise FormatError(f"unknown kind {kind!r}")
    try:
        return kind, PARSERS[kind](d)
    except FormatError:
        raise
    except HyperkitError as exc:
        # invalid file content is a parse failure, not a module error
        raise FormatError(f"{path}: {exc}") from None


def save(path: str, text: str) -> None:
    """Write one object file: a writer's text and a final newline."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None
