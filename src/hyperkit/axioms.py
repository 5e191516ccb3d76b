"""Axiom checking and classification of finite hyperstructures.

Every flag is decided by exhaustive loops over the table; each failed axiom
carries the lexicographically least witness tuple, so reports are stable
goldens independent of how the object was produced.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import Hypermagma, iter_bits, product_of_subsets
from .errors import NotAMosaic, ensure
from .search import memo

CLASSIFICATIONS = (
    "Hypermagma",
    "UnitalHypermagma",
    "Hypermonoid",
    "Mosaic",
    "CommutativeMosaic",
    "Hypergroup",
    "CanonicalHypergroup",
    "Monoid",
    "Group",
    "AbelianGroup",
)


class Tag(enum.Enum):
    """Category tags used by enumeration, (co)limits and tensors."""

    HMAG = "hmag"
    UHMAG = "uhmag"
    MSC = "msc"
    CMSC = "cmsc"
    HGRP = "hgrp"
    CAN = "can"


UNITAL_TAGS = (Tag.UHMAG, Tag.MSC, Tag.CMSC, Tag.HGRP, Tag.CAN)


@dataclass(frozen=True)
class AxiomReport:
    identity: int | None
    weak_identities: int
    total: bool
    commutative: bool
    associative: bool
    single_valued: bool
    unique_inverses: bool
    reversible: bool
    classification: str
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    def witness(self, axiom: str) -> tuple[int, ...] | None:
        for name, tup in self.witnesses:
            if name == axiom:
                return tup
        return None

    @property
    def is_mosaic(self) -> bool:
        return self.identity is not None and self.reversible

    @property
    def is_hypergroup(self) -> bool:
        return self.is_mosaic and self.total and self.associative


def weak_identity_set(M: Hypermagma) -> int:
    out = 0
    for e in range(M.n):
        if all((M.table[e][x] >> x) & 1 and (M.table[x][e] >> x) & 1 for x in range(M.n)):
            out |= 1 << e
    return out


def _total_witness(M: Hypermagma) -> tuple[int, ...] | None:
    if M.n == 0:
        return ()
    for i in range(M.n):
        for j in range(M.n):
            if not M.table[i][j]:
                return (i, j)
    return None


def _commutative_witness(M: Hypermagma) -> tuple[int, ...] | None:
    for i in range(M.n):
        for j in range(i + 1, M.n):
            if M.table[i][j] != M.table[j][i]:
                return (i, j)
    return None


def _associative_witness(M: Hypermagma) -> tuple[int, ...] | None:
    n = M.n
    tbl = M.table
    bits = [[tuple(iter_bits(m)) for m in row] for row in tbl]
    for i in range(n):
        row_i = tbl[i]
        for j in range(n):
            ij = bits[i][j]
            row_j = bits[j]
            for k in range(n):
                left = 0
                for t in ij:
                    left |= tbl[t][k]
                right = 0
                for t in row_j[k]:
                    right |= row_i[t]
                if left != right:
                    return (i, j, k)
    return None


def _inverse_witness(M: Hypermagma) -> tuple[int, ...] | None:
    """None when every element has exactly one inverse; else least witness."""
    e = M.identity
    if e is None:
        return ()
    ebit = 1 << e
    for x in range(M.n):
        cands = [
            y
            for y in range(M.n)
            if M.table[x][y] & ebit and M.table[y][x] & ebit
        ]
        if len(cands) == 0:
            return (x,)
        if len(cands) > 1:
            return (x, cands[0], cands[1])
    return None


def _reversible_witness(M: Hypermagma) -> tuple[int, ...] | None:
    """Checks x in y*z => y in x*z^-1 and z in y^-1*x against the involution;
    the witness (x, y, z) is lexicographically least."""
    inv = M.inverse
    ensure(inv is not None, "_reversible_witness: the inverse map is not defined")
    n = M.n
    tbl = M.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not (tbl[y][z] >> x) & 1:
                    continue
                if not (tbl[x][inv[z]] >> y) & 1 or not (tbl[inv[y]][x] >> z) & 1:
                    return (x, y, z)
    return None


def _classify(
    unital: bool,
    total: bool,
    commutative: bool,
    associative: bool,
    single_valued: bool,
    reversible: bool,
) -> str:
    mosaic = unital and reversible
    hypergroup = mosaic and total and associative
    group = hypergroup and single_valued
    if group and commutative:
        return "AbelianGroup"
    if group:
        return "Group"
    if hypergroup and commutative:
        return "CanonicalHypergroup"
    if hypergroup:
        return "Hypergroup"
    if unital and associative and single_valued:
        return "Monoid"
    if mosaic and commutative:
        return "CommutativeMosaic"
    if mosaic:
        return "Mosaic"
    if unital and associative:
        return "Hypermonoid"
    if unital:
        return "UnitalHypermagma"
    return "Hypermagma"


@memo
def analyze(M: Hypermagma) -> AxiomReport:
    witnesses: list[tuple[str, tuple[int, ...]]] = []

    w_total = _total_witness(M)
    if w_total is not None:
        witnesses.append(("total", w_total))
    w_comm = _commutative_witness(M)
    if w_comm is not None:
        witnesses.append(("commutative", w_comm))
    w_assoc = _associative_witness(M)
    if w_assoc is not None:
        witnesses.append(("associative", w_assoc))

    single = all(M.table[i][j].bit_count() == 1 for i in range(M.n) for j in range(M.n))

    w_inv = _inverse_witness(M)
    unique_inverses = w_inv is None
    if not unique_inverses:
        witnesses.append(("unique_inverses", w_inv))

    if unique_inverses:
        ensure(M.inverse is not None, "analyze: unique inverses but no inverse map")
        w_rev = _reversible_witness(M)
    else:
        w_rev = w_inv
    reversible = w_rev is None
    if not reversible:
        witnesses.append(("reversible", w_rev))

    cls = _classify(
        M.identity is not None,
        w_total is None,
        w_comm is None,
        w_assoc is None,
        single,
        reversible,
    )
    return AxiomReport(
        identity=M.identity,
        weak_identities=weak_identity_set(M),
        total=w_total is None,
        commutative=w_comm is None,
        associative=w_assoc is None,
        single_valued=single,
        unique_inverses=unique_inverses,
        reversible=reversible,
        classification=cls,
        witnesses=tuple(witnesses),
    )


def check_total_iff_associative_for_mosaics(M: Hypermagma) -> bool:
    """True when the mosaic is a hypergroup exactly if it is associative.

    For mosaics associativity forces totality, so this amounts to checking
    that an associative mosaic never has an empty product.
    """
    rep = analyze(M)
    if not rep.is_mosaic:
        raise NotAMosaic(f"{M!r} is not a mosaic")
    return (rep.total and rep.associative) == rep.associative


def object_in_tag(M: Hypermagma, tag: Tag) -> bool:
    rep = analyze(M)
    if tag is Tag.HMAG:
        return True
    if tag is Tag.UHMAG:
        return M.identity is not None
    if tag is Tag.MSC:
        return rep.is_mosaic
    if tag is Tag.CMSC:
        return rep.is_mosaic and rep.commutative
    if tag is Tag.HGRP:
        return rep.is_hypergroup
    if tag is Tag.CAN:
        return rep.is_hypergroup and rep.commutative
    raise ValueError(tag)


def recheck_witness(M: Hypermagma, axiom: str, tup: tuple[int, ...]) -> bool:
    """Re-verify that a reported witness really violates the axiom."""
    if axiom == "total":
        if M.n == 0:
            return tup == ()
        x, y = tup
        return M.table[x][y] == 0
    if axiom == "commutative":
        x, y = tup
        return M.table[x][y] != M.table[y][x]
    if axiom == "associative":
        x, y, z = tup
        xb, yb, zb = 1 << x, 1 << y, 1 << z
        left = product_of_subsets(M, product_of_subsets(M, xb, yb), zb)
        right = product_of_subsets(M, xb, product_of_subsets(M, yb, zb))
        return left != right
    if axiom == "unique_inverses":
        if tup == ():
            return M.identity is None
        e = M.identity
        assert e is not None
        ebit = 1 << e
        if len(tup) == 1:
            (x,) = tup
            return not any(
                M.table[x][y] & ebit and M.table[y][x] & ebit for y in range(M.n)
            )
        x, a, b = tup
        return (
            a != b
            and bool(M.table[x][a] & ebit and M.table[a][x] & ebit)
            and bool(M.table[x][b] & ebit and M.table[b][x] & ebit)
        )
    if axiom == "reversible":
        if M.inverse is None:
            return recheck_witness(M, "unique_inverses", tup)
        x, y, z = tup
        inv = M.inverse
        return bool((M.table[y][z] >> x) & 1) and (
            not (M.table[x][inv[z]] >> y) & 1 or not (M.table[inv[y]][x] >> z) & 1
        )
    raise ValueError(axiom)
