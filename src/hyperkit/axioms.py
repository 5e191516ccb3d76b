"""Axiom checking and classification of finite hyperstructures.

Every flag is decided by exhaustive loops over the table; each failed axiom
carries the lexicographically least witness tuple, so reports are stable
goldens independent of how the object was produced.  The associativity and
reversibility loops skip the triples whose answer is already fixed: those
holding the scalar identity and, in a commutative table, the mirror image of
a triple already tried (see `_associative_witness`, `_reversible_witness`).
`lane_failures` gives only the canonical-hypergroup verdict, for a given
identity and inverse map, on the same triples, for many tables at once,
packed by `core.pack_lanes` in byte lanes, one byte per table, n <= 8.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import Hypermagma, Lanes, bit_splitter, inverse_scan, product_of_subsets
from .errors import NotAMosaic, ensure
from .search import memo


class Tag(enum.Enum):
    """Category tags used by enumeration, (co)limits and tensors."""

    HMAG = "hmag"
    UHMAG = "uhmag"
    MSC = "msc"
    CMSC = "cmsc"
    HGRP = "hgrp"
    CAN = "can"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; it is a C slot, where Enum's hash(name) runs Python
    # code on every memo key that holds a tag.
    __hash__ = object.__hash__


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
    tbl = M.table
    out = 0
    for e, row in enumerate(tbl):
        for x, m in enumerate(row):
            if not (m >> x & 1 and tbl[x][e] >> x & 1):
                break
        else:
            out |= 1 << e
    return out


def _total_witness(M: Hypermagma) -> tuple[int, ...] | None:
    if M.n == 0:
        return ()
    for i, row in enumerate(M.table):
        if not all(row):
            return (i, row.index(0))
    return None


def _commutative_witness(M: Hypermagma) -> tuple[int, ...] | None:
    # rows before i equal their columns, so row i first differs past i
    for i, (row, col) in enumerate(zip(M.table, zip(*M.table))):
        if row != col:
            return (i, next(j for j, (a, b) in enumerate(zip(row, col)) if a != b))
    return None


def _associative_witness(M: Hypermagma, commutative: bool) -> tuple[int, ...] | None:
    """Least (i, j, k) with (ij)k != i(jk).

    Only triples that can fail are tried.  A triple holding the scalar
    identity e holds: (ej)k = jk = e(jk), and likewise in the other two
    places.  In a commutative table (ij)k = k(ji) and i(jk) = (kj)i, so
    (i, j, k) fails exactly when (k, j, i) does and (i, j, i) holds: the
    least witness has i < k.
    """
    tbl = M.table
    split = bit_splitter(M.n)
    bits = [[*map(split, row)] for row in tbl]
    others = [x for x in range(M.n) if x != M.identity]
    for a, i in enumerate(others):
        row_i = tbl[i]
        bits_i = bits[i]
        ks = others[a + 1 :] if commutative else others
        for j in others:
            ij = bits_i[j]
            bits_j = bits[j]
            for k in ks:
                left = 0
                for t in ij:
                    left |= tbl[t][k]
                right = 0
                for t in bits_j[k]:
                    right |= row_i[t]
                if left != right:
                    return (i, j, k)
    return None


def _reversible_witness(M: Hypermagma, commutative: bool) -> tuple[int, ...] | None:
    """Checks x in y*z => y in x*z^-1 and z in y^-1*x against the involution;
    the witness (x, y, z) is lexicographically least.

    The walk runs over (y, z) in order and over the set bits x of y*z, so the
    first failure seen for an x has the least (y, z), and a walk stops at
    the x of the best witness so far.  The law holds when y or z is the
    scalar identity e, whose inverses are two-sided.  In a commutative table
    the failure test is symmetric in y and z, and x = e holds, since e in
    y*z makes z the unique inverse of y: only y <= z and x != e are walked.
    """
    inv = M.inverse
    ensure(inv is not None, "_reversible_witness: the inverse map is not defined")
    tbl = M.table
    e = M.identity
    split = bit_splitter(M.n)
    keep = ~(1 << e) if commutative else -1
    others = [x for x in range(M.n) if x != e]
    best = None
    stop = M.n
    for a, y in enumerate(others):
        row_y = tbl[y]
        row_yinv = tbl[inv[y]]
        for z in others[a:] if commutative else others:
            zinv = inv[z]
            for x in split(row_y[z] & keep):
                if x >= stop:
                    break
                if not (tbl[x][zinv] >> y) & 1 or not (row_yinv[x] >> z) & 1:
                    best = (x, y, z)
                    stop = x
                    break
    return best


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
    """`axiom_report(M)`, memoised: for objects that are analyzed again."""
    return axiom_report(M)


def axiom_report(M: Hypermagma) -> AxiomReport:
    """Every axiom flag of M with its least witness, and M's classification,
    computed on each call and cached nowhere.

    The table is checked; the derived fields are taken as `from_masks`
    sets them.  The identity is M.identity, and the inverse map is
    M.inverse: only when it is None is `inverse_scan` run, for the witness,
    and a table with unique inverses then raises `InvariantViolated`.
    """
    witnesses: list[tuple[str, tuple[int, ...]]] = []

    w_total = _total_witness(M)
    if w_total is not None:
        witnesses.append(("total", w_total))
    w_comm = _commutative_witness(M)
    if w_comm is not None:
        witnesses.append(("commutative", w_comm))
    w_assoc = _associative_witness(M, w_comm is None)
    if w_assoc is not None:
        witnesses.append(("associative", w_assoc))

    single = all(m.bit_count() == 1 for row in M.table for m in row)

    unique_inverses = M.inverse is not None
    if unique_inverses:
        w_rev = _reversible_witness(M, w_comm is None)
    else:
        w_rev = inverse_scan(M.table, M.identity)[1]
        ensure(w_rev is not None, "analyze: unique inverses but no inverse map")
        witnesses.append(("unique_inverses", w_rev))
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


def lane_failures(lanes: Lanes, e: int, inv: tuple[int, ...]) -> bytes:
    """One byte per lane, 0 where the packed table is a commutative
    canonical hypergroup with scalar identity e and inverse map inv (what
    `from_masks` finds and `axiom_report` classifies as canonical), else 1.

    Every check is a few big-int operations for all lanes at once (see
    `Lanes`).  A lane that fails commutativity fails whatever its other
    checks read, so the rest read a commutative table: e is its identity
    when row e is the unit row, and inv its map of unique inverses when bit
    e of x*y is set exactly where y = inv[x], read for y >= x since inv is
    an involution.  The triples tried are those of `_associative_witness`
    and `_reversible_witness` for a commutative table with identity e:
    without e, i < k for associativity and y <= z, x != e for
    reversibility.  inv must be an involution fixing e, of length n.
    """
    n, E, ones, nonzero = lanes.n, lanes.entries, lanes.ones, lanes.nonzero
    ensure(
        len(inv) == n
        and e in range(n)
        and inv[e] == e
        and all(y in range(n) and inv[y] == x for x, y in enumerate(inv)),
        f"lane_failures: {inv} is not an involution fixing {e} on {n} elements",
    )

    nonempty = ones
    off_unit = 0
    failed = 0
    for x, row in enumerate(E):
        off_unit |= E[e][x] ^ ones << x
        for y, m in enumerate(row):
            nonempty &= nonzero(m)
            if x < y:
                failed |= nonzero(m ^ E[y][x])
            if x <= y:
                held = m >> e & ones
                failed |= held ^ ones if y == inv[x] else held
    failed |= ones ^ nonempty | nonzero(off_unit)

    others = [x for x in range(n) if x != e]
    # spreads[x, y][t]: all ones in the lanes where t is in x*y
    spreads = {
        (x, y): [(E[x][y] >> t & ones) * 255 for t in range(n)] for x in others for y in others
    }
    for a, i in enumerate(others):
        row_i = E[i]
        for j in others:
            ij = spreads[i, j]
            for k in others[a + 1 :]:
                jk = spreads[j, k]
                left = right = 0
                for t in range(n):
                    left |= ij[t] & E[t][k]
                    right |= jk[t] & row_i[t]
                failed |= nonzero(left ^ right)

    for a, y in enumerate(others):
        row_yinv = E[inv[y]]
        for z in others[a:]:
            yz = E[y][z]
            zinv = inv[z]
            for x in others:
                held = E[x][zinv] >> y & row_yinv[x] >> z
                failed |= yz >> x & ones & ~held
    return lanes.flags(failed)


def is_commutative_mosaic(M: Hypermagma) -> bool:
    """`analyze(M).is_mosaic and .commutative`, decided without the
    associativity and totality loops: an identity, unique inverses, a
    commutative table and the reversibility law."""
    return (
        M.identity is not None
        and M.inverse is not None
        and _commutative_witness(M) is None
        and _reversible_witness(M, True) is None
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
        ensure(e is not None, "recheck_witness: a non-empty witness needs an identity")
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
