"""Finite closure spaces and matroids via intersection-closed flat families,
simplification, the matroid-to-mosaic functor, and projective-law checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .axioms import Tag, is_commutative_mosaic
from .core import (
    Hypermagma,
    UnionFind,
    bit_splitter,
    distinct_labels,
    fresh_label,
    from_masks,
    iter_bits,
    mask_of,
    strict_sub_closure,
)
from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    ExchangeFails,
    FlatsNotIntersectionClosed,
    NoMatroidData,
    NotSimplePointed,
    SearchCapExceeded,
    ensure,
)
from .hom import enumerate_morphisms

FLATS_CAP = 14
CONVERT_CAP = 10
# The most generators `hyperkit construct free|cofree` takes: the cofree
# object's file grows as the cube of its carrier.
GENERATORS_CAP = 64


@dataclass(frozen=True)
class Matroid:
    """Ground labels plus the intersection-closed family of flats (masks).

    Ground sets are finite, so the finitary condition holds vacuously.
    """

    ground: tuple[str, ...]
    flats: tuple[int, ...]
    pointed: int | None = None
    # the flats by size, then the ground set, and per point the mask over
    # those indices of the flats that hold it; the ground set last makes a
    # set that no flat holds close to the ground set, as a scan would
    _closure_index: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    # the flats as a set, for membership tests
    _flat_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_size = sorted(self.flats, key=int.bit_count) + [(1 << self.n) - 1]
        holding = [0] * self.n
        for i, F in enumerate(by_size):
            for x in iter_bits(F):
                holding[x] |= 1 << i
        object.__setattr__(self, "_closure_index", (tuple(by_size), tuple(holding)))
        object.__setattr__(self, "_flat_set", frozenset(self.flats))

    @property
    def n(self) -> int:
        return len(self.ground)

    def index(self, label: str) -> int:
        return self.ground.index(label)

    def subset(self, labels: Iterable[str]) -> int:
        return mask_of(self.index(l) for l in labels)

    def closure(self, S: int) -> int:
        """cl(S), the least flat holding the mask S: the flats are closed
        under intersection, so it is the first flat by size that holds S."""
        by_size, holding = self._closure_index
        live = -1
        for x in iter_bits(S):
            live &= holding[x]
        return by_size[(live & -live).bit_length() - 1]

    def loops(self) -> int:
        return self.closure(0)

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self.ground[i] for i in iter_bits(mask))


def _check_exchange(M: Matroid) -> None:
    """Exchange over every flat S.  The flats are intersection-closed, so
    cl(S + y) = cl(cl(S) + y) and that covers every subset S.  cl(S + z)
    is computed once per flat and point outside it."""
    n = M.n
    for S in M.flats:
        cl = [S if (S >> z) & 1 else M.closure(S | (1 << z)) for z in range(n)]
        for x in range(n):
            if (S >> x) & 1:
                continue
            for y in range(n):
                if (S >> y) & 1 or y == x:
                    continue
                if (cl[y] >> x) & 1:
                    if not (cl[x] >> y) & 1:
                        raise ExchangeFails(
                            f"exchange fails at S={M.label_set(S)}, "
                            f"x={M.ground[x]}, y={M.ground[y]}"
                        )


def make_matroid(
    ground: Sequence[str],
    flats: Sequence[int] | None = None,
    rank=None,
    independent: Sequence[int] | None = None,
    pointed: str | None = None,
) -> Matroid:
    """Validated matroid from flats (primary), a rank oracle, or the list of
    independent sets (the latter two converted by exhaustive closure); every
    subset, given or passed to the oracle, is a mask over the ground."""
    ground = tuple(str(g) for g in ground)
    n = len(ground)
    if len(set(ground)) != n:
        raise DuplicateLabel(f"ground labels not distinct: {ground}")
    if flats is not None:
        if n > FLATS_CAP:
            raise SearchCapExceeded(f"flats input capped at {FLATS_CAP} elements")
        fl = set(flats)
    else:
        if n > CONVERT_CAP:
            raise SearchCapExceeded(f"conversion input capped at {CONVERT_CAP} elements")
        if rank is None:
            if independent is None:
                raise NoMatroidData("give flats, a rank function or the independent sets")
            indep = set(independent)

            def rank_fn(S: int) -> int:
                return max(
                    (I.bit_count() for I in indep if I & ~S == 0), default=0
                )

        else:
            def rank_fn(S: int) -> int:
                return rank(S)

        fl = set()
        for S in range(1 << n):
            r = rank_fn(S)
            C = mask_of(
                x for x in range(n) if rank_fn(S | (1 << x)) == r
            )
            fl.add(C)
    # checked on every input path: a rank oracle or a list of independent
    # sets that is no matroid can give a family that is not a closure system
    if (1 << n) - 1 not in fl:
        raise FlatsNotIntersectionClosed("the ground set must be a flat")
    listed = list(fl)
    for i, A in enumerate(listed):
        for B in listed[i:]:
            if A & B not in fl:
                raise FlatsNotIntersectionClosed(f"intersection of flats {A:b} and {B:b} missing")
    M = Matroid(ground, tuple(sorted(fl)), ground.index(pointed) if pointed is not None else None)
    if M.pointed is not None and not (M.loops() >> M.pointed) & 1:
        raise NotSimplePointed("the distinguished point must be a loop")
    _check_exchange(M)
    return M


def is_simple(M: Matroid) -> bool:
    if M.pointed is None:
        if M.loops():
            return False
        return all(M.closure(1 << x) == 1 << x for x in range(M.n))
    zero = 1 << M.pointed
    if M.loops() != zero:
        return False
    return all(
        M.closure(1 << x) == (1 << x) | zero
        for x in range(M.n)
        if x != M.pointed
    )


def adjoin_point(M: Matroid, label: str = "0") -> Matroid:
    """Freely adjoin a distinguished loop."""
    if label in M.ground:
        raise DuplicateLabel(f"label {label!r} is already in the ground set")
    ground = (label,) + M.ground
    flats = tuple(sorted(1 | (F << 1) for F in M.flats))
    return Matroid(ground, flats, 0)


def simplify(M: Matroid, pointed: bool = False) -> tuple[Matroid, tuple[int, ...] | None]:
    """Simple (pointed) matroid on the atoms of the flat lattice.

    The second component is the unit map on ground indices (non-loops to
    their atom, loops to the new point), or None for the unpointed
    simplification of a loopy matroid, where no strong unit map exists.
    """
    loops = M.loops()
    atoms = sorted({M.closure(1 << x) for x in range(M.n) if not (loops >> x) & 1})
    labels = [M.ground[next(iter_bits(F & ~loops))] for F in atoms]
    if pointed:
        zl = M.ground[M.pointed] if M.pointed is not None else "0"
        labels = [fresh_label(zl, labels)] + labels
        offset = 1
    else:
        offset = 0

    def project(F: int) -> int:
        m = mask_of(offset + i for i, A in enumerate(atoms) if not (A & ~loops & ~F))
        if pointed:
            m |= 1
        return m

    new_flats = sorted({project(F) for F in M.flats})
    out = Matroid(tuple(labels), tuple(new_flats), 0 if pointed else None)
    ensure(is_simple(out), "simplify: the matroid on the atoms is simple")
    atom_of = {}
    for i, A in enumerate(atoms):
        for x in iter_bits(A & ~loops):
            atom_of[x] = offset + i
    if pointed:
        unit = tuple(atom_of.get(x, 0) for x in range(M.n))
    elif not loops:
        unit = tuple(atom_of[x] for x in range(M.n))
    else:
        unit = None
    return out, unit


def is_strong_map(M: Matroid, N: Matroid, f: Sequence[int]) -> bool:
    """Preimage of every flat is a flat; pointed maps must preserve the loop.

    f maps the ground set of M into that of N; a map of another length or
    with an image outside N raises `DimensionMismatch`.  The preimage of a
    flat is the union of the fibres of f over its points."""
    if len(f) != M.n:
        raise DimensionMismatch("map length does not match the ground set of M")
    if f and (min(f) < 0 or max(f) >= N.n):
        raise DimensionMismatch("map image index out of range")
    if M.pointed is not None and N.pointed is not None:
        if f[M.pointed] != N.pointed:
            return False
    fibres = [0] * N.n
    for x, y in enumerate(f):
        fibres[y] |= 1 << x
    split, flats = bit_splitter(N.n), M._flat_set
    for F in N.flats:
        pre = 0
        for y in split(F):
            pre |= fibres[y]
        if pre not in flats:
            return False
    return True


def matroid_to_mosaic(M: Matroid) -> Hypermagma:
    """x + y = C(x,y) minus {x, y, 0} for distinct nonzero points, x + x =
    {x, 0}; a commutative mosaic with every element self-inverse."""
    if M.pointed is None or not is_simple(M):
        raise NotSimplePointed("the functor needs a pointed simple matroid")
    n = M.n
    zero = M.pointed
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        rows[zero][x] = 1 << x
        rows[x][zero] = 1 << x
    for x in range(n):
        if x == zero:
            continue
        rows[x][x] = (1 << x) | (1 << zero)
        for y in range(n):
            if y in (x, zero):
                continue
            C = M.closure((1 << x) | (1 << y))
            rows[x][y] = C & ~((1 << x) | (1 << y) | (1 << zero))
    H = from_masks(M.ground, rows)
    ensure(is_commutative_mosaic(H), "matroid_to_mosaic: a commutative mosaic")
    ensure(
        all(H.inverse[x] == x for x in range(n)),
        "matroid_to_mosaic: every element is its own inverse",
    )
    return H


def uniform_matroid(r: int, n: int) -> Matroid:
    """U_{r,n}: every set of fewer than r elements is closed."""
    ground = [chr(ord("a") + i) for i in range(n)]
    flats = [S for S in range(1 << n) if S.bit_count() < r]
    flats.append((1 << n) - 1)
    return make_matroid(ground, flats=sorted(set(flats)))


FANO_LINES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def fano_matroid() -> Matroid:
    ground = [str(i) for i in range(1, 8)]
    flats = {0, (1 << 7) - 1}
    for i in range(7):
        flats.add(1 << i)
    for line in FANO_LINES:
        flats.add(mask_of(p - 1 for p in line))
    return make_matroid(ground, flats=sorted(flats))


def graphic_matroid(edges: Sequence[tuple[str, str]]) -> Matroid:
    """Cycle matroid of a multigraph, built through its rank oracle: the
    rank of an edge set is the number of vertices less its components.
    Edge uv is labelled "uv", primed by `distinct_labels` when repeated."""
    verts = sorted({v for e in edges for v in e})
    vidx = {v: i for i, v in enumerate(verts)}

    def rank(S: int) -> int:
        uf = UnionFind(len(verts))
        for i in iter_bits(S):
            u, v = edges[i]
            uf.union(vidx[u], vidx[v])
        return len(verts) - len(set(uf.proj()))

    return make_matroid(distinct_labels(f"{u}{v}" for u, v in edges), rank=rank)


def projective_law_holds(M: Matroid) -> tuple[bool, tuple | None]:
    """C(S u T) = union of C(x,y) over x in C(S), y in C(T).

    Quantified over flat pairs only: C(S u T) = C(C(S) u C(T)) reduces the
    general case.  All flats of a pointed matroid are nonempty.
    """
    for S in M.flats:
        for T in M.flats:
            target = M.closure(S | T)
            union = 0
            for x in iter_bits(S):
                for y in iter_bits(T):
                    union |= M.closure((1 << x) | (1 << y))
            if union != target:
                return False, (S, T)
    return True, None


def projective_checks(M: Matroid, others: Sequence[Matroid] = ()) -> dict:
    """Projective law, closure = generated strict submosaic on every subset,
    and fullness of the mosaic functor against each supplied projective
    matroid."""
    if M.pointed is None or not is_simple(M):
        raise NotSimplePointed("projective checks need a pointed simple matroid")
    law, _ = projective_law_holds(M)
    H = matroid_to_mosaic(M)
    closure_eq = all(M.closure(S) == strict_sub_closure(H, S) for S in range(1 << M.n))
    fullness = True
    for N in others:
        HN = matroid_to_mosaic(N)
        for f in enumerate_morphisms(H, HN, Tag.CMSC):
            if not is_strong_map(M, N, f):
                fullness = False
                break
    return {
        "projective_law": law,
        "closure_eq_generated": closure_eq,
        "fullness": fullness,
    }
