"""The three closed monoidal products (boxdot, wedge-smash, boxtimes), the
internal homs, the empty-sum search whose witness is checked in one,
bimorphism machinery, the Krasner strict-sub classifier, and the
monoid-object packaging of multirings.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .axioms import Tag, UNITAL_TAGS, analyze, is_commutative_mosaic
from .core import (
    Hypermagma,
    Morphism,
    compose,
    distinct_labels,
    from_masks,
    image_function,
    iter_bits,
    mask_of,
    product_of_subsets,
)
from .errors import (
    NotAMosaic,
    NotCommutativeMosaic,
    NotMultiring,
    NotUnital,
    ensure,
)
from .hom import (
    bijection_failure,
    colax_maps,
    colax_schedule,
    enumerate_morphisms,
    is_colax,
    is_strict,
    is_unital,
    morphism_in_tag,
)
from .search import Budget, memo
from .univ import coequalizer, free, unitize
from .zoo import (
    Multiring,
    check_multiring,
    enumerate_reversible_tables,
    involutions,
    krasner,
    z2,
)


def boxdot(M: Hypermagma, N: Hypermagma) -> Hypermagma:
    """Product carrier with the minimal slicewise-distributive hyperoperation.

    Pair (x, y) is index x*|N| + y.  (x, y)*(x, y2) holds N's y*y2 in slice x,
    (x, y)*(x2, y) holds M's x*x2 in slice y, (x, y)*(x, y) holds both, and
    the other products are empty.  A mask of N shifted left by x*|N| lands in
    slice x; a mask of M, spread so that bit t goes to bit t*|N| and shifted
    left by y, lands in slice y."""
    nm, nn = M.n, N.n
    labels = distinct_labels(f"{a}|{b}" for a in M.labels for b in N.labels)
    spread = image_function([1 << (t * nn) for t in range(nm)])
    spread_rows = [[spread(m) for m in row] for row in M.table]
    rows = []
    for x, srow in enumerate(spread_rows):
        at = x * nn
        for y, nrow in enumerate(N.table):
            row = [0] * (nm * nn)
            row[y::nn] = [m << y for m in srow]
            row[at : at + nn] = [m << at for m in nrow]
            row[at + y] |= srow[x] << y
            rows.append(row)
    return from_masks(labels, rows)


def wedge_smash(M: Hypermagma, N: Hypermagma) -> Morphism:
    """Unitization of boxdot at E = M x e  union  e x N (smash carrier)."""
    if M.identity is None or N.identity is None:
        raise NotUnital("wedge-smash needs unital factors")
    B = boxdot(M, N)
    E = mask_of(x * N.n + N.identity for x in range(M.n))
    E |= mask_of(M.identity * N.n + y for y in range(N.n))
    q = unitize(B, E)
    ensure(q.cod.n == (M.n - 1) * (N.n - 1) + 1, "wedge_smash: wrong smash size")
    return q


def wedge_unit() -> Hypermagma:
    """The monoidal unit of the wedge-smash product: the free unital
    hypermagma on one generator (the terminal object is not a unit)."""
    return free(Tag.UHMAG, ("g",))


def _require_cmsc(M: Hypermagma) -> None:
    if not is_commutative_mosaic(M):
        raise NotCommutativeMosaic(f"{M!r} is not a commutative mosaic")


def boxtimes(M: Hypermagma, N: Hypermagma) -> Morphism:
    """Coequalizer in uHMag of the identity and (-1) wedge (-1) on the smash;
    the returned quotient map goes all the way from boxdot(M, N)."""
    _require_cmsc(M)
    _require_cmsc(N)
    q1 = wedge_smash(M, N)
    W = q1.cod
    pair_to_w = q1.map
    neg = [0] * W.n
    for x in range(M.n):
        for y in range(N.n):
            src = pair_to_w[x * N.n + y]
            tgt = pair_to_w[M.inverse[x] * N.n + N.inverse[y]]
            neg[src] = tgt
    i_minus = Morphism(W, W, tuple(neg))
    ensure(is_colax(i_minus) and is_unital(i_minus), "boxtimes: (-1) smash (-1) is not a morphism")
    q2 = coequalizer(Morphism(W, W, tuple(range(W.n))), i_minus, Tag.UHMAG)
    pi = compose(q2, q1)
    ensure(is_commutative_mosaic(pi.cod), "boxtimes: the quotient is not a commutative mosaic")
    return pi


@dataclass(frozen=True)
class Bimorphism:
    """A two-variable map whose row and column slices are tag-morphisms."""

    dom1: Hypermagma
    dom2: Hypermagma
    cod: Hypermagma
    table: tuple[tuple[int, ...], ...]

    def __call__(self, x: int, y: int) -> int:
        return self.table[x][y]


def _slices(b: Bimorphism):
    """The row slices b(x, -) and the column slices b(-, y), as morphisms."""
    for row in b.table:
        yield Morphism(b.dom2, b.cod, row)
    for y in range(b.dom2.n):
        yield Morphism(b.dom1, b.cod, tuple(row[y] for row in b.table))


def is_bimorphism(b: Bimorphism, tag: Tag) -> bool:
    return all(morphism_in_tag(f, tag) for f in _slices(b))


def is_strict_bimorphism(b: Bimorphism) -> bool:
    """Strict in each variable: every row and column slice is strict."""
    return all(is_strict(f) for f in _slices(b))


def _coordinate_masks(
    maps: Sequence[tuple[int, ...]], n: int, L: Hypermagma
) -> list[list[list[int]]]:
    """at[x][u][w], for x in range(n): the mask of the i with maps[i][x] in
    u*w of L.

    The pointwise product of maps f and g, the mask of the h with h(x) in
    f(x)*g(x) for all x, is then the AND over x of at[x][f(x)][g(x)]."""
    at = []
    for x in range(n):
        by_value = [0] * L.n
        for i, h in enumerate(maps):
            by_value[h[x]] |= 1 << i
        maps_in = image_function(by_value)
        at.append([list(map(maps_in, row)) for row in L.table])
    return at


class _ProductRow(dict):
    """Row f of the pointwise products of `maps` over the masks `at` of
    `_coordinate_masks`: entry g is computed on first use and kept."""

    __slots__ = ("f", "at", "maps")

    def __init__(
        self, f: tuple[int, ...], at: list[list[list[int]]], maps: Sequence[tuple[int, ...]]
    ):
        self.f, self.at, self.maps = f, at, maps

    def __missing__(self, g: int) -> int:
        m = -1  # every bit set: the AND over no coordinates is every map
        for at_x, u, w in zip(self.at, self.f, self.maps[g]):
            m &= at_x[u][w]
        self[g] = m
        return m


def enumerate_bimorphisms(
    M: Hypermagma, N: Hypermagma, L: Hypermagma, tag: Tag
) -> list[tuple[tuple[int, ...], ...]]:
    """All bimorphisms M x N -> L as their tables (row x is the map
    y -> B(x, y)), ordered by the flattened table.

    Rows are drawn from Hom(N, L), as indices into its enumeration, and the
    unit's row is the constant map to L's unit in the unital tags.  The
    column maps x -> B(x, y) must be colax: for each z in x1*x2 of M, row z
    lies in the pointwise product of rows x1 and x2.  So the rows form a
    colax map from M into the pointwise products of Hom(N, L), searched by
    `hom.colax_maps`; each product is computed on first use.  The constant
    row is an identity of those products: its product with row g is {g}.
    """
    maps = enumerate_morphisms(N, L, tag)
    budget = Budget(f"enumerate_bimorphisms(|M|={M.n}, |N|={N.n}, |L|={L.n}, {tag.value})")
    unit = None
    if tag in UNITAL_TAGS and M.identity is not None:
        unit = (M.identity, maps.index((L.identity,) * N.n))
    at = _coordinate_masks(maps, N.n, L)
    products = [_ProductRow(f, at, maps) for f in maps]
    schedule = colax_schedule(M, None if unit is None else unit[0])
    rows = colax_maps(schedule, len(maps), products, budget, unit)
    return [tuple(map(maps.__getitem__, r)) for r in rows]


@memo
def tensor(M: Hypermagma, N: Hypermagma, tag: Tag) -> tuple[Hypermagma, Bimorphism]:
    """The tag's monoidal product with its canonical bimorphism."""
    if tag is Tag.HMAG:
        T = boxdot(M, N)
        pair = range(T.n)
    elif tag in (Tag.UHMAG, Tag.CMSC):
        q = wedge_smash(M, N) if tag is Tag.UHMAG else boxtimes(M, N)
        T, pair = q.cod, q.map
    else:
        raise NotCommutativeMosaic(f"no tensor product for tag {tag.value}")
    table = tuple(tuple(pair[x * N.n + y] for y in range(N.n)) for x in range(M.n))
    u = Bimorphism(M, N, T, table)
    ensure(is_bimorphism(u, tag), "tensor: the canonical map is not a bimorphism")
    return T, u


@memo
def hom_object(M: Hypermagma, N: Hypermagma, tag: Tag) -> Hypermagma:
    """The hom-set under f*g = {h | h(x) in f(x)*g(x) for all x}.

    f*g is the AND over x of `_coordinate_masks`.  Consecutive homs agree on
    a prefix of their maps, so the ANDs over that prefix are kept from one
    g to the next.  When N is commutative, f*g = g*f and only g >= f is
    computed."""
    maps = enumerate_morphisms(M, N, tag)
    H, n = len(maps), M.n
    labels = distinct_labels("(" + ",".join(N.labels[v] for v in f) + ")" for f in maps)
    at = _coordinate_masks(maps, n, N)
    # agree[j]: the length of the prefix maps[j] shares with maps[j - 1]
    agree = [0] * H
    for j in range(1, H):
        x = 0
        while maps[j][x] == maps[j - 1][x]:
            x += 1
        agree[j] = x
    commutative = all(row == col for row, col in zip(N.table, zip(*N.table)))
    rows = [[0] * H for _ in range(H)]
    prefix = [(1 << H) - 1] + [0] * n  # prefix[x]: the AND over the first x coordinates
    for i, f in enumerate(maps):
        at_f = [a[u] for a, u in zip(at, f)]
        row = rows[i]
        first = i if commutative else 0
        for j in range(first, H):
            g = maps[j]
            x = 0 if j == first else agree[j]
            m = prefix[x]
            while x < n:
                m &= at_f[x][g[x]]
                x += 1
                prefix[x] = m
            row[j] = m
            if commutative:
                rows[j][i] = m
    return from_masks(labels, rows)


def curry(phi: Morphism, M: Hypermagma, N: Hypermagma, tag: Tag) -> Morphism:
    """Hom(M (x) N, L) -> Hom(M, [N, L])."""
    T, u = tensor(M, N, tag)
    ensure(phi.dom == T, "curry: phi is not defined on the tensor")
    L = phi.cod
    Hobj = hom_object(N, L, tag)
    # the elements of [N, L] are Hom(N, L) in enumeration order
    index = {h: i for i, h in enumerate(enumerate_morphisms(N, L, tag))}
    images = []
    for x in range(M.n):
        slice_map = tuple(phi.map[u(x, y)] for y in range(N.n))
        images.append(index[slice_map])
    psi = Morphism(M, Hobj, tuple(images))
    ensure(morphism_in_tag(psi, tag), "curry: the curried map is not a morphism")
    return psi


def uncurry(psi: Morphism, N: Hypermagma, L: Hypermagma, tag: Tag) -> Morphism:
    """Hom(M, [N, L]) -> Hom(M (x) N, L), where M is the domain of psi."""
    M = psi.dom
    T, u = tensor(M, N, tag)
    homs = enumerate_morphisms(N, L, tag)
    ensure(psi.cod == hom_object(N, L, tag), "uncurry: psi does not map into the hom object [N, L]")
    values: dict[int, int] = {}
    for x in range(M.n):
        h = homs[psi.map[x]]
        for y in range(N.n):
            t = u(x, y)
            v = h[y]
            if t in values:
                ensure(values[t] == v, "uncurry: the slices disagree on a tensor element")
            else:
                values[t] = v
    phi = Morphism(T, L, tuple(values[t] for t in range(T.n)))
    ensure(morphism_in_tag(phi, tag), "uncurry: the uncurried map is not a morphism")
    return phi


def represents_bimorphisms(
    u: Bimorphism, battery: Sequence[Hypermagma], tag: Tag
) -> tuple[bool, str | None]:
    """Whether composing with u is a bijection Hom(T, L) -> Bim(dom1, dom2; L),
    T = u.cod, for every battery object L; returns the first failure as a
    witness."""
    M, N, T = u.dom1, u.dom2, u.cod
    for i, L in enumerate(battery):
        bims = set(enumerate_bimorphisms(M, N, L, tag))
        homs = enumerate_morphisms(T, L, tag)
        at = f"battery[{i}] ({'|'.join(L.labels)})"
        if len(homs) != len(bims):
            return False, f"|Hom(T,L)| = {len(homs)} but |Bim| = {len(bims)} at {at}"
        paired = (
            tuple(tuple(phi[u(x, y)] for y in range(N.n)) for x in range(M.n))
            for phi in homs
        )
        failure = bijection_failure(paired, bims)
        if failure is not None:
            # with equal counts, an image outside Bim forces a missing one first
            kind = "injective" if failure[0] == "repeated" else "surjective"
            return False, f"pairing not {kind} at {at}"
    return True, None


@dataclass(frozen=True)
class EmptySumOutcome:
    witness: tuple[Hypermagma, int, int] | None
    steps: tuple[str, ...]


def empty_sum_search(max_size: int) -> EmptySumOutcome:
    """Search canonical hypergroups |H| <= max_size for involutions x, y with
    no self-inverse element in x + y, i.e. f + g empty in Can(Z2, H).

    The self-inverse set S is {t | 0 in t+t} = fixed points of the inversion
    plus 0, so a witness needs two distinct nonzero fixed points and at least
    one non-fixed pair; involution types failing that are excluded outright.
    The others are searched class by class in the order of
    `enumerate_reversible_tables`: the witness is the first class with fixed
    points x < y whose x + y is nonempty and disjoint from S, with the first
    such pair.
    """
    steps = []
    for n in range(2, max_size + 1):
        for swaps, sigma in enumerate(involutions(n - 1)):
            if swaps == 0:
                steps.append(
                    f"n={n}, identity involution: every element is self-inverse, "
                    "any z in x+y lies in S; excluded"
                )
                continue
            fixed = [x + 1 for x, s in enumerate(sigma) if s == x]
            if len(fixed) < 2:
                steps.append(
                    f"n={n}, {swaps} swaps: fewer than two nonzero self-inverse "
                    "elements; excluded"
                )
                continue
            S = 1 | mask_of(fixed)
            for M in enumerate_reversible_tables(n, sigma=sigma):
                for x, y in itertools.combinations(fixed, 2):
                    if M.table[x][y] and not M.table[x][y] & S:
                        ensure(
                            _verify_empty_sum(M, x, y),
                            f"empty_sum_search: n={n} witness fails the hom-object route",
                        )
                        steps.append(f"n={n}, {swaps} swaps: witness found")
                        return EmptySumOutcome((M, x, y), tuple(steps))
            steps.append(f"n={n}, {swaps} swaps: exhausted, no witness")
    return EmptySumOutcome(None, tuple(steps))


def _verify_empty_sum(H: Hypermagma, x: int, y: int) -> bool:
    """Both routes: the representable description and the literal hom object."""
    zero = H.identity
    s_mask = mask_of(t for t in range(H.n) if (H.table[t][t] >> zero) & 1)
    route1 = H.table[x][y] != 0 and H.table[x][y] & s_mask == 0
    # the elements of Can(Z2, H) are its maps in enumeration order
    Z = z2()
    homs = enumerate_morphisms(Z, H, Tag.CMSC)
    fi, gi = homs.index((zero, x)), homs.index((zero, y))
    route2 = hom_object(Z, H, Tag.CMSC).table[fi][gi] == 0
    return route1 and route2


def enumerate_strict_submosaics(M: Hypermagma) -> list[int]:
    """All subsets containing the unit, closed under products and inverses."""
    rep = analyze(M)
    if not rep.is_mosaic:
        raise NotAMosaic(f"{M!r} is not a mosaic")
    e = M.identity
    inv = M.inverse
    out = []
    for K in range(1 << M.n):
        if not (K >> e) & 1:
            continue
        if any(not (K >> inv[x]) & 1 for x in iter_bits(K)):
            continue
        if product_of_subsets(M, K, K) & ~K:
            continue
        out.append(K)
    return out


def strict_classifier_check(M: Hypermagma) -> bool:
    """Kernel map Msc(M, K) -> strict submosaics is a bijection."""
    K = krasner()
    subs = enumerate_strict_submosaics(M)
    homs = enumerate_morphisms(M, K, Tag.MSC)
    kernels = (
        mask_of(x for x in range(M.n) if f[x] == K.identity) for f in homs
    )
    return bijection_failure(kernels, subs) is None


@dataclass(frozen=True)
class MonoidObject:
    """A commutative mosaic with a bimorphism multiplication and a unit map.
    The multiplication is strict (`is_strict_bimorphism`, strict in each
    variable) exactly when the multiring is a hyperring."""

    mosaic: Hypermagma
    multiplication: Bimorphism
    unit: Morphism


def to_monoid_object(R) -> MonoidObject:
    """Package a multiring as a monoid object of the boxtimes structure.

    The ring laws are those `check_multiring` verifies on R's tables; the
    unit is the unique mosaic map from the free object on one generator.
    """
    if not isinstance(R, Multiring):
        raise NotMultiring("expected a Multiring")
    A = R.additive
    if not check_multiring(A, R.mul, R.one)["multiring"]:
        raise NotMultiring("subdistributivity fails")
    B = Bimorphism(A, A, A, tuple(tuple(row) for row in R.mul))
    if not is_bimorphism(B, Tag.CMSC):
        raise NotMultiring("multiplication is not a bimorphism")
    F = free(Tag.CMSC, ("1",))
    one = R.one
    unit = Morphism(F, A, (A.identity, one, A.inverse[one]))
    if not morphism_in_tag(unit, Tag.CMSC):
        raise NotMultiring("unit map is not a mosaic morphism")
    return MonoidObject(A, B, unit)
