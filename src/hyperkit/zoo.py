"""Named example generators (group and ring quotients, lattice mosaics,
Krasner-style quotient multirings), enumeration of canonical hypergroups up
to isomorphism, and the counterexample refuters.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .axioms import (
    AxiomReport,
    Tag,
    analyze,
    axiom_report,
    is_commutative_mosaic,
    lane_failures,
)
from .core import (
    Hypermagma,
    Lanes,
    Morphism,
    canonical_form,
    from_masks,
    iter_bits,
    mask_of,
    orbit_partition,
    pack_lanes,
    quotient,
    reversible_closure,
)
from .errors import (
    AdditiveNotCanonical,
    DimensionMismatch,
    NotAbelian,
    NotAnAutomorphismGroup,
    NotASemilattice,
    NotASubgroup,
    NotMultiring,
    NotUnitSubgroup,
    SearchCapExceeded,
    ZeroNotAbsorbing,
    ensure,
)
from .hom import bijection_failure, enumerate_morphisms
from .search import Budget, memo

# ---------------------------------------------------------------------------
# Groups


@dataclass(frozen=True)
class FiniteGroup:
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _single_valued(
    what: str, labels: Sequence[str], table: Sequence[Sequence[int]]
) -> tuple[Hypermagma, AxiomReport]:
    """The table read as the hypermagma x*y = {table[x][y]}, and its
    `analyze` report.  A table that is not n x n or holds an entry outside
    range(n) raises DimensionMismatch; `what` names the table."""
    n = len(labels)
    if len(table) != n or any(len(row) != n for row in table):
        raise DimensionMismatch(f"{what} is not {n}x{n}")
    if n and not 0 <= min(map(min, table)) <= max(map(max, table)) < n:
        raise DimensionMismatch(f"{what} has an entry outside 0..{n - 1}")
    M = from_masks(labels, [[1 << v for v in row] for row in table])
    return M, analyze(M)


def _require(error: type, what: str, M: Hypermagma, rep: AxiomReport, *laws: str) -> None:
    """Raise `error` for the first of `laws` that `rep` records as failed,
    naming the law and its least witness by labels."""
    for law in laws:
        w = rep.witness(law)
        if w is not None:
            raise error(f"{what}: {law} fails at ({', '.join(M.labels[i] for i in w)})")


def _group_table(
    what: str, labels: Sequence[str], table: Sequence[Sequence[int]]
) -> tuple[Hypermagma, AxiomReport]:
    M, rep = _single_valued(what, labels, table)
    if rep.identity is None:
        raise NotASubgroup(f"{what}: no identity element")
    _require(NotASubgroup, what, M, rep, "associative", "unique_inverses")
    return M, rep


def make_finite_group(labels: Sequence[str], table: Sequence[Sequence[int]]) -> FiniteGroup:
    M, rep = _group_table("group table", labels, table)
    return FiniteGroup(M.labels, tuple(tuple(r) for r in table), rep.identity, M.inverse)


def cyclic_group(n: int) -> FiniteGroup:
    labels = [str(i) for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return make_finite_group(labels, table)


def klein_four_group() -> FiniteGroup:
    labels = ["0", "a1", "a2", "a3"]
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return make_finite_group(labels, add)


def _perm_label(p: tuple[int, ...]) -> str:
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    labels = [_perm_label(p) for p in perms]
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return make_finite_group(labels, table)


def group_to_hypermagma(G: FiniteGroup) -> Hypermagma:
    rows = [[1 << G.table[i][j] for j in range(G.n)] for i in range(G.n)]
    return from_masks(G.labels, rows)


@memo
def z2() -> Hypermagma:
    """The cyclic group of order 2 as a hypermagma."""
    return group_to_hypermagma(cyclic_group(2))


def is_subgroup(G: FiniteGroup, K: int) -> bool:
    if not (K >> G.identity) & 1:
        return False
    for a in iter_bits(K):
        if not (K >> G.inverse[a]) & 1:
            return False
        for b in iter_bits(K):
            if not (K >> G.table[a][b]) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Group-derived hypergroups


def double_coset_hypergroup(G: FiniteGroup, K: int) -> Hypermagma:
    if not is_subgroup(G, K):
        raise NotASubgroup("K is not a subgroup")
    ks = list(iter_bits(K))
    proj = orbit_partition(
        G.n, lambda a: mask_of(G.table[G.table[k1][a]][k2] for k1 in ks for k2 in ks)
    )
    return quotient(group_to_hypermagma(G), proj).cod


def conjugacy_hypergroup(G: FiniteGroup) -> Hypermagma:
    proj = orbit_partition(
        G.n, lambda a: mask_of(G.table[G.table[g][a]][G.inverse[g]] for g in range(G.n))
    )
    return quotient(group_to_hypermagma(G), proj).cod


def _is_automorphism(G: FiniteGroup, p: Sequence[int]) -> bool:
    if sorted(p) != list(range(G.n)):
        return False
    return all(
        p[G.table[a][b]] == G.table[p[a]][p[b]] for a in range(G.n) for b in range(G.n)
    )


def orbit_hypergroup(A: FiniteGroup, action: Sequence[Sequence[int]]) -> Hypermagma:
    """Quotient of an abelian group by a group of automorphisms."""
    if any(A.table[a][b] != A.table[b][a] for a in range(A.n) for b in range(A.n)):
        raise NotAbelian("orbit quotient needs an abelian group")
    perms = [tuple(p) for p in action]
    for p in perms:
        if not _is_automorphism(A, p):
            raise NotAnAutomorphismGroup(f"{p} is not an automorphism")
    pset = set(perms)
    ident = tuple(range(A.n))
    if ident not in pset:
        raise NotAnAutomorphismGroup("action does not contain the identity")
    for p in perms:
        for q in perms:
            if tuple(p[q[i]] for i in range(A.n)) not in pset:
                raise NotAnAutomorphismGroup("action is not closed under composition")
    proj = orbit_partition(A.n, lambda a: mask_of(p[a] for p in perms))
    return quotient(group_to_hypermagma(A), proj).cod


# ---------------------------------------------------------------------------
# Lattices


def lattice_mosaic(labels: Sequence[str], meet: Sequence[Sequence[int]]) -> Hypermagma:
    """Nakano's hyperoperation a*b = {c | a^c = b^c = a^b} on a
    meet-semilattice with top; always a commutative mosaic.  The top of the
    meet table is its identity."""
    L, rep = _single_valued("meet table", labels, meet)
    n = L.n
    if any(meet[a][a] != a for a in range(n)):
        raise NotASemilattice("meet not idempotent")
    _require(NotASemilattice, "meet table", L, rep, "commutative", "associative")
    if rep.identity is None:
        raise NotASemilattice("no top element")
    rows = [
        [
            mask_of(c for c in range(n) if meet[a][c] == meet[b][c] == meet[a][b])
            for b in range(n)
        ]
        for a in range(n)
    ]
    M = from_masks(L.labels, rows)
    ensure(M.identity == rep.identity, "lattice_mosaic: the top is not the identity")
    ensure(is_commutative_mosaic(M), "lattice_mosaic: not a commutative mosaic")
    return M


def _least_upper_bounds(le: Sequence[Sequence[bool]]) -> list[list[int]] | None:
    """The least-upper-bound table of the order le[a][b] = (a <= b), or None
    when some pair has no least upper bound."""
    n = len(le)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ubs = [c for c in range(n) if le[a][c] and le[b][c]]
            least = [c for c in ubs if all(le[c][d] for d in ubs)]
            if len(least) != 1:
                return None
            out[a][b] = least[0]
    return out


def lattice_join_table(meet: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Join table from a meet table via least upper bounds, or None."""
    n = len(meet)
    return _least_upper_bounds([[meet[a][b] == a for b in range(n)] for a in range(n)])


def is_modular_lattice(meet: Sequence[Sequence[int]]) -> bool:
    n = len(meet)
    join = lattice_join_table(meet)
    if join is None:
        raise NotASemilattice("meet table is not a lattice: some pair has no least upper bound")
    le = [[meet[a][b] == a for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if le[a][c] and join[a][meet[b][c]] != meet[join[a][b]][c]:
                    return False
    return True


def enumerate_lattices(n: int) -> list[list[list[int]]]:
    """All bounded lattices on n elements up to isomorphism, as meet tables.

    Element 0 is the bottom and n-1 the top; only the order on the middle
    n-2 elements varies, so the scan is tiny for n <= 6.
    """
    if n <= 0:
        return []
    if n == 1:
        return [[[0]]]
    mid = list(range(1, n - 1))
    pairs = [(i, j) for i in mid for j in mid if i < j]
    results: list[list[list[int]]] = []
    seen: set[tuple] = set()
    for bitsel in range(1 << len(pairs)):
        le = [[False] * n for _ in range(n)]
        for i in range(n):
            le[i][i] = True
            le[0][i] = True
            le[i][n - 1] = True
        for p, (i, j) in enumerate(pairs):
            if (bitsel >> p) & 1:
                le[i][j] = True
        # only pairs i < j are chosen, so every choice is antisymmetric;
        # one that is not transitive is skipped, not closed, since each
        # order is reached through its own linear extension
        if any(le[a][b] and le[b][c] and not le[a][c] for a in mid for b in mid for c in mid):
            continue
        # greatest lower bounds are least upper bounds of the dual order;
        # with a top, a finite order where they all exist is a lattice
        meet = _least_upper_bounds(list(zip(*le)))
        if meet is None:
            continue
        canon = canonical_form([[1 << m for m in row] for row in meet], (0, n - 1))
        if canon in seen:
            continue
        seen.add(canon)
        results.append(meet)
    return results


# ---------------------------------------------------------------------------
# Rings and multirings


@dataclass(frozen=True)
class FiniteRing:
    labels: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def units(self) -> int:
        out = 0
        for a in range(self.n):
            if any(
                self.mul[a][b] == self.one and self.mul[b][a] == self.one
                for b in range(self.n)
            ):
                out |= 1 << a
        return out


def make_finite_ring(
    labels: Sequence[str], add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]]
) -> FiniteRing:
    A, plus = _group_table("addition table", labels, add)
    _require(NotMultiring, "addition table", A, plus, "commutative")
    P, times = _single_valued("multiplication table", labels, mul)
    if times.identity is None:
        raise NotMultiring("no multiplicative identity")
    _require(NotMultiring, "multiplication table", P, times, "associative")
    w = _distributivity(A, mul, times.commutative)[1]
    if w is not None:
        raise NotMultiring(
            f"multiplication does not distribute over addition at "
            f"({', '.join(A.labels[i] for i in w)})"
        )
    return FiniteRing(
        A.labels,
        tuple(tuple(r) for r in add),
        tuple(tuple(r) for r in mul),
        plus.identity,
        times.identity,
    )


def zmod_ring(n: int) -> FiniteRing:
    labels = [str(i) for i in range(n)]
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return make_finite_ring(labels, add, mul)


def _poly_field(p: int, reduce_sq: tuple[int, int]) -> FiniteRing:
    """GF(p^2) as Z_p[w] with w^2 = reduce_sq[0] + reduce_sq[1] w."""
    els = [(a, b) for a in range(p) for b in range(p)]

    def lbl(e):
        a, b = e
        if b == 0:
            return str(a)
        w = "i" if reduce_sq == (p - 1, 0) else "w"
        part = w if b == 1 else f"{b}{w}"
        return part if a == 0 else f"{a}+{part}"

    def add(e, f):
        return ((e[0] + f[0]) % p, (e[1] + f[1]) % p)

    def mul(e, f):
        a, b = e
        c, d = f
        # (a + bw)(c + dw) = ac + (ad + bc) w + bd w^2
        r0, r1 = reduce_sq
        return ((a * c + b * d * r0) % p, (a * d + b * c + b * d * r1) % p)

    index = {e: i for i, e in enumerate(els)}
    labels = [lbl(e) for e in els]
    addt = [[index[add(e, f)] for f in els] for e in els]
    mult = [[index[mul(e, f)] for f in els] for e in els]
    return make_finite_ring(labels, addt, mult)


@memo
def make_gf9() -> FiniteRing:
    """The nine-element field as Z_3[i] with i^2 = -1."""
    return _poly_field(3, (2, 0))


def make_gf4() -> FiniteRing:
    """The four-element field as Z_2[w] with w^2 = 1 + w."""
    return _poly_field(2, (1, 1))


def multiplicative_generator(R: FiniteRing) -> int:
    """Least-index generator of the unit group of a finite field."""
    units = list(iter_bits(R.units()))
    target = len(units)
    for a in units:
        x = a
        order = 1
        while x != R.one:
            x = R.mul[x][a]
            order += 1
        if order == target:
            return a
    raise NotMultiring("no multiplicative generator")


@dataclass(frozen=True)
class Multiring:
    """Canonical hypergroup plus a monoid with subdistributive multiplication."""

    additive: Hypermagma
    mul: tuple[tuple[int, ...], ...]
    one: int
    multiring: bool
    hyperring: bool


def _distributivity(
    A: Hypermagma, mul: Sequence[Sequence[int]], commutative: bool
) -> tuple[tuple[int, int, int] | None, tuple[int, int, int] | None]:
    """Least witnesses (a, b, c) against sub- and strict distributivity of
    `mul` over the hyperaddition of A, None where the law holds.  Sub fails
    where a(b + c) is not within ab + ac or (b + c)a not within ba + ca;
    strict fails where either pair differs.  For each a, each side is
    compared over all (b, c) as one list, and only a list that differs is
    searched.  A `commutative` mul has one side: (b + c)a = a(b + c) and
    ba + ca = ab + ac."""
    add = A.table
    n = A.n
    flat = [m for row in add for m in row]
    split = {m: tuple(iter_bits(m)) for m in flat}
    strict = None
    for a in range(n):
        sides = []
        for times in [mul[a]] if commutative else [mul[a], [row[a] for row in mul]]:
            image = {m: mask_of(map(times.__getitem__, ts)) for m, ts in split.items()}
            lhs = list(map(image.__getitem__, flat))
            rhs = [add[x][y] for x in times for y in times]
            sides.append((lhs, rhs))
        if all(lhs == rhs for lhs, rhs in sides):
            continue
        for k in range(n * n):
            for lhs, rhs in sides:
                if lhs[k] != rhs[k]:
                    strict = strict or (a, k // n, k % n)
                    if lhs[k] & ~rhs[k]:
                        return (a, k // n, k % n), strict
    return None, strict


def check_multiring(additive: Hypermagma, mul: Sequence[Sequence[int]], one: int) -> dict:
    rep = analyze(additive)
    if rep.classification not in ("CanonicalHypergroup", "AbelianGroup"):
        raise AdditiveNotCanonical(
            f"additive part classifies as {rep.classification}"
        )
    P, times = _single_valued("multiplication table", additive.labels, mul)
    zero = additive.identity
    if any(mul[zero][x] != zero or mul[x][zero] != zero for x in range(P.n)):
        raise ZeroNotAbsorbing("0 * R = 0 = R * 0 fails")
    if times.identity != one:
        raise NotMultiring("1 is not a multiplicative identity")
    _require(NotMultiring, "multiplication table", P, times, "associative")
    sub, strict = _distributivity(additive, mul, times.commutative)
    return {"multiring": sub is None, "hyperring": strict is None}


def make_multiring(additive: Hypermagma, mul: Sequence[Sequence[int]], one: int) -> Multiring:
    flags = check_multiring(additive, mul, one)
    return Multiring(
        additive,
        tuple(tuple(r) for r in mul),
        one,
        flags["multiring"],
        flags["hyperring"],
    )


def krasner_quotient(R: FiniteRing, G: int) -> Multiring:
    """Quotient multiring R/G by a subgroup G (a mask) of the unit group."""
    units = R.units()
    if G & ~units or not (G >> R.one) & 1:
        raise NotUnitSubgroup("G must be a subgroup of the unit group")
    for a in iter_bits(G):
        inv = [b for b in iter_bits(units) if R.mul[a][b] == R.one]
        if not inv or not (G >> inv[0]) & 1:
            raise NotUnitSubgroup("G not closed under inversion")
        for b in iter_bits(G):
            if not (G >> R.mul[a][b]) & 1:
                raise NotUnitSubgroup("G not closed under multiplication")
    proj = _unit_classes(R, G)
    plus = from_masks(R.labels, [[1 << s for s in row] for row in R.add])
    additive = quotient(plus, proj).cod
    k = additive.n
    members = [[x for x in range(R.n) if proj[x] == i] for i in range(k)]
    mult = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            prods = {proj[R.mul[a][b]] for a in members[i] for b in members[j]}
            if len(prods) != 1:
                raise NotUnitSubgroup("multiplication not well-defined on classes")
            mult[i][j] = prods.pop()
    return make_multiring(additive, mult, proj[R.one])


def _unit_classes(R: FiniteRing, G: int) -> tuple[int, ...]:
    """Projection of R onto the orbits a*G of a unit subgroup G."""
    return orbit_partition(R.n, lambda a: mask_of(R.mul[a][g] for g in iter_bits(G)))


def _sign_subgroup(R: FiniteRing) -> int:
    """The unit subgroup {1, -1}, as a mask."""
    return (1 << R.one) | (1 << R.add[R.one].index(R.zero))


@memo
def krasner() -> Hypermagma:
    """Additive hypergroup of the Krasner hyperfield {0, 1}, 1+1 = {0,1}."""
    return from_masks(("0", "1"), ((0b01, 0b10), (0b10, 0b11)))


def krasner_multiring() -> Multiring:
    return make_multiring(krasner(), ((0, 0), (0, 1)), 1)


def subdistributive_multiring() -> Multiring:
    """A multiring on {0, 1, 2} that is no hyperring: 1 + 1 = 2 + 2 =
    {0, 1, 2}, 1 + 2 = {1, 2}, and 2 * 2 = 2, so 2(1 + 1) = {0, 2} lies
    strictly inside 2 + 2 and the slice 2 * - is colax but not strict."""
    additive = from_masks(("0", "1", "2"), ((1, 2, 4), (2, 7, 6), (4, 6, 7)))
    return make_multiring(additive, ((0, 0, 0), (0, 1, 2), (0, 2, 2)), 1)


@memo
def gf9_quotient() -> Multiring:
    R = make_gf9()
    return krasner_quotient(R, _sign_subgroup(R))


@memo
def gf9_frobenius() -> Morphism:
    """Frobenius-induced automorphism on the gf9 quotient hypergroup."""
    R = make_gf9()
    H = gf9_quotient().additive
    proj = _unit_classes(R, _sign_subgroup(R))
    # x -> x^3 commutes with negation, so any member of a class gives its image
    fmap = [0] * (max(proj) + 1)
    for x in range(R.n):
        fmap[proj[x]] = proj[R.mul[R.mul[x][x]][x]]
    return Morphism(H, H, tuple(fmap))


# ---------------------------------------------------------------------------
# Enumeration of canonical hypergroups up to isomorphism


def involutions(k: int) -> list[tuple[int, ...]]:
    """Involutions of {0..k-1} as canonical representatives per cycle type:
    (0 1)(2 3)... with the tail fixed."""
    out = []
    for swaps in range(k // 2 + 1):
        sigma = list(range(k))
        for s in range(swaps):
            sigma[2 * s], sigma[2 * s + 1] = 2 * s + 1, 2 * s
        out.append(tuple(sigma))
    return out


def _triple_orbits(nz: int, sigma: Sequence[int]) -> list[list[tuple[int, int, int]]]:
    """Orbits of nonzero triples under commutativity and reversibility moves:
    the `reversible_closure` of each triple and its mirror."""
    seen = set()
    orbits = []
    for t in itertools.product(range(nz), repeat=3):
        if t not in seen:
            orb = reversible_closure([t, (t[1], t[0], t[2])], sigma)
            orbits.append(sorted(orb))
            seen |= orb
    return orbits


def _orbit_symmetries(nz: int, sigma: Sequence[int], orbits: list) -> list[list[int]]:
    """The relabelings of nonzero elements, other than the identity, that
    commute with sigma, each as its orbit image: p maps orbit i to orbit
    image[i]."""
    orbit_of = {t: i for i, orb in enumerate(orbits) for t in orb}
    out = []
    for p in itertools.permutations(range(nz)):
        if p == tuple(range(nz)) or any(p[sigma[x]] != sigma[p[x]] for x in range(nz)):
            continue
        out.append([orbit_of[tuple(p[t] for t in orb[0])] for orb in orbits])
    return out


def _canonicity_lanes(k: int, symmetries: list) -> tuple[list[int], list[int], list[int], int]:
    """The comparisons of v(pT) with v(T), every symmetry p at once.

    Orbit i is bit k-1-i of the orbit-choice vector v.  Symmetry s owns
    lane s, bits s(k+1) .. s(k+1)+k of an int, with its guard bit at bit k
    of the lane.  Returns (img, rep, masks, guards): img[i] holds, in each
    lane, the bit of the image of orbit i under that lane's symmetry, and
    rep[i] holds bit k-1-i in every lane, so the OR of img[i] (rep[i]) over
    the orbits decided "in" is v(pT) (v) in every lane.  `guards` holds
    every guard bit.

    At depth i orbits 0..i-1 are decided.  Orbit j of v(pT) is orbit pre[j]
    of v(T), pre the inverse of the image, so the top m bits of v(pT) are
    final once pre[0..m-1] are all below i; then m <= i, and the top m bits
    of v(T) are final too.  masks[i] holds the top m bits of each lane
    whose m grows at depth i, and nothing of the others: the comparisons
    that become final there.  At depth k every lane has m = k, which is
    the leaf test.

    Each int is built once, from a buffer of its bits (img) or as a
    multiple of the int with bit 0 of some lanes set (rep, masks, guards),
    so the build is linear in the lanes, not quadratic.
    """
    bases = range(0, len(symmetries) * (k + 1), k + 1)
    size = len(bases) * (k + 1) // 8 + 1

    def bits_at(positions) -> int:
        buf = bytearray(size)
        for p in positions:
            buf[p >> 3] |= 1 << (p & 7)
        return int.from_bytes(buf, "little")

    ones = bits_at(bases)
    img = [bits_at(b + k - 1 - image[i] for b, image in zip(bases, symmetries)) for i in range(k)]
    rep = [ones << k - 1 - i for i in range(k)]
    grown: list[dict[int, list[int]]] = [{} for _ in range(k + 1)]  # depth -> m -> lanes
    for base, image in zip(bases, symmetries):
        pre = sorted(range(k), key=image.__getitem__)
        depth = 0  # where the top m bits become final
        for m in range(1, k + 1):
            depth = max(depth, pre[m - 1] + 1)
            if m == k or pre[m] >= depth:
                grown[depth].setdefault(m, []).append(base)
    masks = [
        sum(((1 << m) - 1 << k - m) * bits_at(lanes) for m, lanes in by_m.items())
        for by_m in grown
    ]
    return img, rep, masks, ones << k


def reversible_table_blocks(
    n: int, hypergroups: bool = True, sigma: tuple[int, ...] | None = None
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple[tuple[int, ...], ...]]]]:
    """The commutative unital reversible tables on n elements (0 is the
    unit), only the total and associative ones if `hypergroups`: one table
    per isomorphism class, one block per sigma the search visits, as (the
    inverse map of the block's tables, an iterator of the tables in search
    order).  A table is a tuple of row tuples, and every table of one call
    holds the same tuple for equal rows.  `census_blocks` builds the
    objects.

    Every table is isomorphic to one whose inversion is a canonical
    involution sigma of the nonzero elements, x -> sigma(x - 1) + 1, and the
    search visits one sigma per cycle type, fewest swaps first
    (`involutions`).  Given `sigma`, one of those, it visits only that one
    and yields the block the full search yields for it.

    For each sigma the free choices are the orbits of nonzero triples
    (x, y, z), read "z in x + y", under the commutativity move (y, x, z) and
    the reversibility move (z, sigma(y), x), so every table is reversible by
    construction.  A depth-first search decides the orbits in
    `_triple_orbits` order, "in" before "out".  It prunes a partial table
    when the undecided orbits can no longer make it total, and when an
    associativity triple fails.  The triples (a, b, c) of one pair a < c
    are checked together as soon as rows a and c are final: (a + b) + c is
    the image of a + b under row c, the union of x + c over the x in a + b,
    and a + (b + c) the image of c + b = b + c under row a, so every b holds
    iff row a read through the image table of row c equals row c read
    through that of row a.  Orbits own disjoint bits, so a final row r
    depends only on v & touch[r], v the orbits decided "in" (the
    orbit-choice vector below) and touch[r] the orbits with an entry in row
    r.  Each block keeps one cache per row from that value to the row and
    its image table (one byte per mask, padded to the 256 bytes of
    `bytes.translate`), so a pair's check is two lookups and two
    translations.  Both are ORs of what each orbit decided "in" adds, so a
    miss ORs parts built once per block.  A leaf reads each row from one
    more cache per row, from that value to the row tuple the tables share,
    so that cache holds no row the tables do not.  The caches live as long
    as the block's generator.  Both cuts drop only subtrees without a valid
    leaf.

    Within one sigma the valid tables come in decreasing order of their
    orbit-choice vector v (orbit 0 most significant).  An isomorphism
    between two of them fixes 0 and commutes with sigma, so it permutes the
    orbits and v(pT) is a bit permutation of v(T).  A table is yielded only
    if v(T) >= v(pT) for every such p, that is, exactly when it is the
    first table of its class in search order.  So each class is yielded
    once, and its representative is its first table in search order.

    The same comparison cuts subtrees (orderly generation, as in Read's
    "Every one a winner").  At depth i the orbits before i are decided, and
    for each p the top m bits of v(pT) are final once the orbits that p
    maps onto the first m are all decided (`_canonicity_lanes`).  If those
    bits of v(pT) exceed the top m bits of v, which are decided too, every
    leaf below has v(T) < v(pT) and would fail the leaf test, so the subtree
    is dropped.  At the leaves, depth k for k orbits, m = k for every p,
    and the cut is the leaf test.  It drops only tables that are not the
    first of their class, so the yielded tables and their order are those
    of the leaf test alone.

    Every symmetry is compared at once, in lanes of one int (SIMD within a
    register): symmetry s owns k + 1 bits, the k bits of a vector and a
    guard bit above them.  Each "in" child ORs into W the image of its
    orbit in every lane, so W holds v(pT) in the lane of p, and into R its
    own bit in every lane, so R holds v in every lane.  The mask of depth i
    keeps the top m bits of each lane whose m grows there, and nothing of
    the others.  With w and u the masked W and R, (u | guards) - w keeps
    the guard bit of each lane where v(pT) is not above v and borrows from
    no other lane, so the node is cut when any guard bit is lost.

    A lane whose v(pT) has fallen below v needs no tracking: lexicographic
    order is settled by the first bit that differs, so every later
    comparison of that lane, on a longer prefix, finds v(pT) below v too,
    and the lane cannot cut anywhere in the subtree.  The cuts, and so the
    nodes and the yielded tables, are those of comparing each p on its own.
    The search runs in one generator frame, on an explicit stack of the
    "out" children still to visit.

    The blocks share one `Budget`, spent node by node as the tables are
    read: a block counts its nodes down in a local copy of `budget.left`,
    written back before each table is yielded and when the block ends, so
    blocks read in turn spend the budget as if read one after the other.

    Raises `ValueError` when n < 0, when n > 8, or when `sigma` is not one
    of `involutions(n - 1)`.  The byte image tables, like `pack_lanes`, hold
    n <= 8, and at n = 9 listing the 8! relabelings before the first node
    would take longer than any cap could stop.
    """
    if n < 0:
        raise ValueError(f"reversible_table_blocks: n must be >= 0, got {n}")
    if n > 8:
        raise ValueError(f"reversible_table_blocks: n must be <= 8, got {n}")
    sigmas = involutions(n - 1)
    if sigma is not None:
        if tuple(sigma) not in sigmas:
            raise ValueError(
                f"reversible_table_blocks: sigma must be one of involutions({n - 1}), "
                f"got {sigma!r}"
            )
        sigmas = [tuple(sigma)]
    budget = Budget(f"reversible_table_blocks(n={n})")
    # one tuple per distinct row for every table of the call
    share = {}.setdefault
    return (
        ((0, *(x + 1 for x in s)), _sigma_tables(n, s, hypergroups, budget, share))
        for s in sigmas
    )


def _sigma_tables(n, sigma, hypergroups, budget, share):
    """The tables of one sigma block of `reversible_table_blocks`."""
    nz = n - 1
    orbits = _triple_orbits(nz, sigma)
    k = len(orbits)
    img, rep, masks, guards = _canonicity_lanes(k, _orbit_symmetries(nz, sigma, orbits))

    # coverage bitmask per orbit over the pairs whose entry must be hit
    pairs_needing = [(x, y) for x in range(nz) for y in range(nz) if sigma[x] != y]
    pair_idx = {p: i for i, p in enumerate(pairs_needing)}
    full_cover = (1 << len(pairs_needing)) - 1
    cover = []
    for orb in orbits:
        c = 0
        for (x, y, _z) in orb:
            pi = pair_idx.get((x, y))
            if pi is not None:
                c |= 1 << pi
        cover.append(c)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cover[i]

    # Entry j is final from depth final[j] on.  parts[r][1 << i] is what
    # orbit i adds to row r and parts[r][0] its fixed entries, each one int
    # of n + 256 bytes: the row, a byte per entry, then its image table, byte
    # m the OR of the entries at the bits of m.  So a final row and its image
    # table are the OR of its parts at 0 and at the orbits "in", and touch[r]
    # holds bit i of each orbit i with an entry in row r.  checks[i] lists
    # the pairs (a, c) whose two rows become final at depth i.  By
    # commutativity (a, b, c) and (c, b, a) are one check and (a, b, a)
    # always holds, so only a < c is checked.  images[r] maps v & touch[r] to
    # final row r and its image table, padded for `bytes.translate`, and
    # rows[r] to the row's shared tuple.
    spread = [sum(1 << 8 * (n + m) for m in range(1 << n) if m >> j & 1) for j in range(n)]
    parts = [{0: 0} for _ in range(n)]
    entries = [(0, 0, x, x) for x in range(n)] + [(0, x, 0, x) for x in range(n)]
    entries += [(0, x, sigma[x - 1] + 1, 0) for x in range(1, n)]
    final = [0] * (n * n)
    for i, orb in enumerate(orbits):
        for (x, y, z) in orb:
            final[(x + 1) * n + y + 1] = i + 1
            entries.append((1 << i, x + 1, y + 1, z + 1))
    for key, x, y, z in entries:
        parts[x][key] = parts[x].get(key, 0) | (1 << 8 * y | spread[y]) << z
    touch = list(map(sum, parts))
    checks = [[] for _ in range(k + 1)]
    if hypergroups:
        for a in range(1, n):
            for c in range(a + 1, n):
                checks[max(final[a * n : a * n + n] + final[c * n : c * n + n])].append((a, c))
    images = [{} for _ in range(n)]
    rows = [{} for _ in range(n)]
    row_bytes = (1 << 8 * n) - 1

    def joined(r, key):
        out = parts[r][0]
        while key:
            out |= parts[r][key & -key]
            key &= key - 1
        return out

    def fetch(r, key):
        both = joined(r, key)
        image = (both >> 8 * n).to_bytes(256, "little")
        images[r][key] = entry = ((both & row_bytes).to_bytes(n, "little"), image)
        return entry

    def leaf_row(r, key):
        row = tuple((joined(r, key) & row_bytes).to_bytes(n, "little"))
        rows[r][key] = row = share(row, row)
        return row

    # Depth first, "in" before "out", in one frame.  A node is (i, got, W,
    # R, v): its depth, the coverage of the orbits decided "in", their
    # images in every lane (v(pT) in the lane of p), v in every lane and v
    # itself.  The inner loop walks down the "in" children and pushes each
    # "out" child, which keeps got, W, R and v; a cut or a leaf pops the
    # next node, and a leaf reads its rows from `rows`.  The nodes are
    # counted down in `left`, `budget.left` at every yield and block end.
    stack = [(0, 0, 0, 0, 0)]
    left = budget.left
    while stack:
        i, got, W, R, v = stack.pop()
        while True:
            left -= 1
            if left < 0:
                budget.left = 0
                budget.spend()
            if hypergroups and (got | suffix[i]) != full_cover:
                break
            for a, c in checks[i]:
                key_a = v & touch[a]
                row_a, image_a = images[a].get(key_a) or fetch(a, key_a)
                key_c = v & touch[c]
                row_c, image_c = images[c].get(key_c) or fetch(c, key_c)
                if row_a.translate(image_c) != row_c.translate(image_a):
                    break
            else:
                # (u | guards) - w keeps the guard bit of each lane where
                # v(pT) is not above v, and borrows across no lane
                M = masks[i]
                w = W & M
                u = R & M
                if (u | guards) - w & guards != guards:
                    break
                if i == k:
                    table = [rows[r].get(v & t) or leaf_row(r, v & t) for r, t in enumerate(touch)]
                    budget.left = left
                    yield tuple(table)
                    left = budget.left
                    break
                stack.append((i + 1, got, W, R, v))
                got |= cover[i]
                W |= img[i]
                R |= rep[i]
                v |= 1 << i
                i += 1
                continue
            break
    budget.left = left


@memo
def enumerate_unital_hypermagmas(n: int) -> tuple[Hypermagma, ...]:
    """Every unital hypermagma on n elements up to isomorphism, identity
    first.  Raw scan over the free table entries; usable for n <= 3."""
    if n == 0:
        return ()
    if n == 1:
        return (from_masks(("e",), ((1,),)),)
    if n > 3:
        # the raw scan is exponential in the (n-1)^2 free entries
        raise SearchCapExceeded(
            f"enumerate_unital_hypermagmas: raw scan capped at n <= 3, asked for n={n}"
        )
    labels = tuple(["e"] + [str(i) for i in range(1, n)])
    k = n - 1
    seen = set()
    out = []
    nonunit = list(range(1, n))
    for combo in itertools.product(range(1 << n), repeat=k * k):
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            rows[0][x] = 1 << x
            rows[x][0] = 1 << x
        it = iter(combo)
        for i in nonunit:
            for j in nonunit:
                rows[i][j] = next(it)
        sig = canonical_form(rows, (0,))
        if sig in seen:
            continue
        seen.add(sig)
        out.append(from_masks(labels, rows))
    return tuple(out)


@memo
def census_blocks(
    n: int, hypergroups: bool
) -> tuple[tuple[tuple[int, ...], tuple[Hypermagma, ...], Lanes], ...]:
    """The commutative mosaics on n elements, or with `hypergroups` the
    canonical hypergroups, one per isomorphism class, one sigma block of
    `reversible_table_blocks` at a time: (the block's inverse map, its
    classes, their tables in byte lanes).  This is the one route from the
    search to objects.

    The classes are the search's tables: each class once, represented by
    its first table in search order, classes in that order.  Each block is
    packed once (`pack_lanes`: one byte lane per table, so the lanes hold
    n <= 8, as the search does) and checked in one `lane_failures` call,
    which also checks that every table has the identity 0 and the block's
    inverse map; the objects then share the block's labels, rows and
    inverse map, and no report is left in the memo.  A table it rejects is
    built by `from_masks` and raises `InvariantViolated`, naming its
    identity and inverse map when they are not the block's, else its
    `axiom_report` classification.  Past `search.search_cap()` nodes the
    search raises `SearchCapExceeded`, on a memo hit as on a fresh search;
    n < 0 or n > 8 raises `ValueError`.
    """
    labels = tuple(str(v) for v in range(n))
    out = []
    for inverse, tables in reversible_table_blocks(n, hypergroups):
        tables = list(tables)
        lanes = pack_lanes(n, tables)
        bad = lane_failures(lanes, 0, inverse, hypergroups)
        if any(bad):
            M = from_masks(labels, tables[bad.index(1)])
            e, inv = M.identity, M.inverse
            kind = f"table with identity {e} and inverse map {inv}, not 0 and {inverse}"
            if (e, inv) == (0, inverse):
                kind = axiom_report(M).classification
            ensure(False, f"census_blocks(n={n}, hypergroups={hypergroups}) produced a {kind}")
        out.append((inverse, tuple([Hypermagma(labels, t, 0, inverse) for t in tables]), lanes))
    return tuple(out)


@memo
def enumerate_small_mosaics(n: int) -> tuple[Hypermagma, ...]:
    """Every commutative mosaic on n elements up to isomorphism: the classes
    of `census_blocks(n, False)`, block after block."""
    return tuple(M for _inverse, classes, _lanes in census_blocks(n, False) for M in classes)


@memo
def enumerate_canonical_hypergroups(n: int) -> list[Hypermagma]:
    """Canonical hypergroups on n elements, one per isomorphism class: the
    classes of `census_blocks(n, True)`, block after block."""
    return [M for _inverse, classes, _lanes in census_blocks(n, True) for M in classes]


# ---------------------------------------------------------------------------
# Refuters
#
# Each refuter (`suite`) walks the classes of canonical hypergroups block
# by block (`census_blocks`) and replays a proof against every candidate on
# each class.  What depends on the class alone is read once per block;
# what depends on the candidate is one call of `refute_coproduct_candidate`
# or `refute_equalizer_candidate`, which takes maps, builds no `Morphism`,
# formats nothing and returns the record of what it proved.  Their
# candidates come from the census and from `univ.equalizer`, so neither
# checks its input.


def lift_points(G: Hypermagma) -> tuple[int, ...]:
    """The x with {0, x} inside x + x, ascending: where a K -> G morphism
    can send 1."""
    e = G.identity
    if e is None:
        return ()
    return tuple(x for x in range(G.n) if (G.table[x][x] >> e) & 1 and (G.table[x][x] >> x) & 1)


def leg_pairs(T: Hypermagma) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Hom(Z2, T) x Hom(Z2, T) as pairs of maps: the pairs of legs into T
    that a coproduct of Z2 with itself mediates, each by exactly one map."""
    return list(itertools.product(enumerate_morphisms(z2(), T, Tag.CMSC), repeat=2))


def refute_coproduct_candidate(
    i1: Sequence[int], i2: Sequence[int], targets: Iterable[tuple[Hypermagma, list, list]]
) -> tuple[Hypermagma, str, tuple] | None:
    """The per-candidate half of the coproduct refuter, for the legs
    Z2 -> G with maps `i1` and `i2`.  `targets` holds, per battery object T,
    (T, the maps of Hom(G, T), `leg_pairs(T)`): composing with i1 and i2
    must hit each pair of legs exactly once.  Returns the first failure,
    (T, "repeated" or "missing", the legs), or None when the battery
    passes."""
    (a1, b1), (a2, b2) = i1, i2
    for T, maps, pairs in targets:
        keys = (((m[a1], m[b1]), (m[a2], m[b2])) for m in maps)
        failure = bijection_failure(keys, pairs)
        # an "extra" key needs i1 or i2 not to be a morphism; the refutation
        # rests on the mediating morphism's existence and uniqueness only
        if failure is not None and failure[0] != "extra":
            return T, *failure
    return None


@memo
def _gf9_classifier_targets() -> tuple[int, int]:
    """Classes of 1 and of the square of the least multiplicative generator:
    the images of 1 under the K -> H morphisms f and g of the equalizer
    proof, both fixed by the Frobenius."""
    R = make_gf9()
    alpha = multiplicative_generator(R)
    proj = _unit_classes(R, _sign_subgroup(R))
    targets = proj[R.one], proj[R.mul[alpha][alpha]]
    H = gf9_quotient().additive
    F = gf9_frobenius()
    ensure(
        all(F.map[v] == v for v in (H.identity, *targets)),
        "refute_equalizer_candidate: a K -> H map from the proof is not F-fixed",
    )
    return targets


def refute_equalizer_candidate(
    E: Hypermagma, points: Sequence[int], emap: Sequence[int], fmap: Sequence[int]
) -> tuple[bool, tuple[int, ...], int | None]:
    """The per-candidate half of the equalizer refuter, for e: E -> H with
    map `emap` that equalizes id and the Frobenius (map `fmap`), and
    `points` the `lift_points` of E.  The K -> H map sending 1 to a target
    of `_gf9_classifier_targets` factors through e iff e sends a lift point
    of E to it; with x and y the first such points, the least z in x + y
    must map to an F-fixed class.  Returns (refuted, the lift points found,
    z), z None when x + y is not reached or empty."""
    lifts = []
    for target in _gf9_classifier_targets():
        x = next((x for x in points if emap[x] == target), None)
        if x is None:
            return True, tuple(lifts), None
        lifts.append(x)
    x, y = lifts
    sums = E.table[x][y]
    if not sums:
        return True, (x, y), None
    z = next(iter_bits(sums))
    return fmap[emap[z]] != emap[z], (x, y), z
