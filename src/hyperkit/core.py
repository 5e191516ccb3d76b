"""Finite hypermagmas over bit-mask subsets.

A carrier is an ordered tuple of distinct labels; a subset of the carrier is
an int bit mask over carrier indices.  The hyperoperation is stored as an
n x n table of masks.  Values are immutable and hashable, so they can be
cached and shared freely.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    IdentityAxiomViolated,
    ensure,
)

def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# BITS[m]: the set bits of m, ascending, for every m < 256
BITS = tuple(tuple(iter_bits(m)) for m in range(256))


def bit_splitter(n: int) -> Callable[[int], tuple[int, ...]]:
    """mask -> tuple of its set bits, by one lookup in BITS when the mask
    is below 256, always when n <= 8."""
    if n <= 8:
        return BITS.__getitem__
    return lambda m: BITS[m] if m < 256 else tuple(iter_bits(m))


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def image_tables(values: Sequence[int]) -> list[list[int]]:
    """Lookup tables for the union of values[i] over the set bits i of a mask
    over range(len(values)), one table per 8-bit chunk of the mask: chunk c
    of the mask indexes tables[c].  See `image_function`."""
    tables = []
    for base in range(0, len(values), 8):
        table = [0]
        for v in values[base : base + 8]:
            table += [m | v for m in table]
        tables.append(table)
    return tables


def image_function(values: Sequence[int]) -> Callable[[int], int]:
    """mask -> the union of values[i] over its set bits, by `image_tables`:
    one list lookup when there are at most 8 values."""
    tables = image_tables(values)
    if len(tables) == 1:
        return tables[0].__getitem__

    def image(mask: int) -> int:
        out = 0
        for table in tables:
            if not mask:
                break
            out |= table[mask & 0xFF]
            mask >>= 8
        return out

    return image


def _detect_identity(table: Sequence[tuple[int, ...]]) -> int | None:
    """The scalar identity of a table of row tuples: its row, and then its
    column, equal the unit row, each tested in one comparison."""
    n = len(table)
    unit = tuple(1 << x for x in range(n))
    found = None
    for e, row in enumerate(table):
        if row == unit and tuple(map(operator.itemgetter(e), table)) == unit:
            ensure(found is None, "a scalar identity is unique: e = e*e' = e'")
            found = e
    return found


def inverse_scan(
    table: Sequence[Sequence[int]], e: int | None
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(inverse map, None) when every x has exactly one y with e in x*y and
    e in y*x; else (None, least witness): (x,) for an x with no inverse,
    (x, y, y') for its first two, and () when there is no identity e."""
    if e is None:
        return None, ()
    n = len(table)
    ebit = 1 << e
    inv = []
    for x, row in enumerate(table):
        found = None
        for y, m in enumerate(row):
            if m & ebit and table[y][x] & ebit:
                if found is not None:
                    return None, (x, found, y)
                found = y
        if found is None:
            return None, (x,)
        inv.append(found)
    ensure(
        [*map(inv.__getitem__, inv)] == [*range(n)] and inv[e] == e,
        "unique inverses form an involution fixing the identity",
    )
    return tuple(inv), None


@dataclass(frozen=True)
class Hypermagma:
    """Carrier labels, n x n table of subset masks, optional identity/inverse."""

    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int | None = None
    inverse: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def subset(self, labels: Iterable[str]) -> int:
        return mask_of(self.index(l) for l in labels)

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:
        return f"Hypermagma({list(self.labels)!r}, n={self.n})"

    # The hash of the fields, computed on first use and kept as an instance
    # attribute.  Set through object.__setattr__, which stores it beside the
    # fields; reading self.__dict__ would build a dict for every hashed
    # object.  Not a field, so == and repr ignore it, and __getstate__ leaves
    # it out of pickles and copies: string hashes differ between processes.
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.labels, self.table, self.identity, self.inverse))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state


# the types `from_masks` keeps without a copy: exact str labels, exact int masks
_STR = frozenset({str})
_INT = frozenset({int})
# one tuple per inverse map on at most 8 elements, shared by every object
# `from_masks` builds with it; at most 2,619 maps (an involution of the
# other n - 1 elements for each identity e)
_share_inverse = {}.setdefault


def from_masks(
    labels: Sequence[str],
    table: Sequence[Sequence[int]],
    identity: int | None = None,
) -> Hypermagma:
    """Build and validate a hypermagma whose table entries are masks.

    The identity, when present, is always auto-detected; passing `identity`
    asserts that the given element really is one.

    A `labels` tuple of exact `str`s and each row that is a tuple of exact
    `int`s are kept, not copied, so callers that build many objects can
    share them; every other input is converted.  On at most 8 elements
    equal inverse maps are one tuple.
    """
    if type(labels) is not tuple or not {*map(type, labels)} <= _STR:
        labels = tuple(str(l) for l in labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"carrier labels not distinct: {labels}")
    n = len(labels)
    if len(table) != n or {*map(len, table)} - {n}:
        raise DimensionMismatch(f"table is not {n}x{n}")
    if identity is not None and not 0 <= identity < n:
        raise DimensionMismatch(f"identity {identity} out of range for n={n}")
    full = (1 << n) - 1
    rows = []
    for row in table:
        # one C-level pass per row; the entry loop names the first bad mask
        if min(row) < 0 or max(row) > full:
            for m in row:
                if m < 0 or m & ~full:
                    raise DimensionMismatch(f"subset mask {m} out of range for n={n}")
        if type(row) is not tuple or not {*map(type, row)} <= _INT:
            row = tuple(map(operator.index, row))
        rows.append(row)
    tbl = tuple(rows)
    e = _detect_identity(tbl)
    if identity is not None and e != identity:
        raise IdentityAxiomViolated(
            f"element {labels[identity]!r} is not a two-sided scalar identity"
        )
    inv = inverse_scan(tbl, e)[0]
    if inv is not None and n <= 8:
        inv = _share_inverse(inv, inv)
    return Hypermagma(labels, tbl, e, inv)


@dataclass(frozen=True)
class Lanes:
    """Tables of one size n <= 8 packed for SIMD within a register (SWAR):
    one byte lane per table, byte b of entries[x][y] holding
    tables[b][x][y].  A big-int operation then acts on every table at
    once, and none of these carries across a lane: `(m >> t) & ones` is
    bit t of each lane at its bit 0, times 255 it spreads to the whole
    lane, and `nonzero` folds each lane into its bit 0."""

    n: int
    count: int
    ones: int  # bit 0 of every lane
    entries: tuple[tuple[int, ...], ...]

    def nonzero(self, m: int) -> int:
        """Bit 0 of each lane of m set where the lane is not 0.  A fold
        reaches at most 7 bits down, so no bit of the byte above lands on
        bit 0."""
        m |= m >> 1
        m |= m >> 2
        m |= m >> 4
        return m & self.ones

    def flags(self, m: int) -> bytes:
        """Each lane of m as one byte: its bit 0 when m has no other bits
        set."""
        return m.to_bytes(self.count, "little")


def pack_lanes(n: int, tables: Sequence[Sequence[Sequence[int]]]) -> Lanes:
    """`tables`, each n rows of n masks below 2**n, in byte lanes: one
    byte per table, so n <= 8.

    Every entry of every table is written once, as one byte; the lanes of
    an entry are then one strided slice.  Refuses n > 8, whose masks fit
    no byte."""
    if n > 8:
        raise DimensionMismatch(f"pack_lanes: masks on {n} > 8 elements fit no byte lane")
    count = len(tables)
    chain = itertools.chain.from_iterable
    data = bytes(chain(chain(tables)))
    entries = tuple(
        tuple(int.from_bytes(data[x * n + y :: n * n], "little") for y in range(n))
        for x in range(n)
    )
    return Lanes(n, count, int.from_bytes(b"\1" * count, "little"), entries)


def make_hypermagma(
    labels: Sequence[str],
    table: Sequence[Sequence[Iterable[str]]],
    identity: str | None = None,
) -> Hypermagma:
    """Constructor over label-level table entries (each entry a set of
    labels); `from_masks` checks the labels and the dimensions."""
    labels = tuple(str(l) for l in labels)
    pos = {l: i for i, l in enumerate(labels)}
    rows = []
    for row in table:
        out = []
        for entry in row:
            m = 0
            for l in entry:
                if l not in pos:
                    raise DimensionMismatch(f"unknown element {l!r} in table entry")
                m |= 1 << pos[l]
            out.append(m)
        rows.append(out)
    if identity is not None and identity not in pos:
        raise DimensionMismatch(f"unknown element {identity!r} given as the identity")
    e = pos[identity] if identity is not None else None
    return from_masks(labels, rows, e)


def product_of_subsets(M: Hypermagma, X: int, Y: int) -> int:
    """X * Y = union of x * y over x in X, y in Y; empty factors give empty."""
    out = 0
    ys = list(iter_bits(Y))
    for i in iter_bits(X):
        row = M.table[i]
        for j in ys:
            out |= row[j]
    return out


def side_products(M: Hypermagma, K: int) -> list[int]:
    """x*K | K*x for each element x of M."""
    ks = list(iter_bits(K))
    out = []
    for row in M.table:
        acc = 0
        for k in ks:
            acc |= row[k]
        out.append(acc)
    for k in ks:
        for x, m in enumerate(M.table[k]):
            out[x] |= m
    return out


def opposite(M: Hypermagma) -> Hypermagma:
    n = M.n
    rows = tuple(tuple(M.table[j][i] for j in range(n)) for i in range(n))
    return Hypermagma(M.labels, rows, M.identity, M.inverse)


def weak_sub(M: Hypermagma, L: int) -> Hypermagma:
    """Weak subhypermagma on the mask L with intersected products."""
    keep = list(iter_bits(L))
    reindex = {old: new for new, old in enumerate(keep)}
    labels = tuple(M.labels[i] for i in keep)
    rows = []
    for i in keep:
        rows.append([mask_of(reindex[z] for z in iter_bits(M.table[i][j] & L)) for j in keep])
    return from_masks(labels, rows)


def strict_sub_closure(M: Hypermagma, K: int) -> int:
    """Least subset containing the mask K closed under products (and
    identity and inverses, whenever M carries them).

    Semi-naive rounds: a product of two elements both found before the last
    round was taken in an earlier round, so each round takes only the
    products x*y and y*x with x added in the last round and y anywhere in K.
    K stays closed under the inverse, an involution, so the inverse of an
    element outside K is outside K too."""
    if M.identity is not None:
        K |= 1 << M.identity
    inverse, table = M.inverse, M.table
    if inverse is not None:
        K |= mask_of(inverse[i] for i in iter_bits(K))
    added = K
    while added:
        ks = list(iter_bits(K))
        grown = 0
        for x in iter_bits(added):
            row = table[x]
            for y in ks:
                grown |= row[y] | table[y][x]
        added = grown & ~K
        if inverse is not None and added:
            added = mask_of(inverse[i] for i in iter_bits(added)) | added
        K |= added
    return K


def _absorbed(M: Hypermagma, K: int) -> int:
    """The x outside K with (x*K | K*x) meeting K."""
    return mask_of(
        x for x, side in enumerate(side_products(M, K)) if side & K and not (K >> x) & 1
    )


def is_absorptive(M: Hypermagma, K: int) -> bool:
    return not _absorbed(M, K)


def absorptive_closure(M: Hypermagma, S: int) -> int:
    """Least set containing the mask S that is both a strict sub and absorptive."""
    K = strict_sub_closure(M, S)
    while True:
        added = _absorbed(M, K)
        if not added:
            return K
        K = strict_sub_closure(M, K | added)


@dataclass(frozen=True)
class Morphism:
    """A function between carriers, stored as an index array."""

    dom: Hypermagma
    cod: Hypermagma
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.map
        if len(m) != self.dom.n:
            raise DimensionMismatch("map length does not match the domain carrier")
        if m and (min(m) < 0 or max(m) >= self.cod.n):
            raise DimensionMismatch("map image index out of range")

    def __call__(self, i: int) -> int:
        return self.map[i]

    def preimage_mask(self, mask: int) -> int:
        return mask_of(i for i, v in enumerate(self.map) if (mask >> v) & 1)

    def image(self) -> int:
        return mask_of(self.map)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{a}->{self.cod.labels[v]}" for a, v in zip(self.dom.labels, self.map)
        )
        return f"Morphism({pairs})"


def identity_morphism(M: Hypermagma) -> Morphism:
    return Morphism(M, M, tuple(range(M.n)))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.cod != g.dom:
        raise DimensionMismatch("composition mismatch: cod(f) != dom(g)")
    return Morphism(f.dom, g.cod, tuple(g.map[v] for v in f.map))


def _signature(M: Hypermagma, x: int) -> tuple:
    row = tuple(sorted(M.table[x][y].bit_count() for y in range(M.n)))
    col = tuple(sorted(M.table[y][x].bit_count() for y in range(M.n)))
    return (
        M.identity == x,
        (M.table[x][x] >> x) & 1,
        M.table[x][x].bit_count(),
        row,
        col,
    )


def find_isomorphism(M: Hypermagma, N: Hypermagma) -> Morphism | None:
    """First strict bijective match in lexicographic backtracking order."""
    n = M.n
    if n != N.n:
        return None
    if (M.identity is None) != (N.identity is None):
        return None
    sigM = [_signature(M, x) for x in range(n)]
    sigN = [_signature(N, x) for x in range(n)]
    if sorted(sigM) != sorted(sigN):
        return None
    assigned = [-1] * n
    used = [False] * n

    def consistent(k: int) -> bool:
        fk = assigned[k]
        for i in range(k + 1):
            for (a, b) in ((i, k), (k, i)):
                src = M.table[a][b]
                tgt = N.table[assigned[a]][assigned[b]]
                if src.bit_count() != tgt.bit_count():
                    return False
                for z in iter_bits(src):
                    if z <= k and not (tgt >> assigned[z]) & 1:
                        return False
        # the newly assigned element may appear inside earlier products
        for i in range(k):
            for j in range(k):
                if (M.table[i][j] >> k) & 1:
                    if not (N.table[assigned[i]][assigned[j]] >> fk) & 1:
                        return False
        return True

    def rec(k: int) -> bool:
        if k == n:
            return True
        for cand in range(n):
            if used[cand] or sigM[k] != sigN[cand]:
                continue
            if M.identity == k and N.identity != cand:
                continue
            assigned[k] = cand
            used[cand] = True
            if consistent(k) and rec(k + 1):
                return True
            used[cand] = False
            assigned[k] = -1
        return False

    if rec(0):
        return Morphism(M, N, tuple(assigned))
    return None


def canonical_form(table: Sequence[Sequence[int]], fixed: Iterable[int] = ()) -> tuple[int, ...]:
    """The least row-major relabelling of a mask table over the carrier
    permutations that fix every element of `fixed`.  Two tables share it
    exactly when such a permutation is an isomorphism between them.

    Each entry is split into its bits once.  A permutation's form is built
    entry by entry and dropped at the first entry above the least form so
    far (branch and bound on the lexicographic order)."""
    n = len(table)
    fixed = set(fixed)  # an iterator would be used up by the first test
    moved = [x for x in range(n) if x not in fixed]
    split = bit_splitter(n)
    bits = [[split(m) for m in row] for row in table]
    best = None
    for p in itertools.permutations(moved):
        old_of = list(range(n))  # new position -> old element
        weight = [1 << x for x in range(n)]  # old element -> its new bit
        for new, old in zip(moved, p):
            old_of[new] = old
            weight[old] = 1 << new
        form = _relabelled_below(bits, old_of, weight, best)
        if form is not None:
            best = form
    return best


def _relabelled_below(bits, old_of, weight, bound) -> tuple[int, ...] | None:
    """The row-major relabelled table when it is below `bound` (or `bound`
    is None), else None, returned at the first entry that exceeds it."""
    form: list[int] = []
    tied = bound is not None
    for a in old_of:
        row = bits[a]
        for b in old_of:
            v = 0
            for z in row[b]:
                v |= weight[z]
            if tied and v != bound[len(form)]:
                if v > bound[len(form)]:
                    return None
                tied = False
            form.append(v)
    return None if tied else tuple(form)


def permute(M: Hypermagma, perm: Sequence[int]) -> Hypermagma:
    """Transport the structure along a carrier permutation (new[perm[i]] = old[i])."""
    n = M.n
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    labels = tuple(M.labels[inv[i]] for i in range(n))
    rows = []
    for i in range(n):
        rows.append(
            [mask_of(perm[z] for z in iter_bits(M.table[inv[i]][inv[j]])) for j in range(n)]
        )
    return from_masks(labels, rows)


def fresh_label(base: str, used: Iterable[str]) -> str:
    used = set(used)
    lbl = base
    while lbl in used:
        lbl += "'"
    return lbl


def distinct_labels(labels: Iterable[str]) -> list[str]:
    """The labels in order, each one already used before it primed by
    `fresh_label`.  Composite labels (pairs joined with "|", maps written
    "(a,b)") can coincide when the factor labels contain the separator;
    labels that are already distinct come back unchanged."""
    out: list[str] = []
    seen: set[str] = set()
    for lbl in labels:
        if lbl in seen:
            lbl = fresh_label(lbl, seen)
        seen.add(lbl)
        out.append(lbl)
    return out


def orbit_partition(n: int, orbit: Callable[[int], int]) -> tuple[int, ...]:
    """Projection of range(n) onto the blocks orbit(a) (masks that partition
    the carrier), blocks numbered by their least member."""
    proj = [-1] * n
    k = 0
    for a in range(n):
        if proj[a] < 0:
            for x in iter_bits(orbit(a)):
                proj[x] = k
            k += 1
    return tuple(proj)


class UnionFind:
    """Disjoint classes of range(n), merged by `union`."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def proj(self) -> tuple[int, ...]:
        """Class of each element, classes numbered by their least member.

        A root is the least member of its class, so classes first appear in
        the order of their least members."""
        cls: dict[int, int] = {}
        return tuple(cls.setdefault(self.find(x), len(cls)) for x in range(len(self.parent)))


def reversible_closure(
    seeds: Iterable[tuple[int, int, int]], inverse: Sequence[int]
) -> set[tuple[int, int, int]]:
    """The triples (x, y, z), each read as z in x*y, that the two
    reversibility moves reach from the seeds: z in x*y gives x in z*y^-1
    and y in x^-1*z, with y^-1 = inverse[y].  Both moves are involutions,
    and swapping x and y turns one into the other, so the closure of a set
    holding each seed's mirror (y, x, z) is commutative."""
    out: set[tuple[int, int, int]] = set()
    stack = list(seeds)
    while stack:
        t = stack.pop()
        if t not in out:
            out.add(t)
            x, y, z = t
            stack += ((z, inverse[y], x), (inverse[x], z, y))
    return out


def _discrete(proj: Sequence[int], k: int, n: int) -> bool:
    """Whether proj, onto range(k), puts every element of range(n) in a
    class of its own (numbered by its least member: proj[x] = x)."""
    return k == n and all(c == x for x, c in enumerate(proj))


def pushed_table(M: Hypermagma, proj: Sequence[int], k: int) -> tuple[tuple[int, ...], ...]:
    """The k x k table whose entry [i][j] is proj(fiber_i * fiber_j), where
    fiber_c is the set of x with proj[x] = c; a class without members has
    empty products.

    Each class's rows are ORed once, column by column into the column's
    class, and each product is then mapped through proj: bit by bit from
    `BITS` when M has at most 8 elements, else through proj's image tables,
    whose set-up pays for itself only on larger carriers.  Empty products
    are skipped.  When every element is its own class, the table is M's."""
    if _discrete(proj, k, M.n):
        return M.table
    prods = [[0] * k for _ in range(k)]
    for x, row in zip(proj, M.table):
        acc = prods[x]
        for y, m in zip(proj, row):
            if m:
                acc[y] |= m
    bit = [1 << c for c in proj]
    if M.n > 8:
        push = image_function(bit)
        return tuple(tuple(map(push, row)) for row in prods)
    out = []
    for row in prods:
        pushed = []
        for m in row:
            img = 0
            for z in BITS[m]:
                img |= bit[z]
            pushed.append(img)
        out.append(tuple(pushed))
    return tuple(out)


def quotient(M: Hypermagma, proj: Sequence[int], unit: int | None = None) -> Morphism:
    """The projection M -> M/proj with x * y = proj(fiber(x) * fiber(y)).

    Classes must be numbered by their least member; each class takes that
    member's label.  When `unit` is given, its row and column are the scalar
    identity (never the pushed products) and its label is a fresh "e".
    When every class is one element and that leaves M's identity and labels
    as they are, the quotient is M itself.
    """
    k = max(proj, default=-1) + 1
    labels = [""] * k
    for x in reversed(range(M.n)):
        labels[proj[x]] = M.labels[x]
    if unit is not None:
        labels[unit] = fresh_label("e", labels[:unit] + labels[unit + 1 :])
    if (
        _discrete(proj, k, M.n)
        and (unit is None or unit == M.identity)
        and tuple(labels) == M.labels
    ):
        return Morphism(M, M, tuple(proj))
    rows = [list(row) for row in pushed_table(M, proj, k)]
    if unit is not None:
        for i in range(k):
            rows[unit][i] = rows[i][unit] = 1 << i
    return Morphism(M, from_masks(labels, rows), tuple(proj))


def terminal() -> Hypermagma:
    return from_masks(("e",), ((1,),))


def initial() -> Hypermagma:
    return from_masks((), ())
