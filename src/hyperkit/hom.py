"""Morphism kind checks and exhaustive hom-set enumeration, one hom-set at
a time or, for the tables of a census block, in byte lanes."""
from __future__ import annotations

import itertools
from typing import Collection, Hashable, Iterable

from .axioms import Tag, UNITAL_TAGS
from .core import (
    BITS,
    Hypermagma,
    Lanes,
    Morphism,
    image_function,
    is_absorptive,
    iter_bits,
    mask_of,
    pushed_table,
)
from .errors import CodomainNotUnital, NotUnital, ensure
from .search import Budget, memo


# The kind checks compare f(x*y), the image of each product, with
# f(x)*f(y).  The bits of a product are read from BITS when it is below 256,
# as every product on a domain of at most 8 elements is, and with `iter_bits`
# above; `is_colax` reads the preimages of the codomain's entries on a larger
# domain instead.


def is_colax(f: Morphism) -> bool:
    """f(x*y) is a subset of f(x)*f(y) for all x, y.

    The identity map of a table is colax without a scan.  On a domain of
    more than 8 elements, x*y is tested against the preimage of f(x)*f(y),
    read from the tables of f's fibres over the codomain: one preimage per
    entry of a row of the codomain that f reaches."""
    fmap, table = f.map, f.cod.table
    n = len(fmap)
    if table == f.dom.table and fmap == tuple(range(n)):
        return True
    if n > 8:
        fibres = [0] * len(table)
        for x, v in enumerate(fmap):
            fibres[v] |= 1 << x
        pull = image_function(fibres)
        pulled = [None] * len(table)
        for row, fx in zip(f.dom.table, fmap):
            prow = pulled[fx]
            if prow is None:
                prow = pulled[fx] = [*map(pull, table[fx])]
            for m, fy in zip(row, fmap):
                if m & ~prow[fy]:
                    return False
        return True
    for row, fx in zip(f.dom.table, fmap):
        nrow = table[fx]
        for m, fy in zip(row, fmap):
            if m:
                t = nrow[fy]
                for z in BITS[m]:
                    if not t >> fmap[z] & 1:
                        return False
    return True


def _colax_lax(f: Morphism) -> tuple[bool, bool]:
    """(is_colax(f), is_lax(f)) in one pass, which stops once both fail."""
    fmap, table = f.map, f.cod.table
    bit = [1 << v for v in fmap]
    colax = lax = True
    for row, fx in zip(f.dom.table, fmap):
        nrow = table[fx]
        for m, fy in zip(row, fmap):
            img = 0
            for z in BITS[m] if m < 256 else iter_bits(m):
                img |= bit[z]
            t = nrow[fy]
            if img != t:
                colax = colax and not img & ~t
                lax = lax and not t & ~img
                if not (colax or lax):
                    return False, False
    return colax, lax


def is_lax(f: Morphism) -> bool:
    """f(x)*f(y) is a subset of f(x*y) for all x, y."""
    return _colax_lax(f)[1]


def is_strict(f: Morphism) -> bool:
    """f(x*y) = f(x)*f(y) for all x, y."""
    return all(_colax_lax(f))


def is_unital(f: Morphism) -> bool:
    return (
        f.dom.identity is not None
        and f.cod.identity is not None
        and f.map[f.dom.identity] == f.cod.identity
    )


def is_injective(f: Morphism) -> bool:
    return len(set(f.map)) == f.dom.n


def is_surjective(f: Morphism) -> bool:
    return set(f.map) == set(range(f.cod.n))


def bijection_failure(
    images: Iterable[Hashable], expected: Collection[Hashable]
) -> tuple[str, Hashable] | None:
    """None when `images` hits every element of `expected` (distinct
    elements) exactly once and nothing else; otherwise the first failure:
    ("repeated", the first image seen twice), else ("missing", the first
    element of `expected`, in its order, that no image hits), else ("extra",
    the first image outside `expected`).

    This is the one test behind every universal property checked by
    enumeration: composing with a fixed map is a bijection from a hom-set
    onto the set the property names."""
    hit = {}
    for image in images:
        if image in hit:
            return "repeated", image
        hit[image] = None
    for element in expected:
        if element not in hit:
            return "missing", element
    if len(hit) > len(expected):
        return "extra", next(image for image in hit if image not in expected)
    return None


def is_short(p: Morphism) -> bool:
    """Surjective with x*y = p(p^-1(x) * p^-1(y)); surjectivity is checked,
    never assumed."""
    if not is_surjective(p):
        return False
    return p.cod.table == pushed_table(p.dom, p.map, p.cod.n)


def is_coshort(i: Morphism) -> bool:
    """Injective with i^-1(i(x) * i(y)) = x * y."""
    if not is_injective(i):
        return False
    L, M = i.dom, i.cod
    for x in range(L.n):
        for y in range(L.n):
            if i.preimage_mask(M.table[i.map[x]][i.map[y]]) != L.table[x][y]:
                return False
    return True


def kernel(f: Morphism) -> int:
    """Preimage of the codomain identity; always an absorptive subset."""
    if f.cod.identity is None:
        raise CodomainNotUnital("kernel needs a unital codomain")
    K = f.preimage_mask(1 << f.cod.identity)
    ensure(is_absorptive(f.dom, K), "kernel: the preimage of the identity is not absorptive")
    return K


def morphism_in_tag(f: Morphism, tag: Tag) -> bool:
    if not is_colax(f):
        return False
    if tag in UNITAL_TAGS:
        return is_unital(f)
    return True


@memo
def colax_schedule(M: Hypermagma, pinned: int | None) -> tuple[tuple[list, list], ...]:
    """The triples z in a*b of M, filed under depth k = max(a, b, z), where a
    search fixing images in carrier order first has all three images.

    Depth k holds the pairs (a, b) with a, b < k (so z = k) and the triples
    (a, b, z) with a or b equal to k.  With `pinned` the index of M's
    identity, whose image `colax_maps` pins to an identity, the triples b in
    pinned*b and b in b*pinned always hold and are left out.  Built once per
    domain and pin, so the hom-sets and bimorphisms out of M share it.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(M.n)]
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(M.n)]
    for a, row in enumerate(M.table):
        for b, ab in enumerate(row):
            k = a if a > b else b
            for z in iter_bits(ab):
                if z > k:
                    pairs[z].append((a, b))
                elif not ((a == pinned and z == b) or (b == pinned and z == a)):
                    checks[k].append((a, b, z))
    return tuple(zip(pairs, checks))


def colax_maps(
    schedule: tuple[tuple[list, list], ...],
    m: int,
    table,
    budget: Budget,
    unit: tuple[int, int] | None = None,
    inverses: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> list[tuple[int, ...]]:
    """Every map f from the carrier of `schedule` (`colax_schedule`) to
    range(m) with f(z) in table[f(a)][f(b)] for each of its triples z in
    a*b, in lexicographic order.  `table[u][w]` is a mask over range(m).

    Depth-first over images in carrier order, with forward checking: the
    triples with a, b < k (so z = k) become a candidate mask for f(k), the
    AND of table[f(a)][f(b)]; the others, where a or b is k, are checked for
    each candidate the mask admits.  `unit` = (k, v) pins f(k) = v, where v
    is a two-sided identity of `table` (table[v][w] and table[w][v] hold
    w), so the triples b in k*b and b in b*k hold: the schedule must be
    `colax_schedule(M, k)`, which leaves them out.  With
    `inverses` = (inv, inv_m), f(k) is inv_m of f(inv[k]) when inv[k] < k
    and a fixed point of inv_m when inv[k] = k.  A node is one candidate
    image, whether or not the mask admits it: each depth reached is charged
    m nodes (1 at a pinned depth), and only the admitted candidates are
    walked.
    """
    n = len(schedule)
    every = (1 << m) - 1
    pinned, pin = unit if unit is not None else (-1, 0)
    if inverses is not None:
        inv, inv_m = inverses
        fixed = mask_of(y for y in range(m) if inv_m[y] == y)
    out: list[tuple[int, ...]] = []
    f = [0] * n

    def rec(k: int) -> None:
        if k == n:
            out.append(tuple(f))
            return
        allowed = every
        if inverses is not None:
            xinv = inv[k]
            if xinv < k:
                allowed = 1 << inv_m[f[xinv]]
            elif xinv == k:
                allowed = fixed
        pairs, checks = schedule[k]
        for a, b in pairs:
            allowed &= table[f[a]][f[b]]
        if k == pinned:
            budget.spend()
            allowed &= 1 << pin
        else:
            budget.spend(m)
        for v in iter_bits(allowed):
            f[k] = v
            for a, b, z in checks:
                if not (table[f[a]][f[b]] >> f[z]) & 1:
                    break
            else:
                rec(k + 1)

    rec(0)
    return out


def lane_morphisms(
    lanes: Lanes, inverse: tuple[int, ...], N: Hypermagma, budget: Budget
) -> list[tuple[tuple[int, ...], ...]]:
    """The maps of Hom(G, N) in cMsc for every table G of `lanes` at once,
    one tuple per lane in lexicographic order, for tables with identity 0
    and inverse map `inverse` (every table of a census block) and N a
    unital mosaic: what `enumerate_morphisms(G, N, Tag.CMSC)` lists.  Lanes
    with the same hom-set share one tuple.

    The candidates are the maps `enumerate_morphisms` tries past its unit
    pin and inverse mask: f(0) = e_N, f(-x) = -f(x), and f(x) self-inverse
    when x = -x, in lexicographic order.  The triples of 0*y and x*0 hold
    for each, so f is a morphism in lane b iff, for every pair of nonzero x
    and y, that lane of x*y lies inside pre, the preimage under f of
    f(x)*f(y): `E[x][y] & ~(pre * ones)`, ORed over the pairs, folds to 0
    there under `Lanes.nonzero`.  `budget` is charged one node per
    candidate and table, the number of candidates times `lanes.count`.
    """
    n, E, ones = lanes.n, lanes.entries, lanes.ones
    table, e, inv = N.table, N.identity, N.inverse
    ensure(
        inv is not None and e is not None and len(inverse) == n and inverse[0] == 0,
        f"lane_morphisms: needs a unital mosaic N and an inverse map fixing 0 on {n} elements",
    )
    full = (1 << n) - 1
    outside = [(full ^ pre) * ones for pre in range(1 << n)]  # in every lane
    pairs = [(x, y, E[x][y]) for x in range(1, n) for y in range(1, n)]
    free = [x for x in range(1, n) if inverse[x] >= x]
    self_inverse = [y for y in range(len(table)) if inv[y] == y]
    choices = [self_inverse if inverse[x] == x else range(len(table)) for x in free]
    maps, passed = [], []
    for choice in itertools.product(*choices):
        budget.spend(lanes.count)
        f = [e] * n
        for x, v in zip(free, choice):
            f[x] = v
            f[inverse[x]] = inv[v]
        fibres = [0] * len(table)
        for x, v in enumerate(f):
            fibres[v] |= 1 << x
        pull = image_function(fibres)
        bad = 0
        for x, y, m in pairs:
            bad |= m & outside[pull(table[f[x]][f[y]])]
        maps.append(tuple(f))
        passed.append(ones ^ lanes.nonzero(bad))
    # per lane, one byte per candidate: 1 where it passes there
    homs: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    return [
        homs.get(v) or homs.setdefault(v, tuple(itertools.compress(maps, v)))
        for v in zip(*map(lanes.flags, passed))
    ]


@memo
def enumerate_morphisms(M: Hypermagma, N: Hypermagma, tag: Tag) -> list[tuple[int, ...]]:
    """The maps of all tag-morphisms M -> N, in lexicographic order: the
    colax maps of `colax_maps`, with the unit pinned in the unital tags.
    Wrap one in `Morphism(M, N, f)` to hand it to a function on morphisms.

    Mosaic tags also mask by inverse preservation, which unital morphisms of
    mosaics satisfy automatically.  Each depth reached is charged |N| nodes
    (1 at the unit of a unital tag).
    """
    unital_tag = tag in UNITAL_TAGS
    if unital_tag and (M.identity is None or N.identity is None):
        raise NotUnital(f"tag {tag.value} needs unital objects")
    budget = Budget(f"enumerate_morphisms(|M|={M.n}, |N|={N.n}, {tag.value})")
    use_inverse_prune = (
        tag in (Tag.MSC, Tag.CMSC, Tag.HGRP, Tag.CAN)
        and M.inverse is not None
        and N.inverse is not None
    )
    return colax_maps(
        colax_schedule(M, M.identity if unital_tag else None),
        N.n,
        N.table,
        budget,
        (M.identity, N.identity) if unital_tag else None,
        (M.inverse, N.inverse) if use_inverse_prune else None,
    )


def inclusion_morphism(L: Hypermagma, M: Hypermagma) -> Morphism:
    """Inclusion matched by labels (for weak subs and equalizer objects)."""
    return Morphism(L, M, tuple(M.index(l) for l in L.labels))


def constant_morphism(M: Hypermagma, N: Hypermagma, target: int) -> Morphism:
    return Morphism(M, N, tuple(target for _ in range(M.n)))


def triples(M: Hypermagma) -> list[tuple[int, int, int]]:
    """All (x, y, z) with z in x*y; the set Hom(E_C, M) is in bijection with."""
    return [
        (x, y, z)
        for x in range(M.n)
        for y in range(M.n)
        for z in iter_bits(M.table[x][y])
    ]
