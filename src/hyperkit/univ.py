"""Free and cofree objects, the representing objects E_C and their lifting
criteria for strict/short/reversible, (co)limits, unitization, and the
regular-image machinery, together with enumeration-based
universal-property verifiers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .axioms import Tag, analyze
from .core import (
    Hypermagma,
    Morphism,
    UnionFind,
    absorptive_closure,
    compose,
    distinct_labels,
    fresh_label,
    from_masks,
    is_absorptive,
    iter_bits,
    mask_of,
    quotient,
    reversible_closure,
    side_products,
    terminal,
    weak_sub,
)
from .errors import (
    DimensionMismatch,
    NoCommonCodomain,
    NotParallel,
    NotUnital,
    UnsupportedCategory,
    ensure,
)
from .hom import (
    bijection_failure,
    enumerate_morphisms,
    is_colax,
    is_injective,
    is_strict,
    is_surjective,
    is_unital,
    kernel,
    morphism_in_tag,
    triples,
)
from .search import memo


@dataclass(frozen=True)
class Cone:
    """An apex with its legs: out of the apex for a limit, into it for a
    colimit."""

    apex: Hypermagma
    legs: tuple[Morphism, ...]


def presented(
    labels: Sequence[str],
    relations: Iterable[tuple[int, int, int]] = (),
    unit: int | None = None,
    inverse: Sequence[int] | None = None,
) -> Hypermagma:
    """The least table on `labels` in which every relation (x, y, z), a
    triple of carrier indices, holds as z in x*y and `unit`, when given, is
    a scalar identity.  With `inverse`, the triples are closed under
    `reversible_closure`, so the unit lies in x*inverse[x]; a relation given
    with its mirror (y, x, z) then presents a commutative object.  A relation
    that breaks the unit raises `IdentityAxiomViolated`."""
    n = len(labels)
    seeds = list(relations)
    if unit is not None:
        seeds += [(unit, x, x) for x in range(n)] + [(x, unit, x) for x in range(n)]
    if inverse is not None:
        seeds = reversible_closure(seeds, inverse)
    rows = [[0] * n for _ in range(n)]
    for x, y, z in seeds:
        rows[x][y] |= 1 << z
    return from_masks(labels, rows, unit)


def free(tag: Tag, generators: Sequence[str], point: str | None = None) -> Hypermagma:
    """Free object on the given generators.

    HMag: empty products.  uHMag: a unit is adjoined (or `point` names the
    basepoint among the generators) and all other products are empty.
    Msc/cMsc: carrier 0, X, -X with x + (-x) = 0 and every other sum empty.
    An adjoined e, 0 or -x is primed by `fresh_label` past the generators
    and the labels before it, so every generator keeps its label.  Inside
    a `search.scope()` block each object is built once and shared by the
    calls after.
    """
    return _free(tag, tuple(str(g) for g in generators), point)


@memo
def _free(tag: Tag, generators: tuple[str, ...], point: str | None) -> Hypermagma:
    generators = list(generators)
    if tag is Tag.HMAG:
        return presented(generators)
    if tag is Tag.UHMAG:
        if point is not None:
            return presented(generators, unit=generators.index(point))
        return presented([fresh_label("e", generators)] + generators, unit=0)
    if tag in (Tag.MSC, Tag.CMSC):
        k = len(generators)
        labels = [fresh_label("0", generators)] + generators
        for g in generators:
            labels.append(fresh_label("-" + g, labels))
        inverse = [0, *range(k + 1, 2 * k + 1), *range(1, k + 1)]
        return presented(labels, unit=0, inverse=inverse)
    raise UnsupportedCategory(f"no free objects built for tag {tag.value}")


def cofree(generators: Sequence[str]) -> Hypermagma:
    """Full-table hypermagma; right adjoint to the forgetful functor."""
    labels = [str(g) for g in generators]
    n = len(labels)
    full = (1 << n) - 1
    return from_masks(labels, [[full] * n for _ in range(n)])


def one_empty() -> Hypermagma:
    """The free hypermagma on one element 1 with 1*1 empty."""
    return free(Tag.HMAG, ("1",))


# ---------------------------------------------------------------------------
# Representing objects


@dataclass(frozen=True)
class RepresentingObject:
    tag: Tag
    obj: Hypermagma
    a: int
    b: int
    c: int
    free_pair: Hypermagma
    iota: Morphism


# Each E_C is presented by its labels, unit and inverse and the one relation
# c in a*b (with its mirror b*a for cMsc, which makes E_cMsc commutative).
_PRESENTATIONS = {
    Tag.HMAG: (("a", "b", "c"), None, None),
    Tag.UHMAG: (("e", "a", "b", "c"), 0, None),
    Tag.MSC: (("e", "a", "a'", "b", "b'", "c", "c'"), 0, (0, 2, 1, 4, 3, 6, 5)),
    Tag.CMSC: (("0", "a", "-a", "b", "-b", "c", "-c"), 0, (0, 2, 1, 4, 3, 6, 5)),
}


@memo
def representing_object(tag: Tag) -> RepresentingObject:
    """E_C, the free C-object on one relation c in a*b: Hom(E_C, M) is in
    bijection with `triples(M)`."""
    if tag not in _PRESENTATIONS:
        raise UnsupportedCategory(f"no representing object for tag {tag.value}")
    labels, unit, inverse = _PRESENTATIONS[tag]
    a, b, c = (labels.index(x) for x in ("a", "b", "c"))
    relations = [(a, b, c), (b, a, c)] if tag is Tag.CMSC else [(a, b, c)]
    E = presented(labels, relations, unit, inverse)
    if tag in (Tag.MSC, Tag.CMSC):
        ensure(analyze(E).is_mosaic, "representing_object: E is not a mosaic")
    F2 = free(tag, ("a", "b"))
    # the free pair shares E's labels, except that Msc writes 0, -a, -b as e, a', b'
    rename = {"0": "e", "-a": "a'", "-b": "b'"} if tag is Tag.MSC else {}
    iota = Morphism(F2, E, tuple(E.index(rename.get(l, l)) for l in F2.labels))
    ensure(
        morphism_in_tag(iota, tag) and is_injective(iota),
        "representing_object: iota is not an injective morphism",
    )
    ensure((E.table[a][b] >> c) & 1, "representing_object: c is not in a*b")
    return RepresentingObject(tag, E, a, b, c, F2, iota)


def is_strict_via_lifting(f: Morphism, tag: Tag) -> bool:
    """Diagonal-lifting criterion against iota: F2 -> E_C.

    Every square (alpha, beta) with f . alpha = beta . iota needs a filler g
    with g . iota = alpha and f . g = beta.  The betas are indexed by the map
    of beta . iota and the fillable squares form one set of map pairs
    (g . iota, f . g), so each square costs one lookup and one set test.
    """
    ro = representing_object(tag)
    iota, fmap = ro.iota.map, f.map
    betas: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for beta in enumerate_morphisms(ro.obj, f.cod, tag):
        betas.setdefault(tuple(beta[v] for v in iota), []).append(beta)
    filled = {
        (tuple(g[v] for v in iota), tuple(fmap[v] for v in g))
        for g in enumerate_morphisms(ro.obj, f.dom, tag)
    }
    for alpha in enumerate_morphisms(ro.free_pair, f.dom, tag):
        for beta in betas.get(tuple(fmap[v] for v in alpha), ()):
            if (alpha, beta) not in filled:
                return False
    return True


def is_short_via_lifting(p: Morphism, tag: Tag) -> bool:
    """Surjectivity of post-composition on Hom(E_C, -); for the non-unital
    tag this is conjoined with surjectivity of p itself."""
    ro = representing_object(tag)
    if tag is Tag.HMAG and not is_surjective(p):
        return False
    pmap = p.map
    pushed = {tuple(pmap[v] for v in g) for g in enumerate_morphisms(ro.obj, p.dom, tag)}
    return all(h in pushed for h in enumerate_morphisms(ro.obj, p.cod, tag))


def is_reversible_via_lifting(M: Hypermagma) -> bool:
    """Bijectivity of restriction along iota: E_uHMag -> E_Msc on Hom(-, M)."""
    if M.identity is None:
        raise NotUnital("reversibility criterion needs a unital object")
    Eu = representing_object(Tag.UHMAG).obj
    Er = representing_object(Tag.MSC).obj
    iota = Morphism(Eu, Er, tuple(Er.index(l) for l in ("e", "a", "b", "c")))
    ensure(is_colax(iota) and is_unital(iota), "is_reversible_via_lifting: iota is not a unital morphism")
    restricted = (
        tuple(g[v] for v in iota.map) for g in enumerate_morphisms(Er, M, Tag.UHMAG)
    )
    return bijection_failure(restricted, enumerate_morphisms(Eu, M, Tag.UHMAG)) is None


# ---------------------------------------------------------------------------
# (Co)limits, unitization and regular images


def product(Ms: Sequence[Hypermagma]) -> Cone:
    if not Ms:
        T = terminal()
        return Cone(T, ())
    tuples = list(itertools.product(*(range(M.n) for M in Ms)))
    labels = distinct_labels("|".join(M.labels[c] for M, c in zip(Ms, t)) for t in tuples)
    # Element t is its tuple's index, its digits in the mixed radix of the
    # sizes, and entry (a, b) is every tuple of picks from the components'
    # products.  The table is built from the last component to the first: a
    # component in front of suffixes of `size` elements spreads each of its
    # masks, bit z to bit z * size, and multiplies it into the suffix
    # entries, whose bits lie below `size`; the product ORs each suffix
    # entry shifted by every z * size.
    rows, size = [[1]], 1
    for M in reversed(Ms):
        spread = [[sum(1 << z * size for z in iter_bits(m)) for m in r] for r in M.table]
        rows = [[p * q for p in srow for q in trow] for srow in spread for trow in rows]
        size *= M.n
    P = from_masks(labels, rows)
    projections = tuple(
        Morphism(P, M, tuple(t[k] for t in tuples)) for k, M in enumerate(Ms)
    )
    return Cone(P, projections)


def coproduct(Ms: Sequence[Hypermagma], tag: Tag) -> Cone:
    """Disjoint union (HMag) or wedge at a shared unit e (the unital tags),
    presented by every summand's triples pushed through its leg; the legs
    point into the apex.  Element x of summand i is labelled x@i; i follows
    the last @, so no two collide."""
    if tag in (Tag.HGRP, Tag.CAN):
        raise UnsupportedCategory(
            "binary coproducts can fail to exist for hypergroups; use a mosaic tag"
        )
    if tag not in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
        raise UnsupportedCategory(str(tag))
    unit = None if tag is Tag.HMAG else 0
    if unit is not None and any(M.identity is None for M in Ms):
        raise NotUnital("wedge coproduct needs unital summands")
    labels = [] if unit is None else ["e"]
    slot: list[list[int]] = []
    for i, M in enumerate(Ms):
        leg = []
        for x, l in enumerate(M.labels):
            if unit is not None and x == M.identity:
                leg.append(unit)
            else:
                leg.append(len(labels))
                labels.append(f"{l}@{i}")
        slot.append(leg)
    relations = (
        (leg[x], leg[y], leg[z]) for M, leg in zip(Ms, slot) for x, y, z in triples(M)
    )
    C = presented(labels, relations, unit)
    return Cone(C, tuple(Morphism(M, C, tuple(leg)) for M, leg in zip(Ms, slot)))


def equalizer(
    f: Morphism, g: Morphism, tag: Tag | None = None
) -> tuple[Hypermagma, Morphism]:
    """Weak sub on the set equalizer; the inclusion is coshort.

    Refused for the hypergroup tags, where equalizers can fail to exist."""
    if tag in (Tag.HGRP, Tag.CAN):
        raise UnsupportedCategory(
            "equalizers can fail to exist for hypergroups; use a mosaic tag"
        )
    if f.dom != g.dom or f.cod != g.cod:
        raise NotParallel("equalizer needs a parallel pair")
    M = f.dom
    E = mask_of(x for x in range(M.n) if f.map[x] == g.map[x])
    sub = weak_sub(M, E)
    return sub, Morphism(sub, M, tuple(iter_bits(E)))


def unitize(M: Hypermagma, E: int) -> Morphism:
    """Universal unital quotient collapsing E to the unit.

    E empty freely adjoins a unit: the map is the inclusion of M, injective
    and not onto the new unit.  Otherwise the map is onto, its kernel is the
    absorptive strict closure K of E, classes are the components of the chain
    relation y in x*K or K*x (K one block), and products with the unit class
    are forced to be scalar.  E = {e} for M's scalar identity e is that
    closure already and merges no classes, so the map is the identity
    quotient with e relabelled, taken without the closure.
    """
    if E == 0:
        labels = M.labels + (fresh_label("e", M.labels),)
        Me = presented(labels, triples(M), unit=M.n)
        return Morphism(M, Me, tuple(range(M.n)))

    if M.identity is not None and E == 1 << M.identity:
        # {e} is closed and absorptive and e*x = x*e = {x}: no classes merge
        proj, unit = tuple(range(M.n)), M.identity
    else:
        K = absorptive_closure(M, E)
        uf = UnionFind(M.n)
        kbits = list(iter_bits(K))
        for other in kbits[1:]:
            uf.union(kbits[0], other)
        for x, reach in enumerate(side_products(M, K)):
            for y in iter_bits(reach):
                uf.union(x, y)
        proj = uf.proj()
        unit = proj[kbits[0]]
    return _unital_quotient(M, proj, unit)


def _unital_quotient(M: Hypermagma, proj: tuple[int, ...], unit: int) -> Morphism:
    """`quotient(M, proj, unit=unit)`, checked: the unit class is the
    identity, and the map, whose unit row and column are forced rather than
    pushed, is colax."""
    pi = quotient(M, proj, unit=unit)
    ensure(pi.cod.identity == unit, "unitize: the unit class is not an identity")
    ensure(is_colax(pi), "unitize: the quotient map is not colax")
    return pi


def identified(f: Morphism, g: Morphism) -> tuple[int, ...]:
    """The partition of the common codomain that f(x) ~ g(x) generates, as
    `UnionFind.proj`.  The coequalizer of f and g depends on the pair only
    through it and the codomain."""
    uf = UnionFind(f.cod.n)
    for a, b in zip(f.map, g.map):
        uf.union(a, b)
    return uf.proj()


def coequalizer(f: Morphism, g: Morphism, tag: Tag) -> Morphism:
    """Set-coequalizer quotient by `identified(f, g)`; unital tags unitize
    at the unit class.  When that class is {e} alone, as in every
    `boxtimes`, the unitization is the quotient with e's row and column
    forced, built in one step."""
    if f.dom != g.dom or f.cod != g.cod:
        raise NotParallel("coequalizer needs a parallel pair")
    if tag in (Tag.HGRP, Tag.CAN):
        tag = Tag.UHMAG
    N, proj = f.cod, identified(f, g)
    if tag is Tag.HMAG:
        return quotient(N, proj)
    if N.identity is None:
        raise NotUnital("unital coequalizer needs a unital codomain")
    unit = proj[N.identity]
    if proj.count(unit) == 1:
        # e's class is {e}, which N/proj keeps as its identity: unitize
        # would take its E = {e} path and rebuild this quotient
        return _unital_quotient(N, proj, unit)
    piL = quotient(N, proj)
    return compose(unitize(piL.cod, 1 << unit), piL)


def pullback(f: Morphism, g: Morphism) -> Cone:
    """The equalizer of f.p1 and g.p2 on the product of the domains, with
    legs p1.inc and p2.inc."""
    if f.cod != g.cod:
        raise NoCommonCodomain("pullback needs a common codomain")
    p1, p2 = product([f.dom, g.dom]).legs
    P, inc = equalizer(compose(f, p1), compose(g, p2))
    return Cone(P, (compose(p1, inc), compose(p2, inc)))


def regular_image_factorization(f: Morphism, tag: Tag) -> tuple[Morphism, Morphism]:
    """Coequalizer of the kernel pair followed by the induced injection."""
    kp = pullback(f, f)
    q = coequalizer(kp.legs[0], kp.legs[1], tag)
    Q = q.cod
    image_map = [0] * Q.n
    for x in range(f.dom.n):
        image_map[q.map[x]] = f.map[x]
    m = Morphism(Q, f.cod, tuple(image_map))
    ensure(compose(m, q) == f, "regular_image_factorization: m after q is not f")
    ensure(
        is_colax(m) and is_injective(m),
        "regular_image_factorization: the induced map is not a colax injection",
    )
    return q, m


def is_normal_mono(i: Morphism) -> bool:
    """Injective strict unital morphism onto an absorptive image."""
    return (
        is_injective(i)
        and is_unital(i)
        and is_strict(i)
        and is_absorptive(i.cod, i.image())
    )


def is_normal_epi(p: Morphism) -> bool:
    """True when p is isomorphic over its domain to unitize(M, ker p)."""
    if not is_surjective(p) or p.cod.identity is None:
        return False
    # p is onto, so ker p is nonempty and q is onto as well.
    q = unitize(p.dom, kernel(p))
    if q.cod.n != p.cod.n:
        return False
    phi = [0] * q.cod.n
    for x in range(p.dom.n):
        phi[q.map[x]] = p.map[x]
    if tuple(p.map) != tuple(phi[q.map[x]] for x in range(p.dom.n)):
        return False
    # phi after q is p, which is onto, and |q.cod| = |p.cod|: phi is a bijection
    cand = Morphism(q.cod, p.cod, tuple(phi))
    inv = [0] * p.cod.n
    for x, v in enumerate(cand.map):
        inv[v] = x
    return is_strict(cand) and is_strict(Morphism(p.cod, q.cod, tuple(inv)))


# ---------------------------------------------------------------------------
# Universal-property verification by enumeration
#
# Each check composes the maps of the hom-sets with the given morphisms'
# maps, so it first checks once that they compose, as `compose` does.


def check_product_universal(cone: Cone, tag: Tag, battery: Sequence[Hypermagma]) -> bool:
    """Whether the cone is a product of the codomains of its legs."""
    if any(p.dom != cone.apex for p in cone.legs):
        raise DimensionMismatch("composition mismatch: a leg does not start at the apex")
    for T in battery:
        legsets = [enumerate_morphisms(T, p.cod, tag) for p in cone.legs]
        mediated = (
            tuple(tuple(p.map[v] for v in m) for p in cone.legs)
            for m in enumerate_morphisms(T, cone.apex, tag)
        )
        if bijection_failure(mediated, list(itertools.product(*legsets))) is not None:
            return False
    return True


def check_coproduct_universal(cocone: Cone, tag: Tag, battery: Sequence[Hypermagma]) -> bool:
    """Whether the cocone is a coproduct of the domains of its legs."""
    if any(inj.cod != cocone.apex for inj in cocone.legs):
        raise DimensionMismatch("composition mismatch: a leg does not end at the apex")
    for T in battery:
        legsets = [enumerate_morphisms(inj.dom, T, tag) for inj in cocone.legs]
        mediated = (
            tuple(tuple(m[v] for v in inj.map) for inj in cocone.legs)
            for m in enumerate_morphisms(cocone.apex, T, tag)
        )
        if bijection_failure(mediated, list(itertools.product(*legsets))) is not None:
            return False
    return True


def check_equalizer_universal(
    f: Morphism, g: Morphism, inc: Morphism, tag: Tag, battery: Sequence[Hypermagma]
) -> bool:
    """Whether inc is an equalizer of f and g."""
    if g.dom != f.dom or g.cod != f.cod or inc.cod != f.dom:
        raise DimensionMismatch("composition mismatch: dom(g) != dom(f), cod(g) != cod(f) or cod(inc) != dom(f)")
    for T in battery:
        cones = {
            q
            for q in enumerate_morphisms(T, f.dom, tag)
            if all(f.map[v] == g.map[v] for v in q)
        }
        mediated = (tuple(inc.map[v] for v in h) for h in enumerate_morphisms(T, inc.dom, tag))
        if bijection_failure(mediated, cones) is not None:
            return False
    return True


def check_coequalizer_universal(
    f: Morphism,
    g: Morphism,
    q: Morphism,
    tag: Tag,
    battery: Sequence[Hypermagma],
) -> bool:
    if g.dom != f.dom or g.cod != f.cod or q.dom != f.cod:
        raise DimensionMismatch("composition mismatch: dom(g) != dom(f), cod(g) != cod(f) or dom(q) != cod(f)")
    for T in battery:
        cocones = {
            h
            for h in enumerate_morphisms(f.cod, T, tag)
            if all(h[u] == h[v] for u, v in zip(f.map, g.map))
        }
        mediated = (tuple(h[v] for v in q.map) for h in enumerate_morphisms(q.cod, T, tag))
        if bijection_failure(mediated, cocones) is not None:
            return False
    return True
