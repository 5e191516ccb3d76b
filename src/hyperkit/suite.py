"""The paper-suite runner: machine verification of every finite fact the
counterexamples rest on, plus the module invariant batteries.

Each check is a pure function returning (ok, detail); `run_suite` names
each result by the check's key in CHECKS, and the CLI prints one pass/fail
line per check and exits nonzero on any failure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from . import search
from .axioms import Tag, analyze, check_total_iff_associative_for_mosaics, weak_identity_set
from .core import (
    Hypermagma,
    Morphism,
    absorptive_closure,
    find_isomorphism,
    from_masks,
    identity_morphism,
    initial,
    iter_bits,
    mask_of,
    opposite,
    product_of_subsets,
    terminal,
)
from .errors import ensure
from .hom import (
    bijection_failure,
    enumerate_morphisms,
    is_colax,
    is_coshort,
    is_injective,
    is_lax,
    is_short,
    is_strict,
    is_unital,
    kernel,
    lane_morphisms,
    triples,
)
from .matroid import (
    adjoin_point,
    fano_matroid,
    matroid_to_mosaic,
    projective_checks,
    uniform_matroid,
    is_strong_map,
)
from .monoidal import (
    Bimorphism,
    boxtimes,
    enumerate_bimorphisms,
    hom_object,
    curry,
    empty_sum_search,
    uncurry,
    represents_bimorphisms,
    is_strict_bimorphism,
    strict_classifier_check,
    tensor,
    to_monoid_object,
    wedge_unit,
)
from .univ import (
    check_coequalizer_universal,
    check_coproduct_universal,
    check_equalizer_universal,
    check_product_universal,
    coequalizer,
    cofree,
    coproduct,
    equalizer,
    free,
    identified,
    is_normal_epi,
    is_normal_mono,
    is_reversible_via_lifting,
    is_short_via_lifting,
    is_strict_via_lifting,
    one_empty,
    product,
    pullback,
    representing_object,
    unitize,
)
from .zoo import (
    census_blocks,
    conjugacy_hypergroup,
    cyclic_group,
    double_coset_hypergroup,
    enumerate_lattices,
    gf9_frobenius,
    gf9_quotient,
    group_to_hypermagma,
    is_modular_lattice,
    klein_four_group,
    krasner,
    krasner_multiring,
    krasner_quotient,
    lattice_mosaic,
    leg_pairs,
    lift_points,
    make_finite_group,
    make_multiring,
    orbit_hypergroup,
    refute_coproduct_candidate,
    refute_equalizer_candidate,
    subdistributive_multiring,
    symmetric_group,
    z2,
    zmod_ring,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def klein_v() -> Hypermagma:
    return group_to_hypermagma(klein_four_group())


def d_weak_example() -> Hypermagma:
    """{0,1,2} with 0 an identity and 1+1 = 1+2 = 2+2 = D."""
    return from_masks(
        ("0", "1", "2"),
        ((0b001, 0b010, 0b100), (0b010, 0b111, 0b111), (0b100, 0b111, 0b111)),
    )


def mixed3() -> Hypermagma:
    """A fixed noncommutative hypermagma exercising lax/colax asymmetry."""
    return from_masks(
        ("x", "y", "z"),
        ((0b001, 0b100, 0), (0, 0, 0), (0, 0, 0b011)),
    )


def battery(tag: Tag) -> list[Hypermagma]:
    if tag is Tag.HMAG:
        return [
            initial(),
            one_empty(),
            terminal(),
            free(Tag.HMAG, ("a", "b")),
            cofree(("a", "b")),
            krasner(),
            z2(),
            mixed3(),
            representing_object(Tag.HMAG).obj,
        ]
    if tag is Tag.UHMAG:
        return [
            terminal(),
            wedge_unit(),
            z2(),
            krasner(),
            free(Tag.CMSC, ("1",)),
            d_weak_example(),
            representing_object(Tag.UHMAG).obj,
        ]
    if tag is Tag.MSC:
        return [
            terminal(),
            z2(),
            krasner(),
            free(Tag.CMSC, ("1",)),
            coproduct([z2(), z2()], Tag.MSC).apex,
            klein_v(),
        ]
    return [
        terminal(),
        z2(),
        krasner(),
        free(Tag.CMSC, ("1",)),
        klein_v(),
        gf9_quotient().additive,
    ]


# ---------------------------------------------------------------------------
# Checks


def check_krasner() -> tuple[bool, str]:
    K = krasner()
    rep = analyze(K)
    ok = (
        rep.classification == "CanonicalHypergroup"
        and K.label_set(K.table[1][1]) == ("0", "1")
        and krasner_multiring().hyperring
    )
    return ok, f"classified {rep.classification}, 1+1 = {{0,1}}"


def check_can_z2_k() -> tuple[bool, str]:
    homs = enumerate_morphisms(z2(), krasner(), Tag.CAN)
    ok = sorted(homs) == [(0, 0), (0, 1)]
    tau = Morphism(z2(), krasner(), (0, 1))
    ok = ok and is_colax(tau) and is_unital(tau) and is_injective(tau) and not is_strict(tau)
    ok = ok and kernel(tau) == 0b01
    return ok, f"Can(Z2,K) = {{0, tau}}, {len(homs)} morphisms"


def check_gf9() -> tuple[bool, str]:
    Q = gf9_quotient()
    H = Q.additive
    one = H.index("1")
    alpha2 = H.index("i")
    s = H.label_set(H.table[one][alpha2])
    F = gf9_frobenius()
    L, _ = equalizer(identity_morphism(H), F)
    i1, ia2 = L.index("1"), L.index("i")
    ok = (
        H.n == 5
        and s == ("1+i", "1+2i")
        and Q.hyperring
        and analyze(H).classification == "CanonicalHypergroup"
        and is_strict(F)
        and L.table[i1][ia2] == 0
    )
    return ok, f"5 classes, [1]+[a^2] = {s}, hyperring, fixed sub has empty sum"


def check_representing_objects() -> tuple[bool, str]:
    bad = []
    bat = battery(Tag.CMSC)
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
        ro = representing_object(tag)
        for M in bat:
            homs = enumerate_morphisms(ro.obj, M, tag)
            got = ((h[ro.a], h[ro.b], h[ro.c]) for h in homs)
            if bijection_failure(got, triples(M)) is not None:
                bad.append((tag.value, M.labels))
    return not bad, str(bad) if bad else "Hom(E_C, M) matches {(x,y,z) | z in x*y} on the battery"


def check_coequalizer_example() -> tuple[bool, str]:
    D = d_weak_example()
    FX = free(Tag.UHMAG, ("0", "1", "2"), point="0")
    f = Morphism(FX, D, (0, 1, 2))
    g = Morphism(FX, D, (0, 0, 2))
    qh = coequalizer(f, g, Tag.HMAG)
    qu = coequalizer(f, g, Tag.UHMAG)
    zero = qh.cod.index("0")
    ok = (
        qh.cod.n == 2
        and qh.cod.label_set(qh.cod.table[zero][zero]) == ("0", "2")
        and qu.cod.n == 1
    )
    return ok, "[0]+[0] = {[0],[2]} in HMag; terminal in uHMag"


def check_free_cofree() -> tuple[bool, str]:
    ok = True
    F2 = free(Tag.HMAG, ("a", "b"))
    ok &= all(F2.table[i][j] == 0 for i in range(2) for j in range(2))
    D2 = cofree(("a", "b"))
    ok &= weak_identity_set(D2) == 0b11
    ok &= weak_identity_set(free(Tag.HMAG, ("a",))) == 0
    FF = free(Tag.CMSC, ("1",))
    rep = analyze(FF)
    ok &= rep.classification == "CommutativeMosaic" and not rep.total
    for M in (krasner(), z2(), mixed3()):
        ok &= len(enumerate_morphisms(F2, M, Tag.HMAG)) == M.n ** 2
        ok &= len(enumerate_morphisms(M, D2, Tag.HMAG)) == 2 ** M.n
    for M in (krasner(), z2()):
        ok &= len(enumerate_morphisms(free(Tag.UHMAG, ("a", "b")), M, Tag.UHMAG)) == M.n ** 2
        ok &= len(enumerate_morphisms(free(Tag.CMSC, ("a", "b")), M, Tag.MSC)) == M.n ** 2
    return bool(ok), "free/cofree formulas and adjunction counts"


def check_monoidal_units() -> tuple[bool, str]:
    """boxdot and boxtimes units per their theorems; for the wedge the
    two-element free unital object is verified as the unit and the terminal
    object is recorded as collapsing (1 wedge M is a point, not M)."""
    ok = True
    for M in battery(Tag.CMSC):
        T, _ = tensor(one_empty(), M, Tag.HMAG)
        ok &= find_isomorphism(T, M) is not None
        W, _ = tensor(wedge_unit(), M, Tag.UHMAG)
        ok &= find_isomorphism(W, M) is not None
        collapsed, _ = tensor(terminal(), M, Tag.UHMAG)
        ok &= collapsed.n == 1
        B, _ = tensor(free(Tag.CMSC, ("1",)), M, Tag.CMSC)
        ok &= find_isomorphism(B, M) is not None
    return bool(ok), (
        "1_empty boxdot M = M; F boxtimes M = M; wedge unit is the free "
        "single-generator object (terminal wedge M collapses to a point)"
    )


def _closed_count_triples(tag: Tag) -> list[tuple]:
    if tag is Tag.HMAG:
        objs = [one_empty(), free(Tag.HMAG, ("a", "b")), krasner(), z2()]
    elif tag is Tag.UHMAG:
        objs = [terminal(), wedge_unit(), z2(), krasner(), free(Tag.CMSC, ("1",))]
    else:
        objs = [z2(), krasner(), free(Tag.CMSC, ("1",)), klein_v()]
    return list(itertools.product(objs, repeat=3))


# closed-counts skips a triple whose hom-sets have more maps than this
CLOSED_COUNTS_HOM_CAP = 200


def check_closed_counts() -> tuple[bool, str]:
    checked = 0
    skipped = 0
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.CMSC):
        for X, Y, Z in _closed_count_triples(tag):
            inner = enumerate_morphisms(Y, Z, tag)
            if len(inner) > CLOSED_COUNTS_HOM_CAP:
                skipped += 1
                continue
            T, _ = tensor(X, Y, tag)
            left = enumerate_morphisms(T, Z, tag)
            if len(left) > CLOSED_COUNTS_HOM_CAP:
                skipped += 1
                continue
            right = enumerate_morphisms(X, hom_object(Y, Z, tag), tag)
            if len(left) != len(right):
                return False, f"{tag.value}: |Hom(X(x)Y,Z)| = {len(left)} != {len(right)}"
            curried = [curry(Morphism(T, Z, phi), X, Y, tag) for phi in left]
            if bijection_failure((psi.map for psi in curried), right) is not None:
                return False, f"curry not bijective in {tag.value}"
            for phi, psi in zip(left, curried):
                if uncurry(psi, Y, Z, tag).map != phi:
                    return False, "uncurry . curry != id"
            checked += 1
    return True, f"{checked} triples verified, {skipped} skipped by the hom cap"


def check_boxtimes_health() -> tuple[bool, str]:
    ok = True
    details = []
    bt = boxtimes(z2(), z2())
    iso_z2 = find_isomorphism(bt.cod, z2()) is not None
    details.append(f"Z2 boxtimes Z2 has {bt.cod.n} elements, iso to Z2: {iso_z2}")
    ok &= bt.cod.n == 2 and iso_z2
    bat = battery(Tag.CMSC)
    for M in bat:
        for N in bat:
            q = boxtimes(M, N)
            rep = analyze(q.cod)
            ok &= rep.is_mosaic and rep.commutative
            pi = q.map
            for x in range(M.n):
                for y in range(N.n):
                    nz = x != M.identity and y != N.identity
                    if nz and pi[x * N.n + y] == q.cod.identity:
                        ok = False
    _, u = tensor(z2(), z2(), Tag.CMSC)
    rep_ok, _ = represents_bimorphisms(u, [krasner(), z2(), free(Tag.CMSC, ("1",))], Tag.CMSC)
    ok &= rep_ok
    return bool(ok), "; ".join(details) + "; nondegenerate"


def _morphism_battery(tag: Tag) -> list[Hypermagma]:
    return [M for M in battery(tag) if M.n <= 4]


def check_morphism_liftings() -> tuple[bool, str]:
    count = 0
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
        objs = _morphism_battery(tag)
        for A in objs:
            for B in objs:
                for fmap in enumerate_morphisms(A, B, tag):
                    f = Morphism(A, B, fmap)
                    if is_strict_via_lifting(f, tag) != is_strict(f):
                        return False, f"strict mismatch at {f!r}"
                    if is_short_via_lifting(f, tag) != is_short(f):
                        return False, f"short mismatch at {f!r}"
                    count += 1
        if tag is not Tag.HMAG:
            for M in objs:
                if is_reversible_via_lifting(M) != analyze(M).reversible:
                    return False, f"reversibility mismatch at {M!r}"
    return True, f"{count} morphisms agreed on both routes"


def check_regularity() -> tuple[bool, str]:
    shorts = []
    # the coequalizer of a pair is a function of (tag, B, `identified(f, g)`),
    # so it is built and checked once per key and shared by the pairs after
    quotients: dict[tuple, Morphism] = {}
    for tag in (Tag.HMAG, Tag.UHMAG):
        objs = _morphism_battery(tag)[:6]
        for A in objs:
            for B in objs:
                homs = [Morphism(A, B, m) for m in enumerate_morphisms(A, B, tag)[:8]]
                for f in homs:
                    for g in homs:
                        key = (tag, B, identified(f, g))
                        q = quotients.get(key)
                        if q is None:
                            q = quotients[key] = coequalizer(f, g, tag)
                            if not is_short(q):
                                return False, "coequalizer not short"
                        shorts.append((q, tag))
    # pullback stability; a repeated quotient gives the same pullbacks
    for p, tag in dict.fromkeys(shorts[:40]):
        N = p.cod
        for L in _morphism_battery(tag)[:5]:
            for g in enumerate_morphisms(L, N, tag)[:6]:
                pb = pullback(Morphism(L, N, g), p)
                if not is_short(pb.legs[0]):
                    return False, "pullback of short not short"
    # short images preserve commutativity and associativity
    for p, tag in dict.fromkeys(shorts):
        repM = analyze(p.dom)
        repN = analyze(p.cod)
        if repM.commutative and not repN.commutative:
            return False, "short image lost commutativity"
        if repM.associative and not repN.associative:
            return False, "short image lost associativity"
    return True, f"{len(shorts)} short quotients checked"


def check_normal_morphisms() -> tuple[bool, str]:
    ok = True
    K = krasner()
    one_in_K = Morphism(terminal(), K, (0,))
    ok &= is_normal_mono(one_in_K)
    weak_z2 = Morphism(z2(), K, (0, 1))
    ok &= not is_normal_mono(weak_z2)
    for M in (krasner(), d_weak_example(), klein_v()):
        for E in (0, 1 << M.identity, M.full_mask()):
            q = unitize(M, E)
            if E:
                ok &= is_normal_epi(q)
    return bool(ok), "unitizations are exactly the normal epis"


def check_strict_classifier() -> tuple[bool, str]:
    mosaics = battery(Tag.CMSC) + [matroid_to_mosaic(adjoin_point(fano_matroid()))]
    for M in mosaics:
        if not strict_classifier_check(M):
            return False, f"fails at {M.labels}"
    return True, f"{len(mosaics)} mosaics classified by K"


def _matrix_count(L: Hypermagma) -> int:
    """3x3 matrices over the self-inverse elements of L in which every row
    and every column (a, b, c) has a in b + c, counted row by row."""
    s = [v for v in range(L.n) if L.inverse[v] == v]
    rows = [(a, b, c) for a in s for b in s for c in s if (L.table[b][c] >> a) & 1]
    lawful = set(rows)
    return sum(
        1 for x in itertools.product(rows, repeat=3) if all(col in lawful for col in zip(*x))
    )


def check_klein_four() -> tuple[bool, str]:
    V = klein_v()
    K = krasner()
    details = []
    bims_K = enumerate_bimorphisms(V, V, K, Tag.CMSC)
    bims_V = enumerate_bimorphisms(V, V, V, Tag.CMSC)

    def inner(b):
        return tuple(tuple(b[i][j] for j in range(1, 4)) for i in range(1, 4))

    all_ones = tuple((1, 1, 1) for _ in range(3))
    zero_block = ((0, 0, 0), (0, 1, 1), (0, 1, 1))
    have_K = {inner(b) for b in bims_K}
    ok = all_ones in have_K and zero_block in have_K
    a = [V.index(x) for x in ("a1", "a2", "a3")]
    cyclic = (
        (a[0], a[1], a[2]),
        (a[1], a[2], a[0]),
        (a[2], a[0], a[1]),
    )
    ok &= cyclic in {inner(b) for b in bims_V}
    nonzero_count = sum(
        1 for b in bims_K if all(v != K.identity for row in inner(b) for v in row)
    )
    details.append(f"matrices with no zero entries over K: {nonzero_count}")
    ok &= nonzero_count == 1
    # matrix characterization cross-check
    for L, bims in ((K, bims_K), (V, bims_V)):
        if _matrix_count(L) != len(bims):
            return False, f"matrix characterization mismatch over {L.labels}"
    return bool(ok), "; ".join(details)


@search.memo
def census_homs(n: int, N: Hypermagma) -> tuple[list[tuple[tuple[int, ...], ...]], ...]:
    """Hom(G, N) in cMsc for every class G of `census_blocks(n)`, one list
    per block, read from the block's lanes by `lane_morphisms`: what
    `enumerate_morphisms(G, N, Tag.CMSC)` lists.  N is a unital mosaic.
    One `Budget` is charged across the blocks."""
    budget = search.Budget(f"lane_morphisms(n={n}, |N|={N.n}, cmsc)")
    return tuple(
        lane_morphisms(lanes, inverse, N, budget) for inverse, _classes, lanes in census_blocks(n)
    )


def z2_homs(inverse: tuple[int, ...]) -> list[tuple[int, int]]:
    """Hom(Z2, G) in cMsc for a canonical hypergroup G with identity 0 and
    inverse map `inverse`: the maps (0, x) with x = -x, x ascending, which
    is `enumerate_morphisms(z2(), G, Tag.CMSC)`.

    A morphism f sends 0 to 0, being unital.  Colax on 1 + 1 = {0} gives
    0 in f(1) + f(1), so f(1) = -f(1) by the unique inverses of G.
    Conversely (0, x) with x = -x is colax: 0 in 0 + 0, x in 0 + x = x + 0,
    and 0 in x + x = x + (-x)."""
    return [(0, x) for x, y in enumerate(inverse) if x == y]


def _census(max_size: int, *codomains: Hypermagma) -> Iterator[tuple]:
    """Each sigma block of canonical hypergroups of order 1 to max_size, in
    enumeration order, as (its inverse map, its classes, and per codomain
    the hom-sets of its classes into it, from `census_homs`): the walk the
    three refuters share."""
    for n in range(1, max_size + 1):
        homs = [census_homs(n, N) for N in codomains]
        for b, (inverse, classes, _lanes) in enumerate(census_blocks(n)):
            yield inverse, classes, [h[b] for h in homs]


def check_klein_four_refuter(max_size: int = 5) -> tuple[bool, str]:
    K, Z, V = krasner(), z2(), klein_v()
    bat = [K, Z, V]
    bim_counts = [len(enumerate_bimorphisms(V, V, L, Tag.CMSC)) for L in bat]
    survivors = []
    for _inverse, classes, (to_k, to_z) in _census(max_size, K, Z):
        for T, maps_k, maps_z in zip(classes, to_k, to_z):
            # a representing object must match hom counts on every battery L;
            # Hom(T, V) is enumerated only for a T that matches on K and Z2
            if [len(maps_k), len(maps_z)] != bim_counts[:2]:
                continue
            if len(enumerate_morphisms(T, V, Tag.CMSC)) != bim_counts[2]:
                continue
            for table in enumerate_bimorphisms(V, V, T, Tag.CMSC):
                ok, _ = represents_bimorphisms(Bimorphism(V, V, T, table), bat, Tag.CMSC)
                if ok:
                    survivors.append((T, table))
    # V x V with every candidate bimorphism dies on cardinalities alone
    prod_vv = product([V, V]).apex
    vv_refuted = len(enumerate_morphisms(prod_vv, K, Tag.CMSC)) != bim_counts[0]
    ok = not survivors and vv_refuted
    return ok, f"no representing object of size <= {max_size}; V x V rejected by counts"


def check_coproduct_refuter(max_size: int = 5) -> tuple[bool, str]:
    K, Z = krasner(), z2()
    pairs_k, pairs_z = leg_pairs(K), leg_pairs(Z)
    total = 0
    for inverse, classes, (to_k, to_z) in _census(max_size, K, Z):
        legs = z2_homs(inverse)
        total += len(legs) ** 2 * len(classes)
        for Gc, maps_k, maps_z in zip(classes, to_k, to_z):
            targets = ((K, maps_k, pairs_k), (Z, maps_z, pairs_z))
            for i1, i2 in itertools.product(legs, repeat=2):
                if refute_coproduct_candidate(i1, i2, targets) is None:
                    return False, f"candidate survived: {Gc.labels}"
    return True, f"all {total} candidates of size <= {max_size} refuted"


def check_equalizer_refuter(max_size: int = 5) -> tuple[bool, str]:
    H, F = gf9_quotient().additive, gf9_frobenius()
    # the maps E -> H that F fixes are those through the equalizer L of id and F
    L, inc = equalizer(identity_morphism(H), F)
    total = 0
    for _inverse, classes, (to_l,) in _census(max_size, L):
        for E, maps in zip(classes, to_l):
            points = lift_points(E)
            for h in maps:
                total += 1
                e = tuple(inc.map[v] for v in h)
                if not refute_equalizer_candidate(E, points, e, F.map)[0]:
                    return False, f"candidate survived: {E.labels}"
    return True, f"all {total} equalizing candidates of size <= {max_size} refuted"


def check_matroid_functor() -> tuple[bool, str]:
    ok = True
    details = []
    u23 = adjoin_point(uniform_matroid(2, 3))
    H23 = matroid_to_mosaic(u23)
    a, b = H23.index("a"), H23.index("b")
    ok &= H23.table[a][b] == 1 << H23.index("c")
    rep = analyze(H23)
    ok &= rep.classification == "CommutativeMosaic" and not rep.associative

    fano = adjoin_point(fano_matroid())
    HF = matroid_to_mosaic(fano)
    rf = analyze(HF)
    w = rf.witness("associative")
    ok &= rf.classification == "CommutativeMosaic" and w is not None and w[0] == w[1]
    details.append(f"fano witness {w}")

    u24 = adjoin_point(uniform_matroid(2, 4))
    H24 = matroid_to_mosaic(u24)
    ok &= analyze(H24).classification == "CanonicalHypergroup"

    # strong maps land on mosaic morphisms; projective pairs are full
    pairs = [(u23, u23), (u23, u24), (u24, u24)]
    for Mm, Nn in pairs:
        HM, HN = matroid_to_mosaic(Mm), matroid_to_mosaic(Nn)
        strong = [
            f
            for f in itertools.product(range(Nn.n), repeat=Mm.n)
            if f[Mm.pointed] == Nn.pointed and is_strong_map(Mm, Nn, f)
        ]
        for f in strong:
            mor = Morphism(HM, HN, f)
            if not (is_colax(mor) and is_unital(mor)):
                return False, "strong map not a morphism"
    pc = projective_checks(fano, others=[u24, fano])
    ok &= pc["projective_law"] and pc["closure_eq_generated"] and pc["fullness"]
    pc24 = projective_checks(u24, others=[fano, u24])
    ok &= pc24["projective_law"] and pc24["fullness"]
    u34 = adjoin_point(uniform_matroid(3, 4))
    pc34 = projective_checks(u34)
    ok &= not pc34["projective_law"]
    details.append("U34 projective law fails as expected")
    return bool(ok), "; ".join(details)


def check_nakano() -> tuple[bool, str]:
    counts = []
    for n in range(1, 7):
        lats = enumerate_lattices(n)
        counts.append(len(lats))
        for meet in lats:
            labels = [str(i) for i in range(n)]
            M = lattice_mosaic(labels, meet)
            modular = is_modular_lattice(meet)
            if analyze(M).is_hypergroup != modular:
                return False, f"mismatch at lattice {meet}"
            if not check_total_iff_associative_for_mosaics(M):
                return False, "mosaic lemma violated"
    return True, f"lattice counts by size: {counts}; hypergroup iff modular"


def check_hom_health() -> tuple[bool, str]:
    bat = _morphism_battery(Tag.CMSC)
    for M in bat:
        for N in bat:
            rep = analyze(hom_object(M, N, Tag.CMSC))
            if not (rep.is_mosaic and rep.commutative):
                return False, f"hom({M.labels},{N.labels}) not a commutative mosaic"
    return True, f"{len(bat)}^2 hom objects re-analyzed"


def check_empty_sum(max_size: int = 6) -> tuple[bool, str]:
    """The recorded outcome: no witness up to order 4, and the first one
    has order 5."""
    out = empty_sum_search(max_size)
    if out.witness is not None:
        H, x, y = out.witness
        detail = (
            f"witness of order {H.n}: f+g empty for f(1)={H.labels[x]}, "
            f"g(1)={H.labels[y]} (verified both routes)"
        )
        return max_size >= 5 and H.n == 5, detail
    return max_size < 5, f"exhausted: no witness up to size {max_size}"


def check_f2_represents() -> tuple[bool, str]:
    Z = z2()
    for G in battery(Tag.CMSC):
        homs = enumerate_morphisms(Z, G, Tag.CMSC)
        fixture = [
            x for x in range(G.n) if (G.table[x][x] >> G.identity) & 1
        ]
        if bijection_failure((h[1] for h in homs), fixture) is not None:
            return False, f"mismatch at {G.labels}"
    return True, "Can(Z2,G) = {x | 0 in x+x} on the battery"


def check_group_derived() -> tuple[bool, str]:
    ok = True
    S3 = symmetric_group(3)
    conj = conjugacy_hypergroup(S3)
    ok &= analyze(conj).classification == "CanonicalHypergroup"
    hs3 = group_to_hypermagma(S3)
    proj = Morphism(hs3, conj, tuple(_class_of(conj, S3, g) for g in range(S3.n)))
    ok &= is_short(proj) and is_colax(proj)
    K = S3.labels.index("(0 1)")
    dc = double_coset_hypergroup(S3, (1 << S3.identity) | (1 << K))
    ok &= dc.n == 2 and analyze(dc).is_hypergroup
    big = 1 - dc.identity
    ok &= dc.table[big][big] == 0b11
    z5 = cyclic_group(5)
    neg = tuple((-x) % 5 for x in range(5))
    orb = orbit_hypergroup(z5, [tuple(range(5)), neg])
    ok &= orb.n == 3 and analyze(orb).classification == "CanonicalHypergroup"
    one, two = orb.index("1"), orb.index("2")
    ok &= orb.table[one][one] == (1 << orb.index("0")) | (1 << two)
    f5 = zmod_ring(5)
    Q5 = krasner_quotient(f5, (1 << 1) | (1 << 4))
    ok &= Q5.multiring and Q5.hyperring
    return bool(ok), "double coset, conjugacy, orbit, Krasner quotients"


def _class_of(quotient: Hypermagma, G, g: int) -> int:
    # conjugacy class of g, located by any member's label
    cls = {G.table[G.table[h][g]][G.inverse[h]] for h in range(G.n)}
    found = [quotient.index(G.labels[c]) for c in cls if G.labels[c] in quotient.labels]
    ensure(bool(found), f"_class_of: no member of the class of {G.labels[g]} labels a class")
    return found[0]


def check_mosaic_closure() -> tuple[bool, str]:
    bat = _morphism_battery(Tag.CMSC)
    small = [M for M in battery(Tag.MSC) if M.n <= 3]
    for A in bat[:4]:
        for B in bat[:4]:
            cone = product([A, B])
            if not analyze(cone.apex).is_mosaic:
                return False, "product left the mosaics"
            if not check_product_universal(cone, Tag.MSC, small):
                return False, "product universality failed"
            coc = coproduct([A, B], Tag.MSC)
            if not analyze(coc.apex).is_mosaic:
                return False, "coproduct left the mosaics"
            if not check_coproduct_universal(coc, Tag.MSC, small):
                return False, "coproduct universality failed"
    A = krasner()
    for B in (z2(), klein_v()):
        homs = [Morphism(B, A, m) for m in enumerate_morphisms(B, A, Tag.CMSC)]
        for f in homs:
            for g in homs:
                _, inc = equalizer(f, g)
                if not is_coshort(inc):
                    return False, "equalizer inclusion not coshort"
                if not check_equalizer_universal(f, g, inc, Tag.MSC, small):
                    return False, "equalizer universality failed"
                q = coequalizer(f, g, Tag.MSC)
                if not analyze(q.cod).is_mosaic or not is_short(q):
                    return False, "coequalizer not a short mosaic map"
                if not check_coequalizer_universal(f, g, q, Tag.MSC, small):
                    return False, "coequalizer universality failed"
    return True, "(co)limits stay mosaics and are universal"


def check_inversion() -> tuple[bool, str]:
    for M in battery(Tag.CMSC):
        inv = M.inverse
        for x in range(M.n):
            for y in range(M.n):
                lhs = mask_of(inv[z] for z in iter_bits(M.table[x][y]))
                if lhs != M.table[inv[y]][inv[x]]:
                    return False, f"(xy)^-1 != y^-1 x^-1 at {M.labels}"
        rep = analyze(M)
        if rep.reversible:
            for y in range(M.n):
                for zz in range(M.n):
                    for x in iter_bits(M.table[y][zz]):
                        if not (M.table[x][inv[zz]] >> y) & 1:
                            return False, "strengthened equivalence fails"
                        if not (M.table[inv[y]][x] >> zz) & 1:
                            return False, "strengthened equivalence fails"
    return True, "inversion is an anti-isomorphism on the battery"


def check_unitization_facts() -> tuple[bool, str]:
    ok = True
    q = unitize(free(Tag.HMAG, ("a", "b")), 0)
    ok &= q.cod.n == 3 and q.cod.identity is not None
    K = krasner()
    q2 = unitize(K, 1 << 1)
    ok &= q2.cod.n == 1
    Z = z2()
    q3 = unitize(Z, 1 << 0)
    ok &= q3.cod.n == 2 and is_short(q3)
    for M in (krasner(), d_weak_example()):
        for E in range(1, 1 << M.n):
            q = unitize(M, E)
            if q.preimage_mask(1 << q.cod.identity) != absorptive_closure(M, E):
                return False, "kernel is not the absorptive closure"
            sat = all(
                product_of_subsets(M, 1 << x, E) and product_of_subsets(M, E, 1 << x)
                for x in range(M.n)
            )
            if sat and not is_short(q):
                return False, "shortness criterion violated"
    return bool(ok), "kernels and shortness per the construction"


def check_multiring_embedding() -> tuple[bool, str]:
    """A multiring's multiplication lambda is strict in each variable (every
    row and column slice is a strict morphism) iff it is a hyperring: this
    slice route must agree with `R.hyperring`, with both answers seen."""
    z6 = zmod_ring(6)
    add_hm = group_to_hypermagma(make_finite_group(z6.labels, z6.add))
    multirings = (
        krasner_multiring(),
        gf9_quotient(),
        make_multiring(add_hm, z6.mul, z6.one),
        subdistributive_multiring(),
    )
    routes = {
        (is_strict_bimorphism(to_monoid_object(R).multiplication), R.hyperring)
        for R in multirings
    }
    ok = routes == {(True, True), (False, False)}
    return ok, "monoid objects with strict lambda iff hyperring"


def check_opposite() -> tuple[bool, str]:
    for M in battery(Tag.CMSC) + [mixed3()]:
        if opposite(opposite(M)) != M:
            return False, "opposite not involutive"
    M = mixed3()
    Mo = opposite(M)
    for m in enumerate_morphisms(M, M, Tag.HMAG):
        f, f_op = Morphism(M, M, m), Morphism(Mo, Mo, m)
        if is_colax(f) != is_colax(f_op) or is_lax(f) != is_lax(f_op):
            return False, "kind flags not preserved by opposite"
    return True, "involutive; kind flags carried to the opposite"


CHECKS: dict[str, Callable[..., tuple[bool, str]]] = {
    "krasner": check_krasner,
    "can-z2-k": check_can_z2_k,
    "gf9-quotient": check_gf9,
    "representing-objects": check_representing_objects,
    "coequalizer-example": check_coequalizer_example,
    "free-cofree": check_free_cofree,
    "monoidal-units": check_monoidal_units,
    "closed-counts": check_closed_counts,
    "boxtimes-health": check_boxtimes_health,
    "morphism-liftings": check_morphism_liftings,
    "regularity": check_regularity,
    "normal-morphisms": check_normal_morphisms,
    "strict-classifier": check_strict_classifier,
    "klein-four": check_klein_four,
    "klein-four-refuter": check_klein_four_refuter,
    "coproduct-refuter": check_coproduct_refuter,
    "equalizer-refuter": check_equalizer_refuter,
    "matroid-functor": check_matroid_functor,
    "nakano": check_nakano,
    "hom-health": check_hom_health,
    "empty-sum-search": check_empty_sum,
    "f2-represents": check_f2_represents,
    "group-derived": check_group_derived,
    "mosaic-closure": check_mosaic_closure,
    "inversion": check_inversion,
    "unitization": check_unitization_facts,
    "multiring-embedding": check_multiring_embedding,
    "opposite": check_opposite,
}

SIZED_CHECKS = (
    "klein-four-refuter",
    "coproduct-refuter",
    "equalizer-refuter",
    "empty-sum-search",
)


def run_suite(only: str | None = None, max_size: int | None = None) -> list[CheckResult]:
    """Run the checks whose names contain `only`, each looked up in CHECKS
    as it runs, and name each (ok, detail) by its key; `max_size` overrides
    the default size of the SIZED_CHECKS.  The checks run in one
    `search.scope()`: they share their memo entries, which are dropped when
    the suite returns."""
    results = []
    with search.scope():
        for name in CHECKS:
            if only is None or only in name:
                sized = max_size is not None and name in SIZED_CHECKS
                ok, detail = CHECKS[name](max_size) if sized else CHECKS[name]()
                results.append(CheckResult(name, ok, detail))
    return results
