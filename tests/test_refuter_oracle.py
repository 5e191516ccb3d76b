"""An independent oracle for the hom-sets the size-5 refuters read.

For every class G of canonical hypergroups of order <= 5, the maps that
`enumerate_morphisms` lists for Hom(Z2, G), Hom(G, K) and Hom(G, Z2), the
hom-sets the coproduct and Klein-four refuters read, must equal, in order,
a brute force that tries every map and tests it on the raw mask
tables, without `hyperkit.hom`.  The counts of the brute force then prove
two refutations at order <= 5 on their own: a coproduct Z2 + Z2 needs
|Hom(G, K)| = 4 and |Hom(G, Z2)| = 4, and a representing object for the
Klein-four bimorphisms needs 50 and 16, and no class meets either pair.

The equalizer refuter reads, per class, the maps G -> H that the Frobenius
F of the GF(9) quotient H fixes, as inc . h for h in Hom(G, L), where
inc: L -> H is the equalizer of id and F (`univ.equalizer`), and the lift
points of G.  Both are brute-forced on every class: a map into the F-fixed
elements is tried once per choice on the inverse pairs, with the unit sent
to the unit and -x to the inverse of the image of x, and then tested colax.
The same list is the F-fixed part of Hom(G, H), so Hom(G, H)^F =
Hom(G, H^F).  Replayed on these inputs, every one of the 14,162 candidates
is refuted.
"""
import itertools

from hyperkit.axioms import Tag
from hyperkit.core import Morphism, identity_morphism
from hyperkit.hom import enumerate_morphisms
from hyperkit.univ import equalizer
from hyperkit.zoo import (
    enumerate_canonical_hypergroups,
    gf9_frobenius,
    gf9_quotient,
    krasner,
    lift_points,
    refute_equalizer_candidate,
    z2,
)

# (table, unit, inverse) on the carrier {0, 1}: entry [x][y] has bit z set
# when z is in x + y
K = (((0b01, 0b10), (0b10, 0b11)), 0, (0, 1))
Z2 = (((0b01, 0b10), (0b10, 0b01)), 0, (0, 1))


def _brute_homs(dom, cod):
    """Every map dom -> cod, in lexicographic order, that sends the unit to
    the unit, commutes with the inverses and is colax: z in x + y implies
    f(z) in f(x) + f(y)."""
    (dtable, dunit, dinv), (ctable, cunit, cinv) = dom, cod
    n = len(dtable)
    sums = [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (dtable[x][y] >> z) & 1
    ]
    return [
        f
        for f in itertools.product(range(len(ctable)), repeat=n)
        if f[dunit] == cunit
        and all(f[dinv[x]] == cinv[f[x]] for x in range(n))
        and all((ctable[f[x]][f[y]] >> f[z]) & 1 for x, y, z in sums)
    ]


def test_refuter_hom_sets_match_brute_force_through_order_5(monkeypatch):
    assert (krasner().table, krasner().identity, krasner().inverse) == K
    assert (z2().table, z2().identity, z2().inverse) == Z2
    classes = [G for n in range(1, 6) for G in enumerate_canonical_hypergroups(n)]
    assert len(classes) == 3886

    def no_morphism(self):
        raise AssertionError("a refuter's hom-set search built a Morphism")

    # the memoised targets are built first (the gf9 quotient is a quotient
    # map's codomain, and the equalizer's inclusion is a Morphism), and every
    # refuter's search runs cold, not from the memo: the coproduct and
    # Klein-four hom-sets, and the equalizer's Hom(G, L) and lift points,
    # which the equalizer test below checks
    L, _ = equalizer(identity_morphism(gf9_quotient().additive), gf9_frobenius())
    enumerate_morphisms.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(Morphism, "__post_init__", no_morphism)
        hom_sets = [
            (
                enumerate_morphisms(z2(), G, Tag.CMSC),
                enumerate_morphisms(G, krasner(), Tag.CMSC),
                enumerate_morphisms(G, z2(), Tag.CMSC),
            )
            for G in classes
        ]
        for G in classes:
            enumerate_morphisms(G, L, Tag.CMSC)
            lift_points(G)

    coproduct_counts = klein_four_counts = maps = 0
    for G, got in zip(classes, hom_sets):
        g = (G.table, G.identity, G.inverse)
        legs, to_k, to_z2 = _brute_homs(Z2, g), _brute_homs(g, K), _brute_homs(g, Z2)
        assert got == (legs, to_k, to_z2), G.labels
        counts = (len(to_k), len(to_z2))
        coproduct_counts += counts == (4, 4)
        klein_four_counts += counts == (50, 16)
        maps += len(legs) + len(to_k) + len(to_z2)
    assert maps == 17569 + 9024 + 4044
    assert coproduct_counts == 0
    assert klein_four_counts == 0


def _brute_fixed_homs(dom, cod, fixed):
    """Every map dom -> `fixed`, a subset of cod closed under its inverse, in
    lexicographic order, that sends the unit to the unit, commutes with the
    inverses and is colax.  Each inverse pair {x, -x} of dom takes one
    choice f(x) in `fixed`, and f(-x) is its inverse."""
    (dtable, dunit, dinv), (ctable, cunit, cinv) = dom, cod
    n = len(dtable)
    sums = [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if (dtable[x][y] >> z) & 1
    ]
    reps = [x for x in range(n) if x != dunit and dinv[x] >= x]
    out = []
    for choice in itertools.product(fixed, repeat=len(reps)):
        f = [cunit] * n
        for x, v in zip(reps, choice):
            f[x], f[dinv[x]] = v, cinv[v]
        if all((ctable[f[x]][f[y]] >> f[z]) & 1 for x, y, z in sums):
            out.append(tuple(f))
    return sorted(out)


def test_equalizer_inputs_match_brute_force_through_order_5():
    H, F = gf9_quotient().additive, gf9_frobenius()
    L, inc = equalizer(identity_morphism(H), F)
    fixed = [v for v in range(H.n) if F.map[v] == v]
    assert list(inc.map) == fixed
    assert all(H.inverse[v] in fixed for v in fixed)
    h = (H.table, H.identity, H.inverse)
    classes = [G for n in range(1, 6) for G in enumerate_canonical_hypergroups(n)]
    candidates = 0
    for G in classes:
        # read from the memo when the test above ran first
        to_l = [tuple(inc.map[v] for v in e) for e in enumerate_morphisms(G, L, Tag.CMSC)]
        homs = _brute_fixed_homs((G.table, G.identity, G.inverse), h, fixed)
        assert to_l == homs, G.labels
        to_h = enumerate_morphisms(G, H, Tag.CMSC)
        assert [e for e in to_h if all(F.map[v] == v for v in e)] == homs, G.labels
        e = G.identity
        points = tuple(x for x in range(G.n) if (G.table[x][x] >> e) & 1 and (G.table[x][x] >> x) & 1)
        assert lift_points(G) == points, G.labels
        for emap in homs:
            assert refute_equalizer_candidate(G, points, emap, F.map)[0], (G.labels, emap)
        candidates += len(homs)
    assert candidates == 14162
