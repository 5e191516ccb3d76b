"""An independent oracle for the hom-sets the size-5 refuters read.

For every class G of canonical hypergroups of order <= 5, the maps that
`enumerate_morphisms` lists for Hom(Z2, G), Hom(G, K) and Hom(G, Z2), the
hom-sets the coproduct and Klein-four refuters rest on, must equal, in order,
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

The refuters read those hom-sets from the census's byte lanes
(`census_homs`, `hom.lane_morphisms`) and Hom(Z2, G) from the block's
inverse map (`z2_homs`).  The lane lists are a third witness: they equal
the brute force for K, Z2 and L on every class of order <= 5, also on
blocks with spoiled entries, and `enumerate_morphisms` for K, Z2, V and L
on the sigma = (1 0)(3 2) block of order 6.
"""
import itertools

from hypothesis import given, settings, strategies as st

from hyperkit import search
from hyperkit.axioms import Tag
from hyperkit.core import Hypermagma, Morphism, identity_morphism, pack_lanes
from hyperkit.hom import enumerate_morphisms, lane_morphisms
from hyperkit.search import Budget
from hyperkit.suite import census_homs, z2_homs
from hyperkit.univ import equalizer
from hyperkit.zoo import (
    census_blocks,
    enumerate_canonical_hypergroups,
    gf9_frobenius,
    gf9_quotient,
    group_to_hypermagma,
    klein_four_group,
    krasner,
    lift_points,
    refute_equalizer_candidate,
    reversible_table_blocks,
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


def _equalizer_object():
    """L, the equalizer of id and the Frobenius on the GF(9) quotient."""
    return equalizer(identity_morphism(gf9_quotient().additive), gf9_frobenius())[0]


def _as_triple(M):
    return (M.table, M.identity, M.inverse)


def test_lane_hom_sets_match_brute_force_through_order_5():
    """The third witness: on every class of order <= 5, the lane lists for
    K, Z2 and L equal the brute force, list for list and in order, and
    Hom(Z2, G) read from the block's inverse map equals the brute force and
    `enumerate_morphisms`."""
    L = _equalizer_object()
    codomains = [(N, _as_triple(N)) for N in (krasner(), z2(), L)]
    classes = 0
    for n in range(1, 6):
        homs = [census_homs(n, N) for N, _ in codomains]
        for b, (inverse, block, _lanes) in enumerate(census_blocks(n, True)):
            legs = z2_homs(inverse)
            for i, G in enumerate(block):
                g = _as_triple(G)
                for (N, cod), hom in zip(codomains, homs):
                    assert list(hom[b][i]) == _brute_homs(g, cod), (G.labels, N.labels)
                assert legs == _brute_homs(Z2, g) == enumerate_morphisms(z2(), G, Tag.CMSC)
                classes += 1
    assert classes == 3886


def test_lane_hom_sets_match_enumerate_morphisms_on_an_order_6_block():
    """The 9,685 tables of the order-6 block sigma = (1 0)(3 2), read in
    lanes, for K, Z2, V and L; and Hom(Z2, G) from the inverse map."""
    ((inverse, tables),) = reversible_table_blocks(6, sigma=(1, 0, 3, 2, 4))
    tables = list(tables)
    assert len(tables) == 9685
    lanes = pack_lanes(6, tables)
    labels = tuple(str(v) for v in range(6))
    classes = [Hypermagma(labels, t, 0, inverse) for t in tables]
    V = group_to_hypermagma(klein_four_group())
    legs = z2_homs(inverse)
    # the scalar hom-sets are dropped from the memo when the block ends
    with search.scope():
        for N in (krasner(), z2(), V, _equalizer_object()):
            homs = lane_morphisms(lanes, inverse, N, Budget("order-6 block"))
            assert len(homs) == len(classes)
            for G, hom in zip(classes, homs):
                assert list(hom) == enumerate_morphisms(G, N, Tag.CMSC), N.labels
        assert all(enumerate_morphisms(z2(), G, Tag.CMSC) == legs for G in classes)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lane_morphisms_match_brute_force_on_spoiled_blocks(data):
    """Tables of one census block with some nonzero entries replaced by any
    mask, read in lanes under the block's inverse map: each lane's list is
    the brute force on its own table, good and spoiled lanes side by
    side."""
    n = data.draw(st.integers(2, 5))
    inverse, block, _lanes = data.draw(st.sampled_from(census_blocks(n, True)))
    picks = data.draw(st.lists(st.sampled_from(block), min_size=1, max_size=12))
    tables = [[list(row) for row in G.table] for G in picks]
    for table in tables:
        for _ in range(data.draw(st.integers(0, 3))):
            x, y = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
            table[x][y] = data.draw(st.integers(0, (1 << n) - 1))
    N = data.draw(
        st.sampled_from([krasner(), z2(), group_to_hypermagma(klein_four_group()), _equalizer_object()])
    )
    homs = lane_morphisms(pack_lanes(n, tables), inverse, N, Budget("spoiled block"))
    assert [list(hom) for hom in homs] == [
        _brute_homs((table, 0, inverse), _as_triple(N)) for table in tables
    ]
