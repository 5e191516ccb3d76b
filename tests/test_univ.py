import itertools

import pytest

from hyperkit.axioms import Tag, analyze
from hyperkit.core import (
    Morphism,
    compose,
    distinct_labels,
    find_isomorphism,
    from_masks,
    identity_morphism,
    initial,
    iter_bits,
    quotient,
    terminal,
)
from hyperkit.errors import (
    DimensionMismatch,
    DuplicateLabel,
    NoCommonCodomain,
    NotParallel,
    NotUnital,
    UnsupportedCategory,
)
from hyperkit.hom import (
    enumerate_morphisms,
    is_colax,
    is_coshort,
    is_injective,
    is_short,
    is_strict,
    is_surjective,
)
from hyperkit.univ import (
    Cone,
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
    is_short_via_lifting,
    is_strict_via_lifting,
    one_empty,
    product,
    pullback,
    regular_image_factorization,
    unitize,
)
from hyperkit.suite import battery
from hyperkit.zoo import enumerate_canonical_hypergroups, gf9_frobenius, gf9_quotient, krasner

from util import d_example, f_mosaic, klein, mixed3, old_coequalizer, small_battery, z2


SMALL = None


def probes():
    global SMALL
    if SMALL is None:
        SMALL = [terminal(), z2(), krasner(), f_mosaic()]
    return SMALL


def test_free_objects():
    F = free(Tag.HMAG, ("a", "b"))
    assert all(F.table[i][j] == 0 for i in range(2) for j in range(2))
    FF = free(Tag.CMSC, ("1",))
    assert FF.labels == ("0", "1", "-1")
    assert FF.table[1][1] == 0 and FF.table[2][2] == 0
    assert FF.table[1][2] == 0b001
    Z = free(Tag.MSC, ())
    assert Z.n == 1 and Z.identity == 0



def test_free_mosaic_labels_never_collide():
    """The adjoined 0 and each -g are primed past the labels before them, so
    a generator named "-a" or "0" keeps its label; labels that are already
    distinct stay unchanged, and a repeated generator still raises."""
    for gens, labels in (
        (("a", "b"), ("0", "a", "b", "-a", "-b")),
        (("a", "-a"), ("0", "a", "-a", "-a'", "--a")),
        (("0",), ("0'", "0", "-0")),
    ):
        M = free(Tag.CMSC, gens)
        assert M.labels == labels
        assert M.labels[1 : 1 + len(gens)] == gens and M.n == 1 + 2 * len(gens)
        rep = analyze(M)
        assert rep.is_mosaic and rep.commutative
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
        with pytest.raises(DuplicateLabel):
            free(tag, ("a", "a"))

def test_cofree_and_adjunction_counts():
    D = cofree(("a", "b"))
    assert all(D.table[i][j] == 0b11 for i in range(2) for j in range(2))
    assert cofree(("a",)).n == 1
    for M in (krasner(), z2(), mixed3()):
        assert len(enumerate_morphisms(M, D, Tag.HMAG)) == 2 ** M.n
        F2 = free(Tag.HMAG, ("a", "b"))
        assert len(enumerate_morphisms(F2, M, Tag.HMAG)) == M.n ** 2
    for M in (krasner(), z2()):
        Fu = free(Tag.UHMAG, ("a", "b"))
        assert len(enumerate_morphisms(Fu, M, Tag.UHMAG)) == M.n ** 2
        Fm = free(Tag.CMSC, ("a", "b"))
        assert len(enumerate_morphisms(Fm, M, Tag.MSC)) == M.n ** 2


def test_product_krasner_squared():
    cone = product([krasner(), krasner()])
    P = cone.apex
    i11 = P.index("1|1")
    # componentwise oracle: (1+1) x (1+1) = {0,1} x {0,1}
    assert P.label_set(P.table[i11][i11]) == ("0|0", "0|1", "1|0", "1|1")
    for leg in cone.legs:
        assert is_strict(leg) and is_short(leg)
    assert check_product_universal(cone, Tag.UHMAG, probes())


def test_empty_product_is_terminal():
    cone = product([])
    assert cone.apex == terminal()


def test_product_of_groups():
    cone = product([z2(), z2()])
    assert analyze(cone.apex).classification == "AbelianGroup"
    assert find_isomorphism(cone.apex, klein()) is not None


def test_coproduct_wedge():
    coc = coproduct([z2(), z2()], Tag.UHMAG)
    W = coc.apex
    assert W.n == 3
    x, y = 1, 2
    assert W.table[x][x] == 0b001 and W.table[y][y] == 0b001
    assert W.table[x][y] == 0
    assert check_coproduct_universal(coc, Tag.UHMAG, probes())
    rep = analyze(W)
    assert rep.is_mosaic


def test_coproduct_hmag_free():
    Fa = free(Tag.HMAG, ("a",))
    Fb = free(Tag.HMAG, ("b",))
    coc = coproduct([Fa, Fb], Tag.HMAG)
    assert find_isomorphism(coc.apex, free(Tag.HMAG, ("a", "b"))) is not None
    assert check_coproduct_universal(coc, Tag.HMAG, [one_empty(), krasner(), mixed3()])


@pytest.mark.parametrize("tag", [Tag.UHMAG, Tag.MSC, Tag.CMSC], ids=lambda t: t.value)
def test_wedge_coproduct_refuses_a_non_unital_summand(tag):
    with pytest.raises(NotUnital, match="^wedge coproduct needs unital summands$"):
        coproduct([z2(), mixed3()], tag)


def test_coproduct_f_wedge_f():
    coc = coproduct([f_mosaic(), f_mosaic()], Tag.MSC)
    assert coc.apex.n == 5
    assert analyze(coc.apex).is_mosaic


def test_coproduct_unsupported_for_hypergroups():
    with pytest.raises(UnsupportedCategory):
        coproduct([z2(), z2()], Tag.CAN)
    t = Morphism(z2(), krasner(), (0, 1))
    with pytest.raises(UnsupportedCategory):
        equalizer(t, t, Tag.CAN)


@pytest.mark.parametrize("tag", [Tag.HGRP, Tag.CAN])
def test_lifting_criteria_unsupported_for_hypergroups(tag):
    # E_C is built for the four mosaic-side tags only
    f = identity_morphism(krasner())
    with pytest.raises(UnsupportedCategory, match=f"no representing object for tag {tag.value}$"):
        is_strict_via_lifting(f, tag)
    with pytest.raises(UnsupportedCategory, match=f"no representing object for tag {tag.value}$"):
        is_short_via_lifting(f, tag)


def test_hypergroup_coequalizers_delegate():
    # products and coequalizers for the hypergroup tags coincide with the
    # unital ones, which are closed on hypergroups
    t = Morphism(z2(), krasner(), (0, 1))
    zero = Morphism(z2(), krasner(), (0, 0))
    qc = coequalizer(t, zero, Tag.CAN)
    qu = coequalizer(t, zero, Tag.UHMAG)
    assert qc.cod == qu.cod
    assert analyze(qc.cod).is_hypergroup


def test_equalizer_identity_pair():
    K = krasner()
    E, inc = equalizer(identity_morphism(K), identity_morphism(K))
    assert E == K


def test_equalizer_frobenius():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    E, inc = equalizer(identity_morphism(H), F)
    assert E.labels == ("0", "i", "1")
    assert E.table[E.index("1")][E.index("i")] == 0
    rep = analyze(E)
    assert rep.is_mosaic and rep.commutative and not rep.total
    assert is_coshort(inc)
    assert check_equalizer_universal(identity_morphism(H), F, inc, Tag.UHMAG, probes())


def test_equalizer_tau_zero():
    t = Morphism(z2(), krasner(), (0, 1))
    zero = Morphism(z2(), krasner(), (0, 0))
    E, _ = equalizer(t, zero)
    assert E.labels == ("0",)
    with pytest.raises(NotParallel):
        equalizer(t, identity_morphism(krasner()))


def test_coequalizer_paper_example():
    D = d_example()
    FX = free(Tag.UHMAG, ("0", "1", "2"), point="0")
    f = Morphism(FX, D, (0, 1, 2))
    g = Morphism(FX, D, (0, 0, 2))
    qh = coequalizer(f, g, Tag.HMAG)
    assert qh.cod.labels == ("0", "2")
    assert qh.cod.table[0][0] == 0b11
    assert is_short(qh)
    qu = coequalizer(f, g, Tag.UHMAG)
    assert qu.cod.n == 1
    assert check_coequalizer_universal(f, g, qu, Tag.UHMAG, probes())
    assert check_coequalizer_universal(f, g, qh, Tag.HMAG, [one_empty(), krasner(), mixed3()])


def test_universal_verifiers_reject_non_universal_candidates():
    K, Z = krasner(), z2()
    # K x K with one projection as a product of K alone: mediators repeat
    cone = product([K, K])
    assert not check_product_universal(Cone(cone.apex, cone.legs[:1]), Tag.UHMAG, probes())
    # the codiagonal Z2 <- Z2 -> Z2: pairs of different legs have no mediator
    ident = identity_morphism(Z)
    assert not check_coproduct_universal(Cone(Z, (ident, ident)), Tag.UHMAG, probes())
    # identities that do not (co)equalize t and zero: every map T -> Z2 (or
    # K -> T) is mediated, also those outside the (co)cones
    t = Morphism(Z, K, (0, 1))
    zero = Morphism(Z, K, (0, 0))
    assert not check_equalizer_universal(t, zero, ident, Tag.UHMAG, probes())
    assert not check_coequalizer_universal(t, zero, identity_morphism(K), Tag.UHMAG, probes())


def test_universal_verifiers_reject_maps_that_do_not_compose():
    K, Z, V = krasner(), z2(), klein()
    idK, idZ = identity_morphism(K), identity_morphism(Z)
    t = Morphism(Z, K, (0, 1))
    q = coequalizer(t, t, Tag.UHMAG)
    calls = [
        lambda: check_product_universal(Cone(Z, (idK,)), Tag.UHMAG, probes()),
        lambda: check_coproduct_universal(Cone(Z, (idK,)), Tag.UHMAG, probes()),
        lambda: check_equalizer_universal(t, idK, idZ, Tag.UHMAG, probes()),
        lambda: check_equalizer_universal(t, t, idK, Tag.UHMAG, probes()),
        lambda: check_equalizer_universal(t, idZ, idZ, Tag.UHMAG, probes()),
        lambda: check_coequalizer_universal(t, idZ, idK, Tag.UHMAG, probes()),
        lambda: check_coequalizer_universal(t, Morphism(V, K, (0,) * V.n), q, Tag.UHMAG, probes()),
        lambda: check_coequalizer_universal(t, t, identity_morphism(V), Tag.UHMAG, probes()),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="^composition mismatch: "):
            call()


def test_coequalizer_of_equal_pair():
    t = Morphism(z2(), krasner(), (0, 1))
    q = coequalizer(t, t, Tag.UHMAG)
    assert q.cod.n == 2 and is_short(q)
    assert find_isomorphism(q.cod, krasner()) is not None


def test_unitize_adjoins_unit():
    q = unitize(free(Tag.HMAG, ("a", "b")), 0)
    assert q.cod.n == 3 and q.cod.identity is not None
    assert q.cod.labels == ("a", "b", "e")
    # adjoining a unit is an injection, not a quotient onto its codomain
    assert is_injective(q) and not is_surjective(q)
    assert not is_short(q)


def test_unitize_collapse_and_fixed_point():
    q = unitize(krasner(), 0b10)
    assert q.cod.n == 1
    qz = unitize(z2(), 0b01)
    assert qz.cod.n == 2 and is_short(qz)
    assert find_isomorphism(qz.cod, z2()) is not None


def test_unitize_shortness_criterion():
    # pi_E is short whenever x*E and E*x are nonempty for every x
    from hyperkit.core import product_of_subsets

    for M in (krasner(), d_example(), klein()):
        for E in range(1, 1 << M.n):
            q = unitize(M, E)
            sat = all(
                product_of_subsets(M, 1 << x, E) != 0
                and product_of_subsets(M, E, 1 << x) != 0
                for x in range(M.n)
            )
            if sat:
                assert is_short(q)


def test_pullback_diagonal():
    K = krasner()
    cone = pullback(identity_morphism(K), identity_morphism(K))
    assert find_isomorphism(cone.apex, K) is not None


def test_product_as_pullback_over_terminal():
    K = krasner()
    t = Morphism(K, terminal(), (0, 0))
    cone = pullback(t, t)
    prod = product([K, K])
    assert find_isomorphism(cone.apex, prod.apex) is not None


def test_kernel_pair_recovers_image():
    t = Morphism(z2(), krasner(), (0, 1))
    kp = pullback(t, t)
    q = coequalizer(kp.legs[0], kp.legs[1], Tag.UHMAG)
    assert find_isomorphism(q.cod, z2()) is not None


def test_regular_image_factorization():
    t = Morphism(z2(), krasner(), (0, 1))
    q, m = regular_image_factorization(t, Tag.UHMAG)
    assert q.cod.n == 2 and compose(m, q) == t
    const = Morphism(krasner(), z2(), (0, 0))
    q2, m2 = regular_image_factorization(const, Tag.UHMAG)
    assert q2.cod.n == 1
    # sum of coordinates V -> K factors through a 2-element middle object
    V = klein()
    vmap = []
    for lbl in V.labels:
        vmap.append(0 if lbl in ("0", "a1") else 1)
    # order: 0, a1, a2, a3 with a1 = (1,1) summing to 0 under tau
    f = Morphism(V, krasner(), (0, 1, 1, 0))
    assert is_colax(f)
    q3, m3 = regular_image_factorization(f, Tag.UHMAG)
    assert q3.cod.n == 2
    assert compose(m3, q3) == f
    assert is_injective(m3)


def test_normal_mono():
    K = krasner()
    one_inc = Morphism(terminal(), K, (0,))
    assert is_normal_mono(one_inc)
    weak = Morphism(z2(), K, (0, 1))
    assert not is_normal_mono(weak)


def _swap_kernel_object():
    """e, k, x, y, z, w with e a scalar identity, k*k = {e}, and k swapping
    x and y and fixing z and w: {e, k} is absorptive, and unitizing at it
    merges x with y."""
    e, k, x, y, z, w = range(6)
    rows = [[0] * 6 for _ in range(6)]
    for a in range(6):
        rows[e][a] = rows[a][e] = 1 << a
    rows[k][k] = 1 << e
    for a, b in ((x, y), (y, x), (z, z), (w, w)):
        rows[a][k] = rows[k][a] = 1 << b
    return from_masks(("e", "k", "x", "y", "z", "w"), rows, e)


def test_normal_epi():
    for M in (krasner(), d_example()):
        for E in range(1, 1 << M.n):
            q = unitize(M, E)
            # is_normal_epi compares q.cod.n with |p.cod|: q must be onto
            assert is_surjective(q)
            assert is_normal_epi(q)
    # group quotients are unitizations
    from hyperkit.zoo import cyclic_group, group_to_hypermagma

    z4 = group_to_hypermagma(cyclic_group(4))
    to_z2 = Morphism(z4, z2(), (0, 1, 0, 1))
    assert is_short(to_z2)
    assert is_normal_epi(to_z2)
    # tau is a surjection with trivial kernel but is not strict, hence not
    # isomorphic over Z2 to the trivial unitization
    t = Morphism(z2(), krasner(), (0, 1))
    assert not is_normal_epi(t)
    # not onto, or onto a codomain without a unit
    K = krasner()
    assert not is_normal_epi(Morphism(z2(), K, (0, 0)))
    assert not is_normal_epi(Morphism(K, cofree(("a", "b")), (0, 1)))
    # the kernel {0} of Z3 -> K merges nothing: 3 classes against 2 elements
    z3 = group_to_hypermagma(cyclic_group(3))
    assert unitize(z3, 0b001).cod.n == 3
    assert not is_normal_epi(Morphism(z3, K, (0, 1, 1)))
    # as many classes as elements of V, but p separates x and y, which the
    # unitization at the kernel {e, k} merges, so p does not factor through it
    M = _swap_kernel_object()
    p = Morphism(M, klein(), (0, 0, 1, 2, 3, 3))
    assert unitize(M, 0b11).map == (0, 0, 1, 1, 2, 3)
    assert not is_normal_epi(p)


def test_pullback_and_coequalizer_refuse_mismatched_maps():
    K = krasner()
    f = identity_morphism(K)
    with pytest.raises(NoCommonCodomain, match="pullback needs a common codomain"):
        pullback(f, Morphism(K, z2(), (0, 1)))
    with pytest.raises(NotParallel, match="coequalizer needs a parallel pair"):
        coequalizer(f, Morphism(z2(), K, (0, 1)), Tag.HMAG)
    M = mixed3()
    g = identity_morphism(M)
    assert coequalizer(g, g, Tag.HMAG).cod.n == M.n
    with pytest.raises(NotUnital, match="unital coequalizer needs a unital codomain"):
        coequalizer(g, g, Tag.UHMAG)


def test_pullback_stability_of_shortness():
    t = Morphism(z2(), terminal(), (0, 0))
    for L in probes():
        for g in enumerate_morphisms(L, terminal(), Tag.UHMAG):
            cone = pullback(Morphism(L, terminal(), g), t)
            assert is_short(cone.legs[0])


def test_universal_properties_against_every_small_object():
    # the probe battery here is every unital hypermagma with at most three
    # elements, one per isomorphism class
    from hyperkit.zoo import enumerate_unital_hypermagmas

    small = list(enumerate_unital_hypermagmas(2)) + list(enumerate_unital_hypermagmas(3))
    assert len(enumerate_unital_hypermagmas(2)) == 4
    # Burnside over the swap of the two non-unit elements: (4096 + 64) / 2
    assert len(enumerate_unital_hypermagmas(3)) == 2080
    A, B = krasner(), z2()
    cone = product([A, B])
    assert check_product_universal(cone, Tag.UHMAG, small)
    coc = coproduct([A, B], Tag.UHMAG)
    assert check_coproduct_universal(coc, Tag.UHMAG, small)
    t = Morphism(B, A, (0, 1))
    zero = Morphism(B, A, (0, 0))
    E, inc = equalizer(t, zero)
    assert check_equalizer_universal(t, zero, inc, Tag.UHMAG, small)
    q = coequalizer(t, zero, Tag.UHMAG)
    assert check_coequalizer_universal(t, zero, q, Tag.UHMAG, small)


def test_mosaic_universal_properties_against_small_mosaics():
    from hyperkit.zoo import enumerate_small_mosaics

    small = [M for n in (1, 2, 3) for M in enumerate_small_mosaics(n)]
    assert len(enumerate_small_mosaics(2)) == 2  # Z2 and K
    for M in small:
        rep = analyze(M)
        assert rep.is_mosaic and rep.commutative
    A, B = krasner(), f_mosaic()
    cone = product([A, B])
    assert check_product_universal(cone, Tag.MSC, small)
    coc = coproduct([A, B], Tag.MSC)
    assert check_coproduct_universal(coc, Tag.MSC, small)


def _battery_objects_with_identity():
    from hyperkit.suite import battery

    seen = {}
    for tag in Tag:
        for M in battery(tag):
            if M.identity is not None:
                seen.setdefault((M.labels, M.table), M)
    return list(seen.values())


def test_unitize_at_the_identity_is_the_identity_quotient():
    # {e} is closed and absorptive and e*x = x*e = {x}, so no classes merge:
    # the general path's result is the identity quotient with e relabelled
    from hyperkit.core import absorptive_closure, quotient
    from hyperkit.zoo import enumerate_unital_hypermagmas

    objects = [M for n in (1, 2, 3) for M in enumerate_unital_hypermagmas(n)]
    objects += _battery_objects_with_identity()
    assert len(objects) > 2085
    for M in objects:
        e = M.identity
        assert absorptive_closure(M, 1 << e) == 1 << e
        assert unitize(M, 1 << e) == quotient(M, tuple(range(M.n)), unit=e)


def test_boxtimes_digest_on_small_commutative_mosaics():
    # labels, table and quotient map of every boxtimes of two commutative
    # mosaics of order <= 3, as the general unitization path (closure,
    # chain relation, quotient) gives them
    import hashlib

    from hyperkit.monoidal import boxtimes
    from hyperkit.zoo import enumerate_small_mosaics

    mosaics = [M for n in (1, 2, 3) for M in enumerate_small_mosaics(n)]
    assert len(mosaics) == 17
    digest = hashlib.sha256()
    for M in mosaics:
        for N in mosaics:
            q = boxtimes(M, N)
            digest.update(repr((q.cod.labels, q.cod.table, q.map)).encode())
    assert digest.hexdigest() == (
        "182dbb8a418101d2b1102afe18fe2ce0bf9e392ac1d8995c129187a690df8d79"
    )


# Factor labels that hold the separator: "a" + "|b|c" and "a|b" + "|c" are
# both "a|b|c".
SEPARATOR_LABELS = (("a", "a|b"), ("b|c", "c"))
PRIMED_PAIRS = ("a|b|c", "a|c", "a|b|b|c", "a|b|c'")


def test_product_labels_are_distinct_when_factor_labels_hold_the_separator():
    A, B = (cofree(labels) for labels in SEPARATOR_LABELS)
    cone = product([A, B])
    assert cone.apex.labels == PRIMED_PAIRS
    assert check_product_universal(cone, Tag.HMAG, probes())


def test_pullback_labels_are_distinct_when_factor_labels_hold_the_separator():
    A, B = (cofree(labels) for labels in SEPARATOR_LABELS)
    T = terminal()
    cone = pullback(Morphism(A, T, (0, 0)), Morphism(B, T, (0, 0)))
    assert cone.apex.labels == PRIMED_PAIRS
    assert cone.apex.table == product([A, B]).apex.table


def test_distinct_labels_are_kept():
    A, B = cofree(("a", "b")), cofree(("c", "d"))
    assert product([A, B]).apex.labels == ("a|c", "a|d", "b|c", "b|d")
    T = terminal()
    cone = pullback(Morphism(A, T, (0, 0)), Morphism(B, T, (0, 0)))
    assert cone.apex.labels == ("a|c", "a|d", "b|c", "b|d")


def _old_product(Ms):
    """The product table from `itertools.product` over the bits of each
    component's product and one dict lookup per combination, and its
    projections."""
    tuples = list(itertools.product(*(range(M.n) for M in Ms)))
    index = {t: i for i, t in enumerate(tuples)}
    labels = distinct_labels("|".join(M.labels[c] for M, c in zip(Ms, t)) for t in tuples)
    n = len(tuples)
    rows = [[0] * n for _ in range(n)]
    for ia, a in enumerate(tuples):
        for ib, b in enumerate(tuples):
            comps = [M.table[x][y] for M, x, y in zip(Ms, a, b)]
            if any(c == 0 for c in comps):
                continue
            m = 0
            for combo in itertools.product(*(list(iter_bits(c)) for c in comps)):
                m |= 1 << index[combo]
            rows[ia][ib] = m
    P = from_masks(labels, rows)
    return P, tuple(Morphism(P, M, tuple(t[k] for t in tuples)) for k, M in enumerate(Ms))


def test_product_matches_combination_loop():
    # every pair and triple of the small battery, and the initial object
    # as a factor in front, between and behind
    battery = small_battery()
    factor_lists = [
        *itertools.product(battery, repeat=2),
        *itertools.product(battery, repeat=3),
        *([initial(), M] for M in battery),
        *([M, initial(), M] for M in battery),
        *([M, initial()] for M in battery),
    ]
    for Ms in factor_lists:
        cone = product(Ms)
        P, legs = _old_product(Ms)
        assert (cone.apex.labels, cone.apex.table) == (P.labels, P.table)
        assert cone.legs == legs
    assert len(factor_lists) == 81 + 729 + 27


def test_unital_coequalizer_matches_two_step_quotient():
    # (id, inversion) on every census class of order <= 4 and on the CMSC
    # battery: the unit class is {e}, and the coequalizer is built in one step
    objects = [*battery(Tag.CMSC)]
    for n in range(1, 5):
        objects += enumerate_canonical_hypergroups(n)
    pairs = [(identity_morphism(M), Morphism(M, M, M.inverse)) for M in objects]
    # (id, h) for every colax self-map h of the CMSC battery; where h moves
    # e, the unit class is larger and the two-step path is kept
    for N in battery(Tag.CMSC):
        pairs += [(identity_morphism(N), Morphism(N, N, h)) for h in enumerate_morphisms(N, N, Tag.HMAG)]
    singleton = []
    for f, g in pairs:
        proj = identified(f, g)
        singleton.append(proj.count(proj[f.cod.identity]) == 1)
        for tag in (Tag.UHMAG, Tag.CMSC):
            q, old = coequalizer(f, g, tag), old_coequalizer(f, g, tag)
            assert (q.cod.labels, q.cod.table) == (old.cod.labels, old.cod.table)
            assert (q.cod.identity, q.cod.inverse) == (old.cod.identity, old.cod.inverse)
            assert q == old
    # 116 inversion pairs, all through the one-step path; 74 self-map pairs,
    # 35 of them through the two-step path
    assert all(singleton[:116]) and (len(pairs), singleton.count(False)) == (190, 35)
