"""End-to-end acceptance checks, one per stated criterion, each printing a
PASS/FAIL line.  All values are exact; tolerance is equality throughout.

Two stated claims are false.  Criteria 6 and 8 keep them on record as
refutations that are checked, each followed by the corrected statement
that ``hyperkit paper-suite`` verifies.  Both disproofs use the
representability count, not the tensor constructions: if T represents
Bim(M, N; -), then |Hom(T, L)| = |Bim(M, N; L)| for every L.

* criterion 6 states that the terminal object 1 is a unit for the
  smash-style product.  Every bimorphism 1 x M -> L is constant, so
  |Bim(1, M; L)| = 1 for every L, while |Hom(M, M)| >= 2 for every battery
  member; 1 wedge M therefore cannot be M.  Computed directly, it is a
  point: E = M x {e} u {e} x N is the whole carrier when one factor is
  terminal.  Corrected statement: the unit is the free unital hypermagma on
  one generator (``wedge_unit``), with |Bim(wedge_unit, M; L)| = |Hom(M, L)|.
* criterion 8 states Z2 (x) Z2 = K.  Both Bim(Z2, Z2; L) and Can(Z2, L) are
  the self-inverse elements {t | 0 in t+t} of L, so Z2 represents its own
  bimorphism functor, and K fails the count (|Bim(Z2, Z2; Z2)| = 2 but
  |Hom(K, Z2)| = 1; |Bim(Z2, Z2; V)| = 4 but |Hom(K, V)| = 1 for the Klein
  four group V).  Corrected statement: the tensor square of Z2 is Z2.
"""
import itertools
from contextlib import contextmanager

import pytest

from hyperkit import suite
from hyperkit.axioms import Tag, analyze
from hyperkit.core import Morphism, find_isomorphism, mask_of, terminal
from hyperkit.hom import (
    enumerate_morphisms,
    is_colax,
    is_short,
    is_strict,
    is_unital,
    triples,
)
from hyperkit.matroid import (
    adjoin_point,
    fano_matroid,
    is_strong_map,
    matroid_to_mosaic,
    projective_checks,
    uniform_matroid,
)
from hyperkit.monoidal import (
    EmptySumOutcome,
    boxtimes,
    empty_sum_search,
    enumerate_bimorphisms,
    hom_object,
    strict_classifier_check,
    tensor,
    wedge_unit,
)
from hyperkit.suite import (
    _morphism_battery,
    battery,
    check_closed_counts,
    check_coproduct_refuter,
    check_equalizer_refuter,
    check_klein_four,
    check_klein_four_refuter,
    check_regularity,
    d_weak_example,
    klein_v,
)
from hyperkit.univ import (
    cofree,
    coequalizer,
    free,
    is_reversible_via_lifting,
    is_short_via_lifting,
    is_strict_via_lifting,
    one_empty,
    representing_object,
)
from hyperkit.zoo import (
    cyclic_group,
    enumerate_lattices,
    gf9_quotient,
    group_to_hypermagma,
    is_modular_lattice,
    krasner,
    krasner_multiring,
    lattice_mosaic,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def z2():
    return group_to_hypermagma(cyclic_group(2))


def test_criterion_1_krasner():
    with criterion(1, "Krasner facts"):
        K = krasner()
        assert analyze(K).classification == "CanonicalHypergroup"
        assert K.label_set(K.table[1][1]) == ("0", "1")
        assert krasner_multiring().hyperring


def test_criterion_2_can_z2_k():
    with criterion(2, "|Can(Z2,K)| = 2"):
        homs = enumerate_morphisms(z2(), krasner(), Tag.CAN)
        assert sorted(homs) == [(0, 0), (0, 1)]


def test_criterion_3_gf9():
    with criterion(3, "F9/F3x quotient facts"):
        Q = gf9_quotient()
        H = Q.additive
        assert H.n == 5
        assert H.label_set(H.table[H.index("1")][H.index("i")]) == ("1+i", "1+2i")
        assert Q.multiring and Q.hyperring


def test_criterion_4_representing_objects():
    with criterion(4, "representing-object bijections, four tags"):
        for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
            ro = representing_object(tag)
            for M in battery(Tag.CMSC):
                homs = enumerate_morphisms(ro.obj, M, tag)
                got = sorted((h[ro.a], h[ro.b], h[ro.c]) for h in homs)
                assert got == sorted(triples(M)), (tag, M.labels)


def test_criterion_5_coequalizer_example():
    with criterion(5, "coequalizer example in HMag and uHMag"):
        D = d_weak_example()
        FX = free(Tag.UHMAG, ("0", "1", "2"), point="0")
        f = Morphism(FX, D, (0, 1, 2))
        g = Morphism(FX, D, (0, 0, 2))
        qh = coequalizer(f, g, Tag.HMAG)
        assert qh.cod.labels == ("0", "2") and qh.cod.table[0][0] == 0b11
        assert coequalizer(f, g, Tag.UHMAG).cod.n == 1


def test_criterion_6_monoidal_units_boxdot_boxtimes():
    with criterion(6, "monoidal units for boxdot and boxtimes"):
        F = free(Tag.CMSC, ("1",))
        for M in battery(Tag.CMSC):
            T, _ = tensor(one_empty(), M, Tag.HMAG)
            assert find_isomorphism(T, M) is not None
            B, _ = tensor(F, M, Tag.CMSC)
            assert find_isomorphism(B, M) is not None


def test_criterion_6_monoidal_unit_wedge_as_stated():
    # Stated: 1 wedge M = M.  Refuted by counting: a unit would make
    # |Bim(1, M; M)| = |Hom(M, M)|, but the left side is 1 and the right >= 2.
    with criterion(
        6, "terminal object is not the wedge unit; the free one-generator object is"
    ):
        bat = battery(Tag.CMSC)
        for M in bat:
            for L in bat:
                assert len(enumerate_bimorphisms(terminal(), M, L, Tag.UHMAG)) == 1
            W, _ = tensor(terminal(), M, Tag.UHMAG)
            assert W.n == 1
            # 1 wedge 1 = 1 holds; every other battery member refutes the claim
            if M.n > 1:
                assert len(enumerate_morphisms(M, M, Tag.UHMAG)) >= 2
                assert find_isomorphism(W, M) is None
            # corrected statement: the free unital object on one generator
            U, _ = tensor(wedge_unit(), M, Tag.UHMAG)
            assert find_isomorphism(U, M) is not None
            for L in bat:
                bims = enumerate_bimorphisms(wedge_unit(), M, L, Tag.UHMAG)
                assert len(bims) == len(enumerate_morphisms(M, L, Tag.UHMAG))


def test_criterion_7_closed_counts():
    with criterion(7, "closed-structure counts with curry/uncurry"):
        ok, detail = check_closed_counts()
        assert ok, detail


def test_criterion_8_boxtimes_z2_as_stated():
    # Stated: Z2 (x) Z2 = K.  Refuted by counting: Bim(Z2, Z2; L) has one
    # element per self-inverse t in L, as Can(Z2, L) does, and Hom(K, L)
    # does not.
    with criterion(8, "Z2 boxtimes Z2 is Z2, not K"):
        Z2, K = z2(), krasner()
        bat = battery(Tag.CMSC)
        misses = {}
        for L in bat:
            bims = len(enumerate_bimorphisms(Z2, Z2, L, Tag.CMSC))
            self_inv = sum(1 for t in range(L.n) if (L.table[t][t] >> L.identity) & 1)
            assert bims == self_inv == len(enumerate_morphisms(Z2, L, Tag.CMSC))
            from_k = len(enumerate_morphisms(K, L, Tag.CMSC))
            if from_k != bims:
                misses[L] = (bims, from_k)
        assert misses == {Z2: (2, 1), klein_v(): (4, 1)}
        q = boxtimes(Z2, Z2)
        assert find_isomorphism(q.cod, Z2) is not None
        assert find_isomorphism(q.cod, K) is None


def test_criterion_8_nondegeneracy():
    with criterion(8, "nondegeneracy of boxtimes across the battery"):
        bat = battery(Tag.CMSC)
        for M in bat:
            for N in bat:
                q = boxtimes(M, N)
                pi = q.map
                for x in range(M.n):
                    for y in range(N.n):
                        if x != M.identity and y != N.identity:
                            assert pi[x * N.n + y] != q.cod.identity


def test_criterion_9_morphism_characterizations():
    with criterion(9, "strict/short/reversible lifting equivalences"):
        for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
            objs = _morphism_battery(tag)
            for A in objs:
                for B in objs:
                    for fmap in enumerate_morphisms(A, B, tag):
                        f = Morphism(A, B, fmap)
                        assert is_strict_via_lifting(f, tag) == is_strict(f)
                        assert is_short_via_lifting(f, tag) == is_short(f)
            if tag is not Tag.HMAG:
                for M in objs:
                    assert is_reversible_via_lifting(M) == analyze(M).reversible


def test_criterion_10_regularity():
    with criterion(10, "pullback-stable shortness; laws pass to short images"):
        ok, detail = check_regularity()
        assert ok, detail


def test_regularity_builds_one_coequalizer_per_partition(monkeypatch):
    # 277 pairs generate 26 (tag, codomain, partition) keys; a check that
    # built one coequalizer per pair again would make 277 calls
    calls = []

    def counted(f, g, tag):
        calls.append(tag)
        return coequalizer(f, g, tag)

    monkeypatch.setattr(suite, "coequalizer", counted)
    assert check_regularity() == (True, "277 short quotients checked")
    assert len(calls) == 26


def test_criterion_11_strict_classifier():
    with criterion(11, "Krasner classifies strict submosaics"):
        mosaics = battery(Tag.CMSC) + [matroid_to_mosaic(adjoin_point(fano_matroid()))]
        for M in mosaics:
            assert strict_classifier_check(M)


def test_criterion_12_klein_four():
    with criterion(12, "Klein-four bimorphism matrices and candidate refuter"):
        ok, detail = check_klein_four()
        assert ok, detail
        ok, detail = check_klein_four_refuter(5)
        assert ok, detail
        assert detail == "no representing object of size <= 5; V x V rejected by counts"


def test_criterion_13_refuters():
    with criterion(13, "coproduct and equalizer refuters at size <= 5"):
        ok, detail = check_coproduct_refuter(5)
        assert ok, detail
        assert detail == "all 82883 candidates of size <= 5 refuted"
        ok, detail = check_equalizer_refuter(5)
        assert ok, detail
        assert detail == "all 14162 equalizing candidates of size <= 5 refuted"


def test_criterion_14_matroid_functor():
    with criterion(14, "matroid functor facts and fullness"):
        u23 = adjoin_point(uniform_matroid(2, 3))
        H23 = matroid_to_mosaic(u23)
        a, b, c = H23.index("a"), H23.index("b"), H23.index("c")
        assert H23.table[a][b] == 1 << c
        fano = adjoin_point(fano_matroid())
        HF = matroid_to_mosaic(fano)
        rf = analyze(HF)
        assert rf.classification == "CommutativeMosaic"
        w = rf.witness("associative")
        assert w is not None and w[0] == w[1]
        u24 = adjoin_point(uniform_matroid(2, 4))
        assert analyze(matroid_to_mosaic(u24)).classification == "CanonicalHypergroup"
        # strong maps land on mosaic morphisms
        for Mm, Nn in ((u23, u23), (u23, u24)):
            HM, HN = matroid_to_mosaic(Mm), matroid_to_mosaic(Nn)
            for f in itertools.product(range(Nn.n), repeat=Mm.n):
                if f[Mm.pointed] != Nn.pointed or not is_strong_map(Mm, Nn, f):
                    continue
                m = Morphism(HM, HN, f)
                assert is_colax(m) and is_unital(m)
        # projective pairs are full
        assert projective_checks(fano, others=[u24, fano])["fullness"]
        assert projective_checks(u24, others=[fano, u24])["fullness"]


def test_criterion_15_nakano():
    with criterion(15, "Nakano: hypergroup iff modular, all lattices <= 6"):
        counts = []
        for n in range(1, 7):
            lats = enumerate_lattices(n)
            counts.append(len(lats))
            for meet in lats:
                M = lattice_mosaic([str(i) for i in range(n)], meet)
                assert analyze(M).is_hypergroup == is_modular_lattice(meet)
        assert counts == [1, 1, 1, 2, 5, 15]


def test_criterion_16_hom_health_and_empty_sum():
    with criterion(16, "hom-object health and the empty-sum search outcome"):
        bat = _morphism_battery(Tag.CMSC)
        for M in bat:
            for N in bat:
                rep = analyze(hom_object(M, N, Tag.CMSC))
                assert rep.is_mosaic and rep.commutative
        out = empty_sum_search(6)
        if out.witness is not None:
            H, x, y = out.witness
            # verified witness: re-check both routes here
            zero = H.identity
            s_mask = mask_of(t for t in range(H.n) if (H.table[t][t] >> zero) & 1)
            assert (s_mask >> x) & 1 and (s_mask >> y) & 1
            assert H.table[x][y] != 0 and H.table[x][y] & s_mask == 0
            Hm = hom_object(z2(), H, Tag.CMSC)
            fi = Hm.index(f"({H.labels[zero]},{H.labels[x]})")
            gi = Hm.index(f"({H.labels[zero]},{H.labels[y]})")
            assert Hm.table[fi][gi] == 0
            print(f"  empty-sum witness recorded at order {H.n}")
        else:
            print("  empty-sum search exhausted at size 6 (recorded)")


@pytest.mark.parametrize(
    "max_size, order, ok",
    [(4, None, True), (5, 5, True), (6, 5, True),
     (6, None, False), (4, 5, False), (6, 4, False), (6, 6, False)],
    ids=["exhausted-at-4", "order-5-at-5", "order-5-at-6",
         "exhausted-at-6", "order-5-at-4", "order-4-at-6", "order-6-at-6"],
)
def test_empty_sum_check_passes_only_the_recorded_outcome(monkeypatch, max_size, order, ok):
    """No witness up to order 4, and the first witness has order 5."""
    witness = None if order is None else (cofree([str(i) for i in range(order)]), 1, 2)
    monkeypatch.setattr(suite, "empty_sum_search", lambda m: EmptySumOutcome(witness, ()))
    assert suite.check_empty_sum(max_size)[0] is ok
