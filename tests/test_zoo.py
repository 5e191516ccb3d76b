import hashlib
import itertools

import pytest

from hyperkit.axioms import Tag, analyze
from hyperkit.core import Morphism, find_isomorphism, from_masks, iter_bits, mask_of
from hyperkit.errors import (
    AdditiveNotCanonical,
    CandidateDoesNotEqualize,
    DimensionMismatch,
    NotAbelian,
    NotAnAutomorphismGroup,
    NotASemilattice,
    NotASubgroup,
    NotMultiring,
    NotUnitSubgroup,
    SearchCapExceeded,
    ZeroNotAbsorbing,
)
from hyperkit.hom import enumerate_morphisms, is_short, is_strict
from hyperkit.monoidal import empty_sum_search
from hyperkit.zoo import (
    _gf9_classifier_targets,
    check_multiring,
    conjugacy_hypergroup,
    coproduct_refutation,
    coproduct_replay,
    cyclic_group,
    double_coset_hypergroup,
    enumerate_canonical_hypergroups,
    enumerate_lattices,
    enumerate_unital_hypermagmas,
    equalizer_refutation,
    equalizer_replay,
    gf9_frobenius,
    gf9_quotient,
    group_to_hypermagma,
    is_modular_lattice,
    klein_four_group,
    krasner,
    krasner_quotient,
    lattice_mosaic,
    leg_pairs,
    lift_points,
    make_finite_group,
    make_finite_ring,
    make_gf4,
    make_gf9,
    make_multiring,
    orbit_hypergroup,
    refute_coproduct_candidate,
    refute_equalizer_candidate,
    symmetric_group,
    zmod_ring,
)

from util import f_mosaic, z2


def test_group_builders():
    S3 = symmetric_group(3)
    assert S3.n == 6 and "e" in S3.labels
    assert cyclic_group(4).n == 4
    V = klein_four_group()
    assert all(V.table[i][i] == 0 for i in range(4))


def test_double_coset_normal_subgroup_is_quotient_group():
    S3 = symmetric_group(3)
    a3 = mask_of(
        i for i, l in enumerate(S3.labels) if l == "e" or l.count(" ") == 2
    )  # the 3-cycles have cycle notation with three entries
    dc = double_coset_hypergroup(S3, a3)
    assert analyze(dc).classification == "AbelianGroup"
    assert find_isomorphism(dc, z2()) is not None


def test_double_coset_whole_group_terminal():
    S3 = symmetric_group(3)
    dc = double_coset_hypergroup(S3, (1 << S3.n) - 1)
    assert dc.n == 1


def test_double_coset_s3_transposition():
    S3 = symmetric_group(3)
    K = (1 << S3.identity) | (1 << S3.labels.index("(0 1)"))
    dc = double_coset_hypergroup(S3, K)
    assert dc.n == 2
    big = 1 - dc.identity
    # oracle: KaKbK for a = b = (0 2) covers both classes
    assert dc.table[big][big] == 0b11
    assert analyze(dc).is_hypergroup
    with pytest.raises(NotASubgroup):
        double_coset_hypergroup(S3, 1 << S3.labels.index("(0 1)"))


def test_conjugacy_s3():
    S3 = symmetric_group(3)
    conj = conjugacy_hypergroup(S3)
    assert conj.n == 3
    assert analyze(conj).classification == "CanonicalHypergroup"
    # oracle: setwise product of the transposition class with itself
    transpositions = {i for i, l in enumerate(S3.labels) if l.count(" ") == 1}
    prods = {S3.table[a][b] for a in transpositions for b in transpositions}
    classes_hit = set()
    for p in prods:
        if p == S3.identity:
            classes_hit.add("e")
        elif S3.labels[p].count(" ") == 2:
            classes_hit.add("3cyc")
    assert classes_hit == {"e", "3cyc"}
    # class labels use the least-index representative, here (1 2)
    t = conj.index("(1 2)")
    got = conj.label_set(conj.table[t][t])
    assert got == ("e", "(0 1 2)")


def test_conjugacy_abelian_identity():
    A = cyclic_group(5)
    conj = conjugacy_hypergroup(A)
    assert find_isomorphism(conj, group_to_hypermagma(A)) is not None


def test_orbit_z5_negation():
    z5 = cyclic_group(5)
    neg = tuple((-x) % 5 for x in range(5))
    H = orbit_hypergroup(z5, [tuple(range(5)), neg])
    assert H.n == 3
    one = H.index("1")
    # oracle: {1,4} + {1,4} = {2, 0, 3} meeting the classes {0} and {2,3}
    assert H.label_set(H.table[one][one]) == ("0", "2")
    assert analyze(H).classification == "CanonicalHypergroup"


def test_orbit_trivial_action():
    z5 = cyclic_group(5)
    H = orbit_hypergroup(z5, [tuple(range(5))])
    assert find_isomorphism(H, group_to_hypermagma(z5)) is not None


def test_orbit_errors():
    S3 = symmetric_group(3)
    with pytest.raises(NotAbelian):
        orbit_hypergroup(S3, [tuple(range(6))])
    z5 = cyclic_group(5)
    double = tuple((2 * x) % 5 for x in range(5))
    with pytest.raises(NotAnAutomorphismGroup):
        orbit_hypergroup(z5, [tuple(range(5)), double])  # not closed: misses 4x
    shift = tuple((x + 1) % 5 for x in range(5))
    with pytest.raises(NotAnAutomorphismGroup):
        orbit_hypergroup(z5, [tuple(range(5)), shift])  # not an automorphism


def test_orbit_gf9_matches_krasner_quotient():
    R = make_gf9()
    minus_one = R.add[R.one].index(R.zero)
    zg = make_finite_group(R.labels, R.add)
    mul_by = lambda u: tuple(R.mul[x][u] for x in range(R.n))
    H = orbit_hypergroup(zg, [mul_by(R.one), mul_by(minus_one)])
    assert H.n == 5
    assert find_isomorphism(H, gf9_quotient().additive) is not None


def test_lattice_mosaics_nakano_examples():
    chain3 = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    M = lattice_mosaic(["0", "m", "1"], chain3)
    assert analyze(M).is_hypergroup
    # diamond M3: bottom, three middle atoms, top
    n = 5
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                meet[a][b] = a
            elif a == 4:
                meet[a][b] = b
            elif b == 4:
                meet[a][b] = a
            elif a == 0 or b == 0:
                meet[a][b] = 0
            else:
                meet[a][b] = 0
    m3 = lattice_mosaic([str(i) for i in range(5)], meet)
    assert is_modular_lattice(meet)
    assert analyze(m3).is_hypergroup
    # pentagon N5: 0 < a < c < 1 and 0 < b < 1
    meet5 = [[0] * 5 for _ in range(5)]
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)}
    le = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)} | order
    for a in range(5):
        for b in range(5):
            lbs = [c for c in range(5) if (c, a) in le and (c, b) in le]
            meet5[a][b] = max(lbs, key=lambda c: sum((d, c) in le for d in range(5)))
    # compute meet via greatest lower bound explicitly
    for a in range(5):
        for b in range(5):
            lbs = [c for c in range(5) if (c, a) in le and (c, b) in le]
            greatest = [c for c in lbs if all((d, c) in le for d in lbs)]
            assert len(greatest) == 1
            meet5[a][b] = greatest[0]
    n5 = lattice_mosaic([str(i) for i in range(5)], meet5)
    assert not is_modular_lattice(meet5)
    rep = analyze(n5)
    assert rep.classification == "CommutativeMosaic" and not rep.associative
    assert rep.total  # Nakano mosaics always contain the meet in every sum
    with pytest.raises(NotASemilattice):
        lattice_mosaic(["a", "b"], [[0, 0], [0, 0]])


def test_zoo_input_checks_raise_typed_errors():
    with pytest.raises(DimensionMismatch, match="^group table is not 2x2$"):
        make_finite_group(["e", "g"], [[0, 1]])
    # a meet-semilattice without a top: a and b have no upper bound
    with pytest.raises(NotASemilattice, match="not a lattice"):
        is_modular_lattice([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(SearchCapExceeded, match="n=4"):
        enumerate_unital_hypermagmas(4)


@pytest.mark.parametrize("bad", [-2, -1, 2, 3])
def test_table_entry_out_of_range_raises_dimension_mismatch(bad):
    with pytest.raises(DimensionMismatch, match="^group table has an entry outside 0..1$"):
        make_finite_group(["e", "g"], [[0, 1], [1, bad]])
    add, mul = [[0, 1], [1, 0]], [[0, 0], [0, 1]]
    with pytest.raises(DimensionMismatch, match="^addition table has an entry outside"):
        make_finite_ring(["0", "1"], [[0, 1], [1, bad]], mul)
    with pytest.raises(DimensionMismatch, match="^multiplication table has an entry outside"):
        make_finite_ring(["0", "1"], add, [[0, 0], [0, bad]])
    with pytest.raises(DimensionMismatch, match="^meet table has an entry outside"):
        lattice_mosaic(["0", "1"], [[0, 0], [0, bad]])
    with pytest.raises(DimensionMismatch, match="^multiplication table has an entry outside"):
        check_multiring(krasner(), [[0, 0], [0, bad]], 1)


def test_table_axiom_failures_name_law_and_witness():
    # a*a = b and a*b = b*b = e: (a*a)*b = e while a*(a*b) = a
    loop = [[0, 1, 2], [1, 2, 0], [2, 0, 0]]
    with pytest.raises(NotASubgroup, match=r"^group table: associative fails at \(a, a, b\)$"):
        make_finite_group(["e", "a", "b"], loop)
    with pytest.raises(NotASubgroup, match="^group table: no identity element$"):
        make_finite_group(["a", "b"], [[0, 0], [1, 1]])
    # a monoid in which a*a = a: a has no inverse
    with pytest.raises(NotASubgroup, match=r"^group table: unique_inverses fails at \(a\)$"):
        make_finite_group(["e", "a"], [[0, 1], [1, 1]])
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    # 2*2 = 2 makes 2 an idempotent: 2*(1+1) = 2, but 2*1 + 2*1 = 1
    with pytest.raises(NotMultiring, match=r"distribute over addition at \(2, 1, 1\)$"):
        make_finite_ring(["0", "1", "2"], z3, [[0, 0, 0], [0, 1, 2], [0, 2, 2]])
    S3 = symmetric_group(3)
    with pytest.raises(NotMultiring, match=r"^addition table: commutative fails at \(\(1 2\), \(0 1\)\)$"):
        make_finite_ring(S3.labels, S3.table, S3.table)
    with pytest.raises(NotASemilattice, match=r"^meet table: commutative fails at \(0, 1\)$"):
        lattice_mosaic(["0", "1"], [[0, 0], [1, 1]])


def test_lattice_enumeration_counts():
    # unlabeled lattices on 1..7 elements (OEIS A006966)
    assert [len(enumerate_lattices(n)) for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]
    # a bounded lattice has a bottom, so none has no element
    assert enumerate_lattices(0) == []


def test_nakano_exhaustive():
    for n in range(1, 7):
        for meet in enumerate_lattices(n):
            M = lattice_mosaic([str(i) for i in range(n)], meet)
            assert analyze(M).is_hypergroup == is_modular_lattice(meet)


def test_krasner_quotient_trivial_group():
    f5 = zmod_ring(5)
    Q = krasner_quotient(f5, 1 << f5.index("1"))
    assert find_isomorphism(
        Q.additive, group_to_hypermagma(make_finite_group(f5.labels, f5.add))
    ) is not None


def test_krasner_quotient_f5_signs():
    f5 = zmod_ring(5)
    Q = krasner_quotient(f5, mask_of(f5.index(l) for l in ("1", "4")))
    H = Q.additive
    one = H.index("1")
    # oracle: {1,4} + {1,4} = {2,0,3}; classes are {0},{1,4},{2,3}
    assert H.label_set(H.table[one][one]) == ("0", "2")
    assert Q.hyperring


def test_krasner_quotient_gf9():
    Q = gf9_quotient()
    H = Q.additive
    assert H.n == 5 and Q.hyperring
    assert H.label_set(H.table[H.index("1")][H.index("i")]) == ("1+i", "1+2i")
    assert analyze(H).classification == "CanonicalHypergroup"


def test_krasner_quotient_gf4_gives_krasner():
    R = make_gf4()
    Q = krasner_quotient(R, R.units())
    assert find_isomorphism(Q.additive, krasner()) is not None
    assert Q.hyperring


def test_krasner_quotient_errors():
    f5 = zmod_ring(5)
    with pytest.raises(NotUnitSubgroup):
        krasner_quotient(f5, mask_of(f5.index(l) for l in ("0", "1")))
    with pytest.raises(NotUnitSubgroup):
        krasner_quotient(f5, mask_of(f5.index(l) for l in ("1", "2")))  # not closed: 2*2=4 missing


def test_gf9_field_facts():
    R = make_gf9()
    from hyperkit.zoo import multiplicative_generator

    alpha = multiplicative_generator(R)
    x = alpha
    powers = [alpha]
    for _ in range(7):
        x = R.mul[x][alpha]
        powers.append(x)
    assert powers[7] == R.one  # alpha^8 = 1
    minus_one = R.add[R.one].index(R.zero)
    assert powers[3] == minus_one  # alpha^4 = -1
    # characteristic 3
    assert R.add[R.one][R.add[R.one][R.one]] == R.zero
    # Frobenius x -> x^3 is a ring automorphism
    cube = [R.mul[R.mul[t][t]][t] for t in range(R.n)]
    assert sorted(cube) == list(range(R.n))
    for a in range(R.n):
        for b in range(R.n):
            assert cube[R.add[a][b]] == R.add[cube[a]][cube[b]]
            assert cube[R.mul[a][b]] == R.mul[cube[a]][cube[b]]
    F = gf9_frobenius()
    assert is_strict(F) and sorted(F.map) == list(range(5))


def test_check_multiring_flags_and_errors():
    flags = check_multiring(krasner(), ((0, 0), (0, 1)), 1)
    assert flags == {"multiring": True, "hyperring": True}
    with pytest.raises(AdditiveNotCanonical):
        check_multiring(f_mosaic(), ((0, 0, 0), (0, 1, 2), (0, 2, 1)), 1)
    with pytest.raises(ZeroNotAbsorbing):
        check_multiring(krasner(), ((0, 1), (0, 1)), 1)


def test_small_mosaic_enumeration_cross_check():
    # dual route: the reversibility-orbit enumerator against a raw scan over
    # every unital table filtered by analyze
    from hyperkit.zoo import enumerate_small_mosaics, enumerate_unital_hypermagmas

    orbit = enumerate_small_mosaics(3)
    raw = [
        M
        for M in enumerate_unital_hypermagmas(3)
        if analyze(M).is_mosaic and analyze(M).commutative
    ]
    assert len(orbit) == len(raw) == 14
    for M in raw:
        assert any(find_isomorphism(M, N) for N in orbit)


def test_canonical_hypergroups_order2():
    hs = enumerate_canonical_hypergroups(2)
    assert len(hs) == 2
    assert any(find_isomorphism(h, z2()) for h in hs)
    assert any(find_isomorphism(h, krasner()) for h in hs)


def test_canonical_hypergroups_order3_brute_force_oracle():
    found = []
    for e11 in range(1, 8):
        for e12 in range(1, 8):
            for e22 in range(1, 8):
                rows = [[1, 2, 4], [2, e11, e12], [4, e12, e22]]
                M = from_masks(("0", "1", "2"), rows)
                rep = analyze(M)
                if rep.classification in ("CanonicalHypergroup", "AbelianGroup"):
                    found.append(M)
    reps = []
    for M in found:
        if not any(find_isomorphism(M, N) for N in reps):
            reps.append(M)
    hs = enumerate_canonical_hypergroups(3)
    assert len(hs) == len(reps) == 10
    for M in reps:
        assert any(find_isomorphism(M, N) for N in hs)
    z3 = group_to_hypermagma(cyclic_group(3))
    assert any(find_isomorphism(z3, N) for N in hs)


def test_refute_coproduct_klein_injections():
    V = group_to_hypermagma(klein_four_group())
    i1 = Morphism(z2(), V, (0, 1))
    i2 = Morphism(z2(), V, (0, 2))
    r = refute_coproduct_candidate(V, i1, i2)
    assert r.refuted


def test_refute_coproduct_z2_diagonal():
    Z = z2()
    ident = Morphism(Z, Z, (0, 1))
    r = refute_coproduct_candidate(Z, ident, ident, battery=[krasner(), Z])
    assert r.refuted
    assert any("no mediating" in s or "not unique" in s for s in r.steps)


def test_coproduct_refutations_pinned():
    """Every coproduct candidate of order <= 4, replayed against the default
    battery and against [K, Z2]: the digest pins every step and witness."""
    Z = z2()
    digest = hashlib.sha256()
    last_steps = []
    for battery in (None, [krasner(), Z]):
        for n in range(1, 5):
            for Gc in enumerate_canonical_hypergroups(n):
                legs = [Morphism(Z, Gc, m) for m in enumerate_morphisms(Z, Gc, Tag.CMSC)]
                for i1, i2 in itertools.product(legs, repeat=2):
                    r = refute_coproduct_candidate(Gc, i1, i2, battery=battery)
                    digest.update(repr((r.refuted, r.steps, r.witness)).encode())
                    last_steps.append(r.steps[-1].split(" for legs ")[0])
    assert last_steps.count("no mediating morphism") == 1334
    assert last_steps.count("mediating morphism not unique") == 1152
    assert len(last_steps) == 2486
    assert digest.hexdigest() == "a47a05507fe48001adaa481e523492805efc911e8e8031478e4c13663bdc86b6"


@pytest.mark.parametrize("battery", ["default", "K-Z2"])
def test_coproduct_replay_on_the_record_matches_direct_refutation(battery):
    """The per-class hom-sets plus the replay, as the coproduct refuter runs
    them, give the Refutation of a direct call on every candidate of order
    <= 4."""
    K, Z = krasner(), z2()
    count = 0
    for n in range(1, 5):
        for Gc in enumerate_canonical_hypergroups(n):
            assert analyze(Gc).classification in ("CanonicalHypergroup", "AbelianGroup")
            objects = [K, Z, Gc] if battery == "default" else [K, Z]
            targets = [(T, enumerate_morphisms(Gc, T, Tag.CMSC), leg_pairs(T)) for T in objects]
            legs = enumerate_morphisms(Z, Gc, Tag.CMSC)
            for i1, i2 in itertools.product(legs, repeat=2):
                direct = refute_coproduct_candidate(
                    Gc,
                    Morphism(Z, Gc, i1),
                    Morphism(Z, Gc, i2),
                    battery=None if battery == "default" else [K, Z],
                )
                assert coproduct_refutation(coproduct_replay(i1, i2, targets)) == direct
                count += 1
    assert count == 1243


def test_equalizer_replay_on_the_record_matches_direct_refutation():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    count = 0
    for n in range(1, 5):
        for E in enumerate_canonical_hypergroups(n):
            for e in enumerate_morphisms(E, H, Tag.CMSC):
                if any(F.map[v] != v for v in e):
                    continue
                outcome = equalizer_replay(E, lift_points(E), e, F.map)
                direct = refute_equalizer_candidate(E, Morphism(E, H, e))
                assert equalizer_refutation(E, e, outcome) == direct
                count += 1
    assert count == 458


def test_equalizer_refutations_pinned():
    """Every equalizing candidate of order <= 4: the digest pins every step
    and witness."""
    H = gf9_quotient().additive
    F = gf9_frobenius()
    digest = hashlib.sha256()
    last_steps = []
    for n in range(1, 5):
        for E in enumerate_canonical_hypergroups(n):
            for e in enumerate_morphisms(E, H, Tag.CMSC):
                if any(F.map[v] != v for v in e):
                    continue
                r = refute_equalizer_candidate(E, Morphism(E, H, e))
                digest.update(repr((r.refuted, r.steps, r.witness)).encode())
                last_steps.append(r.steps[-1])
    assert last_steps.count("f does not factor through the candidate") == 347
    assert last_steps.count("g does not factor through the candidate") == 111
    assert len(last_steps) == 458
    assert digest.hexdigest() == "0812b321743f956847b2bb4f3f95809bee67bcf0a07932eb81c2bf8ae93fc2f9"


def test_equalizer_replay_reads_the_sum_of_the_lift_points():
    # no class reaches the sum step: on a morphism that equalizes, f or g
    # does not factor, so two non-canonical tables stand in
    H = gf9_quotient().additive
    F = gf9_frobenius()
    from hyperkit.core import weak_sub
    from hyperkit.hom import inclusion_morphism

    L = weak_sub(H, mask_of(x for x in range(H.n) if F.map[x] == x))
    inc = inclusion_morphism(L, H)
    assert analyze(L).classification not in ("CanonicalHypergroup", "AbelianGroup")
    assert lift_points(L) == (0, 1, 2)
    outcome = equalizer_replay(L, lift_points(L), inc.map, F.map)
    assert outcome == (True, (2, 1), None)
    r = equalizer_refutation(L, inc.map, outcome)
    assert r.steps[1:] == (
        "f factors via element 1",
        "g factors via element i",
        "x + y is empty, so E is not total",
    )
    assert r.witness == (2, 1)
    # the same carrier with i + 1 = {0}: z = 0 maps to an F-fixed class
    E = from_masks(L.labels, ((0b001, 0b010, 0b100), (0b010, 0b011, 0b001), (0b100, 0b001, 0b101)))
    outcome = equalizer_replay(E, lift_points(E), inc.map, F.map)
    assert outcome == (False, (2, 1), 0)
    r = equalizer_refutation(E, inc.map, outcome)
    assert not r.refuted and r.witness is None
    assert r.steps[-2:] == ("z = 0 in x+y maps to 0, F-fixed: True", "replay found no violation")


def test_refute_equalizer_weak_sub_not_candidate():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    from hyperkit.core import weak_sub
    from hyperkit.hom import inclusion_morphism

    fixed = mask_of(x for x in range(H.n) if F.map[x] == x)
    L = weak_sub(H, fixed)
    inc = inclusion_morphism(L, H)
    r = refute_equalizer_candidate(L, inc)
    assert r.refuted
    assert "not a canonical hypergroup" in r.steps[0]


def test_refute_equalizer_z2_candidates():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    Z = z2()
    count = 0
    for e in enumerate_morphisms(Z, H, Tag.CMSC):
        if any(F.map[e[x]] != e[x] for x in range(2)):
            continue
        count += 1
        r = refute_equalizer_candidate(Z, Morphism(Z, H, e))
        assert r.refuted
    assert count > 0
    bad = Morphism(Z, H, (0, H.index("1+i")))
    with pytest.raises(CandidateDoesNotEqualize):
        refute_equalizer_candidate(Z, bad)


def test_empty_sum_search_small_sizes_exhausted():
    out = empty_sum_search(4)
    assert out.witness is None
    assert any("excluded" in s for s in out.steps)


def test_empty_sum_search_witness_at_five():
    out = empty_sum_search(5)
    assert out.witness is not None
    H, x, y = out.witness
    assert H.n == 5
    rep = analyze(H)
    assert rep.classification == "CanonicalHypergroup"
    zero = H.identity
    s_mask = mask_of(t for t in range(H.n) if (H.table[t][t] >> zero) & 1)
    assert (s_mask >> x) & 1 and (s_mask >> y) & 1
    assert H.table[x][y] != 0 and H.table[x][y] & s_mask == 0


def test_empty_sum_witness_is_first_class_with_an_empty_sum():
    # oracle: scan the classes in order for distinct nonzero self-inverse
    # x < y whose sum is nonempty and holds no self-inverse element
    first = None
    for n in range(2, 6):
        for H in enumerate_canonical_hypergroups(n):
            S = mask_of(t for t in range(n) if H.table[t][t] & 1)
            pairs = [
                (x, y)
                for x, y in itertools.combinations(iter_bits(S & ~1), 2)
                if H.table[x][y] and not H.table[x][y] & S
            ]
            if pairs:
                first = (H.table, *pairs[0])
                break
        if first:
            break
    H, x, y = empty_sum_search(5).witness
    assert (H.table, x, y) == first


def test_empty_sum_search_steps():
    assert empty_sum_search(6).steps == (
        "n=2, identity involution: every element is self-inverse, any z in x+y lies in S; excluded",
        "n=3, identity involution: every element is self-inverse, any z in x+y lies in S; excluded",
        "n=3, 1 swaps: fewer than two nonzero self-inverse elements; excluded",
        "n=4, identity involution: every element is self-inverse, any z in x+y lies in S; excluded",
        "n=4, 1 swaps: fewer than two nonzero self-inverse elements; excluded",
        "n=5, identity involution: every element is self-inverse, any z in x+y lies in S; excluded",
        "n=5, 1 swaps: witness found",
    )


def test_gf9_and_krasner_are_not_witnesses():
    H = gf9_quotient().additive
    zero = H.identity
    s_mask = mask_of(t for t in range(H.n) if (H.table[t][t] >> zero) & 1)
    for x in iter_bits(s_mask):
        for y in iter_bits(s_mask):
            if x == zero or y == zero:
                continue
            assert H.table[x][y] == 0 or H.table[x][y] & s_mask
    K = krasner()
    assert K.table[1][1] & 0b01  # 0 in 1+1: the only involution pair fails


def test_f2_represents_battery():
    Z = z2()
    for G in (krasner(), z2(), gf9_quotient().additive, group_to_hypermagma(klein_four_group())):
        homs = enumerate_morphisms(Z, G, Tag.CMSC)
        fixture = [x for x in range(G.n) if (G.table[x][x] >> G.identity) & 1]
        assert sorted(h[1] for h in homs) == sorted(fixture)


@pytest.mark.parametrize(
    "fn",
    [make_gf9, gf9_quotient, gf9_frobenius, krasner, z2, _gf9_classifier_targets],
    ids=lambda fn: fn.__name__,
)
def test_memoised_constant_is_one_shared_instance(fn):
    first = fn()
    assert fn() is first
    assert first == fn.__wrapped__()
