import contextlib
import hashlib
import io
import itertools
import sys
from collections import Counter

import pytest

from hyperkit.axioms import Tag, analyze
from hyperkit import cli, search, suite, zoo
from hyperkit.core import find_isomorphism, from_masks, identity_morphism, iter_bits, mask_of
from hyperkit.errors import (
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
)
from hyperkit.hom import enumerate_morphisms, is_strict
from hyperkit.monoidal import empty_sum_search
from hyperkit.univ import equalizer
from hyperkit.zoo import (
    _gf9_classifier_targets,
    check_multiring,
    conjugacy_hypergroup,
    cyclic_group,
    double_coset_hypergroup,
    enumerate_canonical_hypergroups,
    enumerate_lattices,
    enumerate_unital_hypermagmas,
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


def _coproduct_targets(G, battery):
    """The per-class half of the coproduct refuter on G, for each object of
    `battery`."""
    return [(T, enumerate_morphisms(G, T, Tag.CMSC), leg_pairs(T)) for T in battery]


def test_refute_coproduct_klein_injections():
    V = group_to_hypermagma(klein_four_group())
    targets = _coproduct_targets(V, [krasner(), z2(), V])
    T, kind, legs = refute_coproduct_candidate((0, 1), (0, 2), targets)
    assert T == krasner() and kind in ("missing", "repeated")


def test_refute_coproduct_z2_diagonal():
    Z = z2()
    targets = _coproduct_targets(Z, [krasner(), Z])
    T, kind, legs = refute_coproduct_candidate((0, 1), (0, 1), targets)
    # the diagonal legs reach only the pairs of equal legs
    assert T == krasner() and kind == "missing" and legs[0] != legs[1]


def _class_hom_sets(n, N, route):
    """Hom(G, N) for every class G of order n, in census order: one
    `enumerate_morphisms` search per class ("scalar") or read from the
    census lanes ("lanes"), as the refuters read them."""
    if route == "scalar":
        return [enumerate_morphisms(G, N, Tag.CMSC) for G in enumerate_canonical_hypergroups(n)]
    return [list(hom) for block in suite.census_homs(n, N) for hom in block]


def _coproduct_records(route):
    """Every coproduct candidate of order <= 4, replayed against [K, Z2, G]
    and against [K, Z2], each battery's records in the refuter's order.
    Hom(G, K), Hom(G, Z2) and the legs Hom(Z2, G) come from `route`
    (`_class_hom_sets`, and `z2_homs` on the lanes route); Hom(G, G) is
    searched."""
    K, Z = krasner(), z2()
    names = {K: "K", Z: "Z2"}
    records = {"default": [], "K-Z2": []}
    for n in range(1, 5):
        classes = enumerate_canonical_hypergroups(n)
        to_k, to_z = (_class_hom_sets(n, T, route) for T in (K, Z))
        for Gc, maps_k, maps_z in zip(classes, to_k, to_z):
            if route == "scalar":
                legs = enumerate_morphisms(Z, Gc, Tag.CMSC)
            else:
                legs = suite.z2_homs(Gc.inverse)
            ours = [(K, maps_k, leg_pairs(K)), (Z, maps_z, leg_pairs(Z))]
            for battery, targets in (("default", ours + _coproduct_targets(Gc, [Gc])), ("K-Z2", ours)):
                for i1, i2 in itertools.product(legs, repeat=2):
                    T, kind, pair = refute_coproduct_candidate(i1, i2, targets)
                    records[battery].append((names[T], kind, pair))
    return records


def test_coproduct_refutations_pinned():
    """Every candidate fails on K or Z2, so both batteries return the same
    records: the first object that fails, how, and for which legs.  The
    hom-sets the refuter reads from the census lanes give the records of
    the scalar searches."""
    records = _coproduct_records("scalar")
    assert _coproduct_records("lanes") == records
    assert records["default"] == records["K-Z2"]
    kinds = Counter(kind for _, kind, _ in records["default"] + records["K-Z2"])
    assert kinds == {"missing": 1334, "repeated": 1152} and kinds.total() == 2486
    assert Counter(r[:2] for r in records["default"]) == {
        ("K", "missing"): 663,
        ("K", "repeated"): 576,
        ("Z2", "missing"): 4,
    }
    # the legs of every record, in the refuter's order
    digest = hashlib.sha256(repr(records["default"]).encode()).hexdigest()
    assert digest == "818b1a9c23a5eebee8a12b19fd8a106546613779a41be12eb964aa2d9ecdbc1f"


def _equalizer_records(max_size, route):
    """(n, refuted, lift points, z) for every equalizing candidate of order
    <= max_size, in the order the equalizer refuter walks them, with
    Hom(E, L) from `route` (`_class_hom_sets`)."""
    H, F = gf9_quotient().additive, gf9_frobenius()
    L, inc = equalizer(identity_morphism(H), F)
    out = []
    for n in range(1, max_size + 1):
        classes = enumerate_canonical_hypergroups(n)
        for E, maps in zip(classes, _class_hom_sets(n, L, route)):
            points = lift_points(E)
            for h in maps:
                e = tuple(inc.map[v] for v in h)
                out.append((n, *refute_equalizer_candidate(E, points, e, F.map)))
    return out


def test_equalizer_refutations_pinned():
    """Every equalizing candidate of order <= 5 is refuted before the sum
    step: f (no lift point) or g (one lift point) does not factor.  Hom(E,
    L) read from the census lanes gives the records of the scalar
    searches."""
    records = _equalizer_records(5, "scalar")
    assert _equalizer_records(5, "lanes") == records
    assert all(refuted and z is None for _, refuted, _, z in records)
    through_4 = Counter(len(lifts) for n, _, lifts, _ in records if n <= 4)
    assert through_4 == {0: 347, 1: 111} and through_4.total() == 458
    through_5 = Counter(len(lifts) for _, _, lifts, _ in records)
    assert through_5 == {0: 9776, 1: 4386} and through_5.total() == 14162
    # the lift points of every record, in the refuter's order
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "832088d53fde028db9a005dbd5a59012b2302a4d9f46ceddf3ed63de48548ab0"


def test_refute_equalizer_candidate_reads_the_sum_of_the_lift_points():
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
    # f factors via 1 and g via i, and 1 + i is empty, so L is not total
    assert refute_equalizer_candidate(L, lift_points(L), inc.map, F.map) == (True, (2, 1), None)
    # the same carrier with i + 1 = {0}: z = 0 maps to an F-fixed class
    E = from_masks(L.labels, ((0b001, 0b010, 0b100), (0b010, 0b011, 0b001), (0b100, 0b001, 0b101)))
    assert refute_equalizer_candidate(E, lift_points(E), inc.map, F.map) == (False, (2, 1), 0)


def test_refute_equalizer_z2_candidates():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    Z = z2()
    count = 0
    for e in enumerate_morphisms(Z, H, Tag.CMSC):
        if any(F.map[e[x]] != e[x] for x in range(2)):
            continue
        count += 1
        assert refute_equalizer_candidate(Z, lift_points(Z), e, F.map)[0]
    assert count > 0


def test_traced_refuter_names_count_the_candidates(monkeypatch):
    """Each candidate of the two refuters is one call of its traced name:
    rebound in every hyperkit namespace, as a tracer rebinds it, the calls
    in `paper-suite --max-size 4` match the counts in the detail lines."""
    calls = Counter()
    for name in ("refute_coproduct_candidate", "refute_equalizer_candidate"):
        original = getattr(zoo, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hyperkit" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["paper-suite", "--max-size", "4"]) == 0
    lines = out.getvalue().splitlines()
    assert "PASS coproduct-refuter: all 1243 candidates of size <= 4 refuted" in lines
    assert "PASS equalizer-refuter: all 458 equalizing candidates of size <= 4 refuted" in lines
    assert calls == {"refute_coproduct_candidate": 1243, "refute_equalizer_candidate": 458}


def test_refuters_search_no_hom_set_out_of_a_class(monkeypatch):
    """At default size the three refuters read every hom-set out of a
    census class from the lanes and the inverse maps: none of their
    `enumerate_morphisms` calls has a class as its domain."""

    domains = []
    original = enumerate_morphisms

    def spy(M, N, tag):
        domains.append(M)
        return original(M, N, tag)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "hyperkit" and vars(module).get("enumerate_morphisms") is original:
            monkeypatch.setattr(module, "enumerate_morphisms", spy)
    with search.scope():
        classes = {id(G) for n in range(1, 6) for _, block, _ in zoo.census_blocks(n) for G in block}
        assert len(classes) == 3886
        for check in (
            suite.check_klein_four_refuter,
            suite.check_coproduct_refuter,
            suite.check_equalizer_refuter,
        ):
            assert check(5)[0]
    # leg_pairs(K), leg_pairs(Z2) and Hom(V x V, K) remain
    assert domains and not any(id(M) in classes for M in domains)


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
