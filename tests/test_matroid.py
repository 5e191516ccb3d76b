import itertools
import random

import pytest

from hyperkit.axioms import analyze
from hyperkit.core import Morphism, iter_bits, mask_of, strict_sub_closure
from hyperkit.errors import (
    DimensionMismatch,
    DuplicateLabel,
    ExchangeFails,
    FlatsNotIntersectionClosed,
    NoMatroidData,
    NotSimplePointed,
    SearchCapExceeded,
)
from hyperkit.hom import is_colax, is_unital
from hyperkit.matroid import (
    CONVERT_CAP,
    FANO_LINES,
    FLATS_CAP,
    Matroid,
    adjoin_point,
    fano_matroid,
    graphic_matroid,
    is_simple,
    is_strong_map,
    make_matroid,
    matroid_to_mosaic,
    projective_checks,
    projective_law_holds,
    simplify,
    uniform_matroid,
)
from hyperkit.monoidal import enumerate_strict_submosaics


def test_make_uniform():
    M = uniform_matroid(2, 3)
    assert is_simple(M)
    assert M.closure(0) == 0
    assert M.closure(0b011) == 0b111


def test_make_fano():
    F = fano_matroid()
    assert len(F.flats) == 1 + 7 + 7 + 1
    for line in FANO_LINES:
        p, q = line[0] - 1, line[1] - 1
        assert F.closure((1 << p) | (1 << q)) == mask_of(x - 1 for x in line)


def test_free_matroid():
    ground = ["a", "b", "c"]
    M = make_matroid(ground, flats=[S for S in range(8)])
    assert all(M.closure(S) == S for S in range(8))


def test_flats_validation():
    with pytest.raises(FlatsNotIntersectionClosed):
        make_matroid(["a", "b", "c"], flats=[0b011, 0b101, 0b111])
    with pytest.raises(FlatsNotIntersectionClosed):
        make_matroid(["a", "b"], flats=[0])  # ground missing
    with pytest.raises(FlatsNotIntersectionClosed):
        make_matroid(["a", "b", "c"], flats=[0b001, 0b010, 0b111])  # meet of a, b missing


def test_rank_oracle_that_is_no_matroid_is_rejected():
    # r(ab) = r(bc) = 1 but r(ac) = 2: the closures ab and bc meet in b,
    # which is no closure
    r = {0: 0, 0b001: 1, 0b010: 1, 0b100: 1, 0b011: 1, 0b110: 1, 0b101: 2, 0b111: 2}
    with pytest.raises(FlatsNotIntersectionClosed):
        make_matroid(["a", "b", "c"], rank=r.__getitem__)


def _old_check_exchange(M):
    """The exchange check as it was, with its 32 seeded spot checks over
    arbitrary subsets after the loop over the flats."""
    n = M.n

    def exchange_holds(S, C):
        for x in range(n):
            for y in range(n):
                if (C >> x) & 1 or (C >> y) & 1 or y == x:
                    continue
                if (M.closure(S | 1 << y) >> x) & 1 and not (M.closure(S | 1 << x) >> y) & 1:
                    return False
        return True

    rng = random.Random(0xC105)
    spots = [rng.randrange(1 << n) if n else 0 for _ in range(32)]
    return all(exchange_holds(S, S) for S in M.flats) and all(
        exchange_holds(S, M.closure(S)) for S in spots
    )


def _exchange_failure_per_pair(M):
    """The exchange check over the flats with two closure scans per
    (S, x, y), in the same loop order: the message of its first failure."""
    n = M.n
    for S in M.flats:
        for x in range(n):
            if (S >> x) & 1:
                continue
            for y in range(n):
                if (S >> y) & 1 or y == x:
                    continue
                if (M.closure(S | (1 << y)) >> x) & 1:
                    if not (M.closure(S | (1 << x)) >> y) & 1:
                        return (
                            f"exchange fails at S={M.label_set(S)}, "
                            f"x={M.ground[x]}, y={M.ground[y]}"
                        )
    return None


def test_exchange_over_flats_agrees_with_old_spot_checks():
    # every intersection-closed family on at most 4 points that holds the
    # ground set; the accepted ones are the labelled matroids (OEIS A058673)
    families, accepted = 0, []
    for n in range(5):
        full = (1 << n) - 1
        ground = [str(i) for i in range(n)]
        others = range(full)
        count = 0
        for bits in range(1 << full):
            fl = [full] + [F for F in others if (bits >> F) & 1]
            if any(A & B not in fl for A in fl for B in fl):
                continue
            families += 1
            try:
                make_matroid(ground, flats=fl)
                failure = None
            except ExchangeFails as exc:
                failure = str(exc)
            M = Matroid(tuple(ground), tuple(sorted(fl)))
            assert failure == _exchange_failure_per_pair(M)
            assert (failure is None) == _old_check_exchange(M)
            count += failure is None
        accepted.append(count)
    assert families == 2551
    assert accepted == [1, 2, 5, 16, 68]


def test_exchange_failure_detected():
    # {a,b} and {c,d} closed but singleton closures break exchange
    with pytest.raises(ExchangeFails):
        make_matroid(
            ["a", "b", "c", "d"],
            flats=[0, 0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b1100, 0b1111],
        )


def test_adjoin_point_rejects_a_label_in_the_ground_set():
    with pytest.raises(DuplicateLabel, match="'b'"):
        adjoin_point(uniform_matroid(2, 3), label="b")


def test_make_matroid_needs_some_data():
    with pytest.raises(NoMatroidData):
        make_matroid(["a", "b"])


def _rank_one(key: str, n: int) -> dict:
    """U(1, n) on p0..p(n-1) as `key` input: its flats are the empty set and
    the ground set."""
    if key == "flats":
        return {"flats": [0, (1 << n) - 1]}
    if key == "rank":
        return {"rank": lambda S: int(S != 0)}
    return {"independent": [0] + [1 << i for i in range(n)]}


@pytest.mark.parametrize(
    "key, cap, message",
    [
        ("flats", FLATS_CAP, "flats input capped at 14 elements"),
        ("rank", CONVERT_CAP, "conversion input capped at 10 elements"),
        ("independent", CONVERT_CAP, "conversion input capped at 10 elements"),
    ],
)
def test_fixed_size_limits_hold_whatever_the_search_cap(monkeypatch, key, cap, message):
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", str(10**12))
    ground = [f"p{i}" for i in range(cap + 1)]
    assert len(make_matroid(ground[:cap], **_rank_one(key, cap)).flats) == 2
    with pytest.raises(SearchCapExceeded, match=f"^{message}$"):
        make_matroid(ground, **_rank_one(key, cap + 1))


def test_closure_operator_laws():
    for M in (uniform_matroid(2, 4), fano_matroid(), graphic_matroid([("u", "v"), ("v", "w"), ("u", "w")])):
        full = (1 << M.n) - 1
        for S in range(full + 1):
            C = M.closure(S)
            assert S & ~C == 0
            assert M.closure(C) == C
        rng = random.Random(7)
        for _ in range(50):
            S = rng.randrange(full + 1)
            T = S | rng.randrange(full + 1)
            assert M.closure(S) & ~M.closure(T) == 0


def _scan_closure(M, S):
    """cl(S) as the intersection of every flat that holds S."""
    out = (1 << M.n) - 1
    for F in M.flats:
        if S & ~F == 0:
            out &= F
    return out


def _closure_battery():
    tri = graphic_matroid([("u", "v"), ("v", "w"), ("u", "w")])
    loopy = graphic_matroid([("u", "v"), ("v", "w"), ("u", "w"), ("u", "u")])
    parallel = make_matroid(["a", "b", "c"], flats=[0, 0b011, 0b100, 0b111])
    battery = [
        make_matroid([], flats=[0]),
        make_matroid(["a", "b", "c"], flats=list(range(8))),
        uniform_matroid(2, 3),
        uniform_matroid(2, 4),
        uniform_matroid(3, 4),
        uniform_matroid(2, 11),
        fano_matroid(),
        tri,
        loopy,
        parallel,
        make_matroid([f"p{i}" for i in range(10)], rank=int.bit_count),
    ]
    battery += [adjoin_point(M) for M in battery[2:7]]
    battery += [simplify(M, pointed)[0] for M in (loopy, parallel) for pointed in (False, True)]
    return battery


def test_closure_matches_scan_over_flats():
    for M in _closure_battery():
        for S in range(1 << M.n):
            assert M.closure(S) == _scan_closure(M, S), (M.ground, S)


def test_rank_and_independent_input():
    tri = graphic_matroid([("u", "v"), ("v", "w"), ("u", "w")])
    uni = uniform_matroid(2, 3)
    assert sorted(tri.flats) == sorted(uni.flats)
    ind = make_matroid(
        ["a", "b", "c"],
        independent=[0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110],
    )
    assert sorted(ind.flats) == sorted(uni.flats)


def test_simplify_identity_on_simple():
    M = uniform_matroid(2, 3)
    S, unit = simplify(M)
    assert sorted(S.flats) == sorted(M.flats)
    assert unit == (0, 1, 2)


def test_simplify_merges_parallel():
    M = make_matroid(["a", "b", "c"], flats=[0, 0b011, 0b100, 0b111])
    S, unit = simplify(M)
    assert S.ground == ("a", "c")
    assert unit == (0, 0, 1)
    SP, unitp = simplify(M, pointed=True)
    assert SP.ground == ("0", "a", "c")
    assert SP.pointed == 0
    assert unitp == (1, 1, 2)


def test_simplify_loopy_pointed():
    g = graphic_matroid([("u", "v"), ("v", "w"), ("u", "w"), ("u", "u")])
    assert g.loops() == 0b1000
    S, unit = simplify(g, pointed=True)
    assert S.pointed == 0 and is_simple(S)
    assert unit[3] == 0
    # unpointed simplification of a loopy matroid has no strong unit map
    S2, unit2 = simplify(g)
    assert unit2 is None


def test_simplify_pointed_label_passes_every_primed_atom():
    # the adjoined point is primed past every atom label, not only once
    M = make_matroid(["0", "0'"], flats=[0, 1, 2, 3])
    S, unit = simplify(M, pointed=True)
    assert S.ground == ("0''", "0", "0'")
    assert unit == (1, 2)
    assert matroid_to_mosaic(S).labels == S.ground


def test_mosaic_u23():
    M = adjoin_point(uniform_matroid(2, 3))
    H = matroid_to_mosaic(M)
    a, b, c = H.index("a"), H.index("b"), H.index("c")
    assert H.table[a][b] == 1 << c
    assert H.table[a][a] == (1 << a) | (1 << H.identity)
    rep = analyze(H)
    assert rep.classification == "CommutativeMosaic"
    assert all(H.inverse[x] == x for x in range(H.n))
    # x + y stays inside C(x, y)
    for x in range(H.n):
        for y in range(H.n):
            assert H.table[x][y] & ~M.closure((1 << x) | (1 << y)) == 0


def test_mosaic_fano_witness_shape():
    H = matroid_to_mosaic(adjoin_point(fano_matroid()))
    rep = analyze(H)
    assert rep.classification == "CommutativeMosaic"
    x, y, z = rep.witness("associative")
    assert x == y and z not in (x, H.identity)


def test_mosaic_u24_hypergroup():
    H = matroid_to_mosaic(adjoin_point(uniform_matroid(2, 4)))
    assert analyze(H).classification == "CanonicalHypergroup"


def test_mosaic_requires_simple_pointed():
    with pytest.raises(NotSimplePointed):
        matroid_to_mosaic(uniform_matroid(2, 3))
    par = make_matroid(["a", "b", "c"], flats=[0, 0b011, 0b100, 0b111])
    with pytest.raises(NotSimplePointed):
        matroid_to_mosaic(adjoin_point(par))


def test_strong_maps_to_mosaic_morphisms():
    u23 = adjoin_point(uniform_matroid(2, 3))
    u24 = adjoin_point(uniform_matroid(2, 4))
    H23, H24 = matroid_to_mosaic(u23), matroid_to_mosaic(u24)
    assert is_strong_map(u23, u23, tuple(range(u23.n)))
    count = 0
    for f in itertools.product(range(u24.n), repeat=u23.n):
        if f[u23.pointed] != u24.pointed:
            continue
        if is_strong_map(u23, u24, f):
            count += 1
            m = Morphism(H23, H24, f)
            assert is_colax(m) and is_unital(m)
    assert count > 0


# a map that leaves N, or has the wrong length, is no map of ground sets:
# each raises DimensionMismatch, as a Morphism with that map would
@pytest.mark.parametrize(
    "f",
    [(0, 99, 99, 99), (0, 1, 2, 3, 0), (0, 1, 2), (0, -1, 2, 3), ()],
    ids=["image-outside", "too-long", "too-short", "negative", "empty"],
)
def test_strong_map_rejects_maps_that_are_not_maps_of_ground_sets(f):
    u23 = adjoin_point(uniform_matroid(2, 3))
    with pytest.raises(DimensionMismatch):
        is_strong_map(u23, u23, f)


def test_matroid_flat_set_is_not_a_field():
    M = adjoin_point(uniform_matroid(2, 3))
    assert M._flat_set == set(M.flats)
    assert "_flat_set" not in repr(M)
    assert M == Matroid(M.ground, M.flats, M.pointed) and hash(M) == hash(
        Matroid(M.ground, M.flats, M.pointed)
    )


def test_strong_map_functoriality():
    u23 = adjoin_point(uniform_matroid(2, 3))
    strong = [
        f
        for f in itertools.product(range(u23.n), repeat=u23.n)
        if f[0] == 0 and is_strong_map(u23, u23, f)
    ]
    for f in strong[:6]:
        for g in strong[:6]:
            comp = tuple(g[f[x]] for x in range(u23.n))
            assert is_strong_map(u23, u23, comp)


def test_fano_line_collapse_is_not_strong():
    # sending a line complement to the point is not a strong map: the
    # preimage of {0} is the complement plus 0, which is not closed
    fano = adjoin_point(fano_matroid())
    u23 = adjoin_point(uniform_matroid(2, 3))
    line = FANO_LINES[0]
    f = [0] * fano.n
    for tgt, p in enumerate(line):
        f[fano.index(str(p))] = tgt + 1
    assert not is_strong_map(fano, u23, tuple(f))


def test_line_inclusion_is_strong():
    u23 = adjoin_point(uniform_matroid(2, 3))
    fano = adjoin_point(fano_matroid())
    line = FANO_LINES[0]
    f = [0, fano.index(str(line[0])), fano.index(str(line[1])), fano.index(str(line[2]))]
    assert is_strong_map(u23, fano, tuple(f))


def test_projective_checks_fano_u24():
    fano = adjoin_point(fano_matroid())
    u24 = adjoin_point(uniform_matroid(2, 4))
    pc = projective_checks(fano, others=[u24])
    assert pc["projective_law"] and pc["closure_eq_generated"] and pc["fullness"]
    pc24 = projective_checks(u24, others=[fano, u24])
    assert pc24["projective_law"] and pc24["closure_eq_generated"] and pc24["fullness"]


def test_projective_checks_past_ten_points_test_every_subset():
    # 12 points: a rank-2 uniform matroid is projective, and closure equals
    # the generated strict submosaic on all 4096 subsets
    u211 = adjoin_point(uniform_matroid(2, 11))
    pc = projective_checks(u211)
    assert pc["projective_law"] and pc["closure_eq_generated"] and pc["fullness"]


def test_projective_law_fails_u34():
    u34 = adjoin_point(uniform_matroid(3, 4))
    ok, witness = projective_law_holds(u34)
    assert not ok and witness is not None
    S, T = witness
    union = 0
    for x in iter_bits(S):
        for y in iter_bits(T):
            union |= u34.closure((1 << x) | (1 << y))
    assert union != u34.closure(S | T)


def test_closed_sets_are_strict_submosaics_for_projective():
    fano = adjoin_point(fano_matroid())
    H = matroid_to_mosaic(fano)
    subs = set(enumerate_strict_submosaics(H))
    assert subs == set(fano.flats)
    # and closure agrees with the generated strict submosaic
    for S in range(0, 1 << fano.n, 7):
        assert fano.closure(S) == strict_sub_closure(H, S)
