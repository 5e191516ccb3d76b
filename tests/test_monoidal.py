import collections
import functools
import itertools
import os
import subprocess
import sys

import pytest

import hyperkit
from hyperkit import axioms, core
from hyperkit.axioms import Tag, analyze
from hyperkit.core import Morphism, find_isomorphism, from_masks, terminal
from hyperkit.errors import (
    HyperkitError,
    NotAMosaic,
    NotCommutativeMosaic,
    NotMultiring,
    NotUnital,
)
from hyperkit.hom import enumerate_morphisms, is_colax, is_strict
from hyperkit.monoidal import (
    Bimorphism,
    boxdot,
    boxtimes,
    curry,
    empty_sum_search,
    enumerate_bimorphisms,
    enumerate_strict_submosaics,
    hom_object,
    is_bimorphism,
    is_strict_bimorphism,
    represents_bimorphisms,
    strict_classifier_check,
    tensor,
    to_monoid_object,
    uncurry,
    wedge_smash,
    wedge_unit,
)
from hyperkit.search import scope
from hyperkit.suite import _matrix_count
from hyperkit.univ import free, one_empty, product
from hyperkit.zoo import (
    Multiring,
    cyclic_group,
    check_multiring,
    enumerate_canonical_hypergroups,
    gf9_quotient,
    group_to_hypermagma,
    krasner,
    krasner_multiring,
    make_multiring,
    make_finite_group,
    subdistributive_multiring,
    zmod_ring,
)

from util import f_mosaic, klein, mixed3, z2


def test_boxdot_four_cases():
    K = krasner()
    B = boxdot(K, K)
    i11 = B.index("1|1")
    assert B.label_set(B.table[i11][i11]) == ("0|1", "1|0", "1|1")
    # mixed coordinates with both different give the empty set
    assert B.table[B.index("0|1")][B.index("1|0")] == 0
    # same first coordinate: x boxdot (y * y')
    assert B.label_set(B.table[B.index("1|0")][B.index("1|1")]) == ("1|1",)


def test_boxdot_unit():
    for M in (krasner(), z2(), mixed3()):
        T, u = tensor(one_empty(), M, Tag.HMAG)
        assert find_isomorphism(T, M) is not None


def test_wedge_cardinality_and_z2_value():
    for M, N in itertools.product((krasner(), z2(), f_mosaic()), repeat=2):
        q = wedge_smash(M, N)
        assert q.cod.n == (M.n - 1) * (N.n - 1) + 1
    q = wedge_smash(z2(), z2())
    W = q.cod
    w = 1 - W.identity
    # (1,1)+(1,1) in the boxdot lands entirely inside the collapsed set E,
    # so the smash square of the generator is the unit alone
    assert W.table[w][w] == 1 << W.identity
    assert find_isomorphism(W, z2()) is not None


def test_wedge_unit_object():
    F1 = wedge_unit()
    assert F1.n == 2
    for M in (krasner(), z2(), f_mosaic(), klein()):
        T, _ = tensor(F1, M, Tag.UHMAG)
        assert find_isomorphism(T, M) is not None
        # the terminal object is not a unit: it collapses everything
        C, _ = tensor(terminal(), M, Tag.UHMAG)
        assert C.n == 1


def test_boxtimes_unit_and_closure():
    F = f_mosaic()
    for M in (krasner(), z2(), klein(), gf9_quotient().additive):
        q = boxtimes(F, M)
        assert find_isomorphism(q.cod, M) is not None
        rep = analyze(q.cod)
        assert rep.is_mosaic and rep.commutative


def test_boxtimes_z2_z2():
    bt = boxtimes(z2(), z2())
    T = bt.cod
    assert T.n == 2
    # representability oracle: Bim(Z2,Z2;L) = {t | 0 in t+t} = Can(Z2,L),
    # so the tensor square of Z2 is Z2 itself, not the Krasner hypergroup
    for L in (z2(), krasner(), f_mosaic()):
        bims = enumerate_bimorphisms(z2(), z2(), L, Tag.CMSC)
        self_inv = [t for t in range(L.n) if (L.table[t][t] >> L.identity) & 1]
        assert len(bims) == len(self_inv)
        assert len(enumerate_morphisms(T, L, Tag.CMSC)) == len(bims)
    assert find_isomorphism(T, z2()) is not None
    assert find_isomorphism(T, krasner()) is None


def test_boxtimes_nondegenerate():
    for M, N in itertools.product((krasner(), z2(), f_mosaic()), repeat=2):
        q = boxtimes(M, N)
        pi = q.map
        for x in range(M.n):
            for y in range(N.n):
                if x != M.identity and y != N.identity:
                    assert pi[x * N.n + y] != q.cod.identity


def _counted(monkeypatch, module, name):
    """The list that records each call of module.name, made through any
    hyperkit module that binds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("hyperkit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _fresh(M, suffix):
    return from_masks([f"{l}~{suffix}" for l in M.labels], M.table)


def test_boxtimes_builds_each_object_once_and_reports_no_axioms(monkeypatch):
    """On fresh copies of V and V, whose inversion is trivial, one boxtimes
    builds the boxdot and the smash, and the coequalizer of the identity
    and (-1) wedge (-1) is the smash itself; the guards run no axiom report.
    Z3 (x) K, whose inversion is not trivial, builds its second quotient."""
    A, B = _fresh(klein(), "a"), _fresh(klein(), "b")
    C, D = _fresh(group_to_hypermagma(cyclic_group(3)), "c"), _fresh(krasner(), "d")
    built = _counted(monkeypatch, core, "from_masks")
    reports = _counted(monkeypatch, axioms, "axiom_report")
    VV = boxtimes(A, B)
    assert (len(built), len(reports)) == (2, 0)
    del built[:]
    ZK = boxtimes(C, D)
    assert (len(built), len(reports)) == (3, 0)
    monkeypatch.undo()
    assert VV.cod == wedge_smash(A, B).cod and VV.cod.n == 10
    assert (ZK.cod.n, wedge_smash(C, D).cod.n) == (2, 3)


def test_boxtimes_rejects_noncommutative_input():
    with pytest.raises(NotCommutativeMosaic):
        boxtimes(mixed3(), z2())


def test_tensors_symmetric_via_swap_map():
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.CMSC):
        for M, N in (
            (krasner(), z2()),
            (z2(), f_mosaic()) if tag is not Tag.HMAG else (krasner(), mixed3()),
        ):
            A, uA = tensor(M, N, tag)
            B, uB = tensor(N, M, tag)
            # the canonical swap sends the class of (x, y) to the class of (y, x)
            swap = [None] * A.n
            for x in range(M.n):
                for y in range(N.n):
                    src = uA(x, y)
                    tgt = uB(y, x)
                    assert swap[src] in (None, tgt)
                    swap[src] = tgt
            m = Morphism(A, B, tuple(swap))
            assert is_strict(m)
            assert sorted(m.map) == list(range(B.n))


def test_unit_laws_via_explicit_maps():
    # each unit law is witnessed by the explicit map from the construction
    for M in (krasner(), z2(), mixed3()):
        T, u = tensor(one_empty(), M, Tag.HMAG)
        # pair (1, m) sits at index m, so the underlying map is the identity
        unit_map = Morphism(T, M, tuple(range(M.n)))
        assert is_strict(unit_map) and sorted(unit_map.map) == list(range(M.n))
    F1 = wedge_unit()
    g = 1 - F1.identity
    for M in (krasner(), z2(), f_mosaic()):
        T, u = tensor(F1, M, Tag.UHMAG)
        out = [None] * T.n
        out[T.identity] = M.identity
        for m in range(M.n):
            cls = u(g, m)
            out[cls] = M.identity if cls == T.identity else m
        unit_map = Morphism(T, M, tuple(out))
        assert is_strict(unit_map) and sorted(unit_map.map) == list(range(M.n))
    F = f_mosaic()
    one, minus = F.index("1"), F.index("-1")
    for M in (krasner(), z2(), klein()):
        T, u = tensor(F, M, Tag.CMSC)
        out = [None] * T.n
        out[T.identity] = M.identity
        for m in range(M.n):
            for s, img in ((one, m), (minus, M.inverse[m])):
                cls = u(s, m)
                expected = M.identity if cls == T.identity else img
                assert out[cls] in (None, expected)
                out[cls] = expected
        unit_map = Morphism(T, M, tuple(out))
        assert is_strict(unit_map) and sorted(unit_map.map) == list(range(M.n))


def test_hom_object_z2_k():
    H = hom_object(z2(), krasner(), Tag.CMSC)
    assert H.n == 2
    tau = H.index("(0,1)")
    assert H.label_set(H.table[tau][tau]) == ("(0,0)", "(0,1)")
    assert find_isomorphism(H, krasner()) is not None


def test_hom_object_terminal_target():
    for M in (krasner(), z2()):
        H = hom_object(M, terminal(), Tag.UHMAG)
        assert H.n == 1


def test_hom_objects_commutative_mosaics():
    bat = [z2(), krasner(), f_mosaic(), klein()]
    for M in bat:
        for N in bat:
            rep = analyze(hom_object(M, N, Tag.CMSC))
            assert rep.is_mosaic and rep.commutative


def test_hom_object_commutative_codomain_any_domain():
    # commutative codomains give commutative hom objects in every tag
    for M in (mixed3(), krasner()):
        rep = analyze(hom_object(M, krasner(), Tag.HMAG))
        assert rep.commutative


def test_hom_object_with_empty_sum_is_not_hypergroup():
    out = empty_sum_search(5)
    H, x, y = out.witness
    Hm = hom_object(z2(), H, Tag.CMSC)
    rep = analyze(Hm)
    assert not rep.total and not rep.is_hypergroup
    assert rep.is_mosaic and rep.commutative


@functools.cache
def _brute_force_matrix_count(L):
    """Every 3x3 matrix over L, kept when its entries are self-inverse and
    each row and column (a, b, c) has a in b + c."""
    neg = L.inverse
    count = 0
    for mat in itertools.product(range(L.n), repeat=9):
        if any(neg[v] != v for v in mat):
            continue
        x = [mat[0:3], mat[3:6], mat[6:9]]
        cols = all((L.table[x[1][j]][x[2][j]] >> x[0][j]) & 1 for j in range(3))
        rows = all((L.table[x[i][1]][x[i][2]] >> x[i][0]) & 1 for i in range(3))
        if cols and rows:
            count += 1
    return count


def test_bimorphism_counts_match_matrix_oracle():
    V = klein()
    for L in (krasner(), V):
        bims = enumerate_bimorphisms(V, V, L, Tag.CMSC)
        assert all(is_bimorphism(Bimorphism(V, V, L, b), Tag.CMSC) for b in bims)
        count = _brute_force_matrix_count(L)
        assert len(bims) == count


def test_bimorphisms_quoted_matrices():
    V, K = klein(), krasner()

    def inner(b):
        return tuple(tuple(b[i][j] for j in range(1, 4)) for i in range(1, 4))

    tables_K = {inner(b) for b in enumerate_bimorphisms(V, V, K, Tag.CMSC)}
    assert tuple((1, 1, 1) for _ in range(3)) in tables_K
    assert ((0, 0, 0), (0, 1, 1), (0, 1, 1)) in tables_K
    a = [V.index(t) for t in ("a1", "a2", "a3")]
    cyclic = ((a[0], a[1], a[2]), (a[1], a[2], a[0]), (a[2], a[0], a[1]))
    assert cyclic in {inner(b) for b in enumerate_bimorphisms(V, V, V, Tag.CMSC)}
    # exactly one matrix without zero entries over K: the all-ones matrix
    nonzero = [
        b
        for b in enumerate_bimorphisms(V, V, K, Tag.CMSC)
        if all(v != K.identity for row in inner(b) for v in row)
    ]
    assert len(nonzero) == 1


def test_bimorphisms_to_terminal():
    assert len(enumerate_bimorphisms(klein(), klein(), terminal(), Tag.UHMAG)) == 1


def test_curry_uncurry_roundtrip():
    cases = [
        (Tag.HMAG, one_empty(), krasner(), z2()),
        (Tag.HMAG, free(Tag.HMAG, ("a",)), free(Tag.HMAG, ("a",)), krasner()),
        (Tag.UHMAG, z2(), krasner(), krasner()),
        (Tag.CMSC, z2(), z2(), krasner()),
        (Tag.CMSC, klein(), z2(), krasner()),
    ]
    for tag, X, Y, Z in cases:
        T, u = tensor(X, Y, tag)
        left = enumerate_morphisms(T, Z, tag)
        right = enumerate_morphisms(X, hom_object(Y, Z, tag), tag)
        assert len(left) == len(right)
        left = [Morphism(T, Z, phi) for phi in left]
        curried = [curry(phi, X, Y, tag) for phi in left]
        assert sorted(c.map for c in curried) == sorted(right)
        for phi, psi in zip(left, curried):
            assert uncurry(psi, Y, Z, tag) == phi


def test_represents_bimorphisms():
    K, Z, F = krasner(), z2(), f_mosaic()
    _, u = tensor(Z, Z, Tag.CMSC)
    ok, witness = represents_bimorphisms(u, [K, Z, F], Tag.CMSC)
    assert ok and witness is None
    _, ub = tensor(K, Z, Tag.HMAG)
    ok, _ = represents_bimorphisms(ub, [K, Z, mixed3()], Tag.HMAG)
    assert ok
    # the zero bimorphism into the direct product is not universal
    V = klein()
    P = product([V, V]).apex
    zero = Bimorphism(
        V, V, P, tuple(tuple(P.identity for _ in range(4)) for _ in range(4))
    )
    ok, witness = represents_bimorphisms(zero, [K, Z, V], Tag.CMSC)
    assert not ok and witness.endswith(" at battery[0] (0|1)")
    # K and Z2 share the labels 0|1; the position says which one failed
    ok, witness = represents_bimorphisms(zero, [terminal(), Z, V], Tag.CMSC)
    assert not ok and witness == "pairing not injective at battery[1] (0|1)"


def test_wedge_smash_and_tensor_reject_what_they_cannot_build():
    with pytest.raises(NotUnital, match="wedge-smash needs unital factors"):
        wedge_smash(mixed3(), z2())
    with pytest.raises(NotCommutativeMosaic, match="no tensor product for tag"):
        tensor(z2(), z2(), Tag.MSC)


def test_strict_classifier():
    assert len(enumerate_strict_submosaics(z2())) == 2
    assert len(enumerate_strict_submosaics(f_mosaic())) == 2
    assert len(enumerate_strict_submosaics(terminal())) == 1
    for M in (z2(), krasner(), f_mosaic(), klein(), terminal()):
        assert strict_classifier_check(M)
    with pytest.raises(NotAMosaic):
        strict_classifier_check(mixed3())


def test_monoid_objects():
    R = krasner_multiring()
    mo = to_monoid_object(R)
    # the unit map sends the free generator 1 to 1, and -1 to its inverse
    assert mo.mosaic is R.additive and mo.unit.map == (0, 1, 1)
    assert is_strict_bimorphism(mo.multiplication)
    assert is_bimorphism(mo.multiplication, Tag.CMSC)
    z6 = zmod_ring(6)
    add = group_to_hypermagma(make_finite_group(z6.labels, z6.add))
    mr = make_multiring(add, z6.mul, z6.one)
    mo6 = to_monoid_object(mr)
    assert is_strict_bimorphism(mo6.multiplication)
    mo9 = to_monoid_object(gf9_quotient())
    assert mo9.unit.map == (0, 2, 2)
    assert is_strict_bimorphism(mo9.multiplication)
    weak = subdistributive_multiring()
    assert weak.multiring and not weak.hyperring
    assert not is_strict_bimorphism(to_monoid_object(weak).multiplication)
    with pytest.raises(NotMultiring):
        to_monoid_object("not a multiring")
    # 1 * 1 = 0, so 1 is no unit; the flags claim a multiring anyway
    broken = Multiring(krasner_multiring().additive, ((0, 0), (0, 0)), 1, True, True)
    with pytest.raises(NotMultiring, match="multiplicative identity"):
        to_monoid_object(broken)



def test_strict_slices_iff_hyperring_on_small_multirings():
    """Every multiring of order <= 4 (additive part a canonical hypergroup
    class, every nonzero one, and every multiplication table with 0 absorbing
    and `one` a two-sided identity) that `check_multiring` accepts: the
    slices of its multiplication are colax, and all strict exactly when the
    table route calls it a hyperring."""
    seen = []
    for n in (1, 2, 3, 4):
        for A in enumerate_canonical_hypergroups(n):
            for one in range(1, n):
                rest = [x for x in range(1, n) if x != one]
                for values in itertools.product(range(n), repeat=len(rest) ** 2):
                    mul = [[0] * n for _ in range(n)]
                    for x in range(1, n):
                        mul[one][x] = mul[x][one] = x
                    for (x, y), v in zip(itertools.product(rest, repeat=2), values):
                        mul[x][y] = v
                    try:
                        flags = check_multiring(A, mul, one)
                    except HyperkitError:
                        continue
                    if not flags["multiring"]:
                        continue
                    B = to_monoid_object(make_multiring(A, mul, one)).multiplication
                    slices = [Morphism(A, A, row) for row in B.table]
                    slices += [Morphism(A, A, col) for col in zip(*B.table)]
                    assert all(is_colax(f) for f in slices)
                    assert is_strict_bimorphism(B) == flags["hyperring"]
                    seen.append((n, flags["hyperring"]))
    # (order, hyperring): 454 multirings, 58 of them hyperrings, and both
    # answers at orders 3 and 4
    assert collections.Counter(seen) == {
        (2, True): 2,
        (3, False): 8,
        (3, True): 12,
        (4, False): 388,
        (4, True): 44,
    }

def test_monoid_object_laws_survive_optimize_flag():
    script = """
import sys
from hyperkit.errors import NotMultiring
from hyperkit.monoidal import to_monoid_object
from hyperkit.zoo import Multiring, krasner_multiring

broken = Multiring(krasner_multiring().additive, ((0, 0), (0, 0)), 1, True, True)
try:
    to_monoid_object(broken)
except NotMultiring as exc:
    print(sys.flags.optimize, "raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 raised: 1 is not a multiplicative identity\n"


def test_wedge_of_hypergroups_associativity_recorded():
    # the wedge of two hypergroups need not be associative; record only
    q = wedge_smash(krasner(), krasner())
    rep = analyze(q.cod)
    assert rep.classification in ("CanonicalHypergroup", "CommutativeMosaic")


@pytest.mark.parametrize("tag", [Tag.HMAG, Tag.UHMAG, Tag.CMSC], ids=lambda t: t.value)
def test_tensor_memo_hit_equals_cold_build(tag):
    # two calls share a result only inside one scope
    with scope():
        warm = tensor(z2(), krasner(), tag)
        assert tensor(z2(), krasner(), tag) is warm
        tensor.cache_clear()
        assert tensor(z2(), krasner(), tag) == warm


def test_tensor_rejects_noncommutative_input_on_every_call():
    for _ in range(2):
        with pytest.raises(NotCommutativeMosaic):
            tensor(mixed3(), z2(), Tag.CMSC)


@pytest.mark.parametrize("name", ["K", "Z2", "V"])
def test_row_by_row_matrix_count_matches_brute_force(name):
    L = {"K": krasner, "Z2": z2, "V": klein}[name]()
    assert _matrix_count(L) == _brute_force_matrix_count(L)


def _bimorphisms_by_filter(M, N, L, tag):
    """Bim(M, N; L) as the tables in Hom(N, L)^|M|, in table order, that
    `is_bimorphism` accepts."""
    rows = enumerate_morphisms(N, L, tag)
    return [
        table
        for table in itertools.product(rows, repeat=M.n)
        if is_bimorphism(Bimorphism(M, N, L, table), tag)
    ]


@pytest.mark.parametrize("tag", [Tag.HMAG, Tag.UHMAG, Tag.CMSC], ids=lambda t: t.value)
def test_bimorphisms_match_filtered_row_tuples(tag):
    from hyperkit.suite import battery

    objects = [M for M in battery(tag) if M.n <= 3]
    assert (mixed3() in objects) == (tag is Tag.HMAG)
    for M, N, L in itertools.product(objects, repeat=3):
        want = _bimorphisms_by_filter(M, N, L, tag)
        assert enumerate_bimorphisms(M, N, L, tag) == want, (M, N, L)


def test_boxdot_labels_are_distinct_when_factor_labels_hold_the_separator():
    from hyperkit.univ import cofree

    # "a" + "|b|c" and "a|b" + "|c" are both "a|b|c"; the later one is primed
    B = boxdot(cofree(("a", "a|b")), cofree(("b|c", "c")))
    assert B.labels == ("a|b|c", "a|c", "a|b|b|c", "a|b|c'")
    assert boxdot(cofree(("a", "b")), cofree(("c",))).labels == ("a|c", "b|c")


def test_hom_object_labels_are_distinct_when_codomain_labels_hold_the_separator():
    from hyperkit.univ import cofree

    # the maps (a, a,a) and (a,a, a) are both written "(a,a,a)"
    H = hom_object(free(Tag.HMAG, ("x", "y")), cofree(("a", "a,a")), Tag.HMAG)
    assert H.labels == ("(a,a)", "(a,a,a)", "(a,a,a)'", "(a,a,a,a)")
    assert hom_object(free(Tag.HMAG, ("x",)), cofree(("a", "b")), Tag.HMAG).labels == (
        "(a)",
        "(b)",
    )
