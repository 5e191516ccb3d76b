import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperkit.axioms import Tag, analyze
from hyperkit.core import (
    Morphism,
    compose,
    from_masks,
    identity_morphism,
    iter_bits,
    permute,
    terminal,
)
from hyperkit.errors import CodomainNotUnital, FormatError, NotUnital, SearchCapExceeded
from hyperkit import hom, monoidal
from hyperkit.hom import (
    bijection_failure,
    colax_schedule,
    constant_morphism,
    enumerate_morphisms,
    inclusion_morphism,
    is_colax,
    is_coshort,
    is_injective,
    is_lax,
    is_short,
    is_strict,
    is_surjective,
    is_unital,
    kernel,
    morphism_in_tag,
    triples,
)
from hyperkit.matroid import adjoin_point, fano_matroid, matroid_to_mosaic
from hyperkit.monoidal import enumerate_bimorphisms, hom_object
from hyperkit.search import Budget, search_cap
from hyperkit.suite import _morphism_battery
from hyperkit.univ import (
    is_reversible_via_lifting,
    is_short_via_lifting,
    is_strict_via_lifting,
    representing_object,
    unitize,
)
from hyperkit.zoo import (
    conjugacy_hypergroup,
    cyclic_group,
    enumerate_canonical_hypergroups,
    enumerate_small_mosaics,
    enumerate_unital_hypermagmas,
    group_to_hypermagma,
    krasner,
    symmetric_group,
)

from util import d_example, f_mosaic, gf9_add, klein, mixed3, set_search_cap, z2


def _morphisms(M, N, tag):
    """Hom(M, N) as morphisms, for tests that pass its members on."""
    return [Morphism(M, N, m) for m in enumerate_morphisms(M, N, tag)]


def tau():
    return Morphism(z2(), krasner(), (0, 1))


def test_kind_predicates_identity():
    f = identity_morphism(krasner())
    assert is_colax(f) and is_lax(f) and is_strict(f) and is_unital(f)
    assert is_injective(f) and is_surjective(f)


def test_kind_predicates_tau():
    t = tau()
    assert is_colax(t) and is_unital(t) and is_injective(t)
    assert not is_strict(t) and not is_lax(t)
    # a bijective morphism that is not an isomorphism
    assert is_surjective(t)


def test_constant_identity_morphism():
    f = constant_morphism(krasner(), z2(), 0)
    assert is_colax(f) and is_unital(f)


def test_enumerate_can_z2_k():
    homs = enumerate_morphisms(z2(), krasner(), Tag.CAN)
    assert sorted(homs) == [(0, 0), (0, 1)]


def test_enumerate_cmsc_representing_to_k():
    ro = representing_object(Tag.CMSC)
    homs = enumerate_morphisms(ro.obj, krasner(), Tag.CMSC)
    # oracle: the triples z in x + y of the Krasner table
    K = krasner()
    oracle = [(x, y, z) for x in range(2) for y in range(2) for z in iter_bits(K.table[x][y])]
    assert len(homs) == len(oracle) == 5
    assert sorted((h[ro.a], h[ro.b], h[ro.c]) for h in homs) == sorted(oracle)


def test_enumerate_terminal_source():
    for M in (krasner(), z2(), d_example()):
        assert len(enumerate_morphisms(terminal(), M, Tag.UHMAG)) == 1


def test_enumeration_respects_cap(monkeypatch):
    V = klein()
    # on a cold memo, the least cap that does not raise is the nodes spent
    enumerate_morphisms.cache_clear()
    nodes = 0
    while True:
        set_search_cap(monkeypatch, nodes)
        try:
            assert len(enumerate_morphisms(V, V, Tag.UHMAG)) == 16
            break
        except SearchCapExceeded:
            nodes += 1
    assert nodes > 3
    # a memo hit is capped by the nodes its search spent
    assert len(enumerate_morphisms(V, V, Tag.UHMAG)) == 16
    set_search_cap(monkeypatch, nodes - 1)
    with pytest.raises(SearchCapExceeded, match=rf"after {nodes - 1} nodes$"):
        enumerate_morphisms(V, V, Tag.UHMAG)
    set_search_cap(monkeypatch, 3)
    with pytest.raises(SearchCapExceeded) as exc:
        enumerate_morphisms(V, V, Tag.UHMAG)
    assert str(exc.value) == (
        "enumerate_morphisms(|M|=4, |N|=4, uhmag): node cap exceeded after 3 nodes"
    )
    # the cap holds in the bimorphism search and in its row pool; for
    # (V, V, K) the pool Hom(V, K) spends 15 nodes and the search itself 156
    for (M, N, L), cap, search in (
        ((z2(), z2(), V), 1, "enumerate_morphisms(|M|=2, |N|=4, cmsc)"),
        ((V, V, krasner()), 100, "enumerate_bimorphisms(|M|=4, |N|=4, |L|=2, cmsc)"),
        ((V, V, krasner()), 14, "enumerate_morphisms(|M|=4, |N|=2, cmsc)"),
    ):
        set_search_cap(monkeypatch, cap)
        with pytest.raises(SearchCapExceeded) as exc:
            enumerate_bimorphisms(M, N, L, Tag.CMSC)
        assert str(exc.value) == f"{search}: node cap exceeded after {cap} nodes"


@st.composite
def hypermagmas(draw, unital):
    n = draw(st.integers(1 if unital else 0, 4))
    rows = [[draw(st.integers(0, (1 << n) - 1)) for _ in range(n)] for _ in range(n)]
    if unital:
        for x in range(n):
            rows[0][x] = rows[x][0] = 1 << x
    return from_masks(tuple(str(i) for i in range(n)), rows)


def _unital_pool():
    """Unital objects, most with inverses, so the mosaic tags' inverse mask runs."""
    return [
        terminal(),
        z2(),
        krasner(),
        f_mosaic(),
        klein(),
        d_example(),
        *enumerate_small_mosaics(3),
        *enumerate_canonical_hypergroups(3),
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force(data):
    tag = data.draw(st.sampled_from(list(Tag)), label="tag")
    objects = st.one_of(
        st.sampled_from(_unital_pool()), hypermagmas(unital=tag is not Tag.HMAG)
    )
    M = data.draw(objects, label="M")
    N = data.draw(objects, label="N")
    want = []
    for image in itertools.product(range(N.n), repeat=M.n):
        f = Morphism(M, N, image)
        if morphism_in_tag(f, tag):
            want.append(image)
    assert enumerate_morphisms(M, N, tag) == want


def _fano_mosaic():
    return matroid_to_mosaic(adjoin_point(fano_matroid()))


def _identity_last(M):
    return permute(M, tuple(reversed(range(M.n))))


def _z5():
    return group_to_hypermagma(cyclic_group(5))


@pytest.mark.parametrize(
    "objects, tag, nodes",
    [
        (lambda: (klein(), klein()), Tag.UHMAG, 85),
        (lambda: (klein(), krasner()), Tag.CMSC, 15),
        (lambda: (klein(), gf9_add()), Tag.CMSC, 156),
        (lambda: (gf9_add(), gf9_add()), Tag.HMAG, 445),
        (lambda: (_fano_mosaic(), _fano_mosaic()), Tag.CMSC, 18_761),
        (lambda: (mixed3(), mixed3()), Tag.HMAG, 15),
        # with the identity last, the triples through the identity are
        # tested only at the last depth, so these counts show the inverse mask
        (lambda: (_identity_last(representing_object(Tag.CMSC).obj), _z5()), Tag.CMSC, 455),
        (lambda: (_identity_last(klein()), _z5()), Tag.CMSC, 16),
    ],
    ids=[
        "V-V-uhmag",
        "V-K-cmsc",
        "V-H-cmsc",
        "H-H-hmag",
        "Fano-Fano-cmsc",
        "mixed3-hmag",
        "E-Z5-cmsc",
        "V-Z5-cmsc",
    ],
)
def test_hom_node_count_at_cap_boundary(monkeypatch, objects, tag, nodes):
    M, N = objects()
    # the first search builds M's schedule, the second reuses it
    colax_schedule.cache_clear()
    enumerate_morphisms.cache_clear()
    set_search_cap(monkeypatch, nodes)
    enumerate_morphisms(M, N, tag)
    enumerate_morphisms.cache_clear()
    set_search_cap(monkeypatch, nodes - 1)
    with pytest.raises(SearchCapExceeded, match=rf"after {nodes - 1} nodes$"):
        enumerate_morphisms(M, N, tag)


@pytest.mark.parametrize(
    "L, nodes, count", [(krasner, 156, 50), (klein, 4369, 256)], ids=["K", "V"]
)
def test_bimorphism_node_count_at_cap_boundary(monkeypatch, L, nodes, count):
    V, target = klein(), L()
    colax_schedule.cache_clear()
    enumerate_morphisms.cache_clear()
    set_search_cap(monkeypatch, nodes)
    assert len(enumerate_bimorphisms(V, V, target, Tag.CMSC)) == count
    enumerate_morphisms.cache_clear()
    set_search_cap(monkeypatch, nodes - 1)
    with pytest.raises(SearchCapExceeded, match=r"^enumerate_bimorphisms\(.*after \d+ nodes$"):
        enumerate_bimorphisms(V, V, target, Tag.CMSC)


def _recorded_budgets(monkeypatch) -> list:
    """Every Budget the hom-set and bimorphism searches create from now on."""
    made = []

    class Recorded(Budget):
        def __init__(self, what):
            super().__init__(what)
            made.append(self)

    for module in (hom, monoidal):
        monkeypatch.setattr(module, "Budget", Recorded)
    return made


def test_warm_and_cold_schedules_give_the_same_homs_and_node_counts(monkeypatch):
    """A schedule built by an earlier search (warm) and one built for this
    search (cold) give the same maps and spend the same nodes, pinned or not."""
    made = _recorded_budgets(monkeypatch)
    calls = [
        (enumerate_morphisms, (A, B, tag))
        for tag in Tag
        for A in _morphism_battery(tag)
        for B in _morphism_battery(tag)
    ]
    calls += [
        (enumerate_bimorphisms, args)
        for args in (
            (klein(), klein(), krasner(), Tag.CMSC),
            (z2(), klein(), gf9_add(), Tag.CMSC),
            (z2(), krasner(), klein(), Tag.UHMAG),
            (mixed3(), z2(), krasner(), Tag.HMAG),
        )
    ]
    runs = {}
    for schedules in ("cold", "warm"):
        out = runs[schedules] = []
        for fn, args in calls:
            enumerate_morphisms.cache_clear()
            if schedules == "cold":
                colax_schedule.cache_clear()
            made.clear()
            result = fn(*args)
            out.append((result, [(b.what, b.cap - b.left) for b in made]))
    assert len(runs["cold"]) == 245
    assert sum(bool(result) for result, _ in runs["cold"]) > 150
    assert runs["cold"] == runs["warm"]


def test_enumeration_cap_from_environment(monkeypatch):
    set_search_cap(monkeypatch, 2)
    assert search_cap() == 2
    enumerate_morphisms.cache_clear()
    with pytest.raises(SearchCapExceeded):
        enumerate_morphisms(mixed3(), mixed3(), Tag.HMAG)


@pytest.mark.parametrize("raw", ["abc", "-1", "1e6", "2.5", "\u00b2"])
def test_malformed_cap_in_environment_is_a_format_error(monkeypatch, raw):
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", raw)
    with pytest.raises(FormatError) as exc:
        search_cap()
    assert "HYPERKIT_SEARCH_CAP" in str(exc.value) and repr(raw) in str(exc.value)


@pytest.mark.parametrize(
    "call, memos, message",
    [
        (
            lambda: enumerate_canonical_hypergroups(4),
            (enumerate_canonical_hypergroups,),
            "reversible_table_blocks(n=4): node cap exceeded after 3 nodes",
        ),
        (
            lambda: enumerate_small_mosaics(3),
            (enumerate_small_mosaics,),
            "reversible_table_blocks(n=3): node cap exceeded after 3 nodes",
        ),
        (
            lambda: hom_object(klein(), gf9_add(), Tag.CMSC),
            (hom_object, enumerate_morphisms),
            "enumerate_morphisms(|M|=4, |N|=5, cmsc): node cap exceeded after 3 nodes",
        ),
    ],
    ids=["enumerate_canonical_hypergroups", "enumerate_small_mosaics", "hom_object"],
)
def test_memo_hit_obeys_environment_cap(monkeypatch, call, memos, message):
    for fn in memos:
        fn.cache_clear()
    set_search_cap(monkeypatch, 3)
    with pytest.raises(SearchCapExceeded) as cold:
        call()
    monkeypatch.delenv("HYPERKIT_SEARCH_CAP")
    call()
    set_search_cap(monkeypatch, 3)
    with pytest.raises(SearchCapExceeded) as warm:
        call()
    assert str(cold.value) == str(warm.value) == message


def test_hom_sets_sorted_lexicographically():
    for A, B in ((z2(), krasner()), (d_example(), krasner())):
        for tag in (Tag.HMAG, Tag.UHMAG):
            homs = enumerate_morphisms(A, B, tag)
            assert homs == sorted(homs)


def test_strict_only_enumeration():
    # the strict unital maps Z2 -> K, filtered from the hom-set
    homs = _morphisms(z2(), krasner(), Tag.UHMAG)
    assert [h.map for h in homs if is_strict(h)] == [(0, 0)]


def test_representing_object_tables_verbatim():
    E = representing_object(Tag.MSC).obj
    want = {
        ("a", "a'"): ("e",), ("a", "b"): ("c",),
        ("a'", "a"): ("e",), ("a'", "c"): ("b",),
        ("b", "b'"): ("e",), ("b", "c'"): ("a'",),
        ("b'", "a'"): ("c'",), ("b'", "b"): ("e",),
        ("c", "b'"): ("a",), ("c", "c'"): ("e",),
        ("c'", "a"): ("b'",), ("c'", "c"): ("e",),
    }
    nonunit = [l for l in E.labels if l != "e"]
    for x in nonunit:
        for y in nonunit:
            got = E.label_set(E.table[E.index(x)][E.index(y)])
            assert got == want.get((x, y), ()), (x, y)

    Ec = representing_object(Tag.CMSC).obj
    wantc = {
        ("a", "-a"): ("0",), ("a", "b"): ("c",), ("a", "-c"): ("-b",),
        ("-a", "-b"): ("-c",), ("-a", "c"): ("b",),
        ("b", "-b"): ("0",), ("b", "-c"): ("-a",),
        ("-b", "c"): ("a",), ("c", "-c"): ("0",),
    }
    sym = {}
    for (x, y), v in wantc.items():
        sym[(x, y)] = v
        sym[(y, x)] = v
    nonzero = [l for l in Ec.labels if l != "0"]
    for x in nonzero:
        for y in nonzero:
            got = Ec.label_set(Ec.table[Ec.index(x)][Ec.index(y)])
            assert got == sym.get((x, y), ()), (x, y)


def test_representing_object_bijections_battery():
    """(a, b, c) -> images is a bijection Hom(E_C, M) -> triples(M) on four
    named objects and on every small object of the category: the labelled
    hypermagmas of order <= 2 (HMag), the unital hypermagmas of order <= 3
    (uHMag), their mosaics and the commutative mosaics of order <= 4 (Msc),
    and the latter (cMsc)."""
    hmags = [
        from_masks([str(i) for i in range(n)], [entries[i * n : i * n + n] for i in range(n)])
        for n in (0, 1, 2)
        for entries in itertools.product(range(1 << n), repeat=n * n)
    ]
    unital = [M for n in (1, 2, 3) for M in enumerate_unital_hypermagmas(n)]
    small = [M for n in (1, 2, 3, 4) for M in enumerate_small_mosaics(n)]
    mosaics = [M for M in unital if analyze(M).is_mosaic]
    assert (len(hmags), len(unital), len(mosaics), len(small)) == (259, 2085, 17, 289)
    named = [krasner(), z2(), f_mosaic(), klein()]
    battery = {
        Tag.HMAG: named + hmags,
        Tag.UHMAG: named + unital,
        Tag.MSC: named + mosaics + small,
        Tag.CMSC: named + small,
    }
    for tag, objects in battery.items():
        ro = representing_object(tag)
        for M in objects:
            homs = enumerate_morphisms(ro.obj, M, tag)
            got = sorted((h[ro.a], h[ro.b], h[ro.c]) for h in homs)
            assert got == sorted(triples(M))


def test_short_conjugacy_surjection():
    S3 = symmetric_group(3)
    conj = conjugacy_hypergroup(S3)
    G = group_to_hypermagma(S3)
    cls = []
    for g in range(S3.n):
        members = {S3.table[S3.table[h][g]][S3.inverse[h]] for h in range(S3.n)}
        label = S3.labels[min(members)]
        cls.append(conj.index(label))
    pi = Morphism(G, conj, tuple(cls))
    assert is_colax(pi)
    assert is_short(pi)
    # the surjection is not strict: transposition classes multiply to two classes
    assert not is_strict(pi)
    assert is_strict_via_lifting(pi, Tag.MSC) == is_strict(pi)


def test_coshort():
    inc = tau()
    assert not is_coshort(inc)  # i^-1(1+1) = {0,1} != 1+1 = {0}
    assert is_coshort(identity_morphism(krasner()))
    assert is_short(identity_morphism(krasner()))


def test_short_coshort_compose():
    # coshort composition on weak-sub inclusions
    from hyperkit.core import weak_sub

    K = krasner()
    L = weak_sub(K, K.subset(["0"]))
    i1 = inclusion_morphism(L, K)
    assert is_coshort(i1)
    assert is_coshort(compose(identity_morphism(K), i1))
    # short composition: two unitizations
    q1 = unitize(d_example(), 1 << 1)
    assert is_short(q1)
    q2 = unitize(q1.cod, 1 << q1.cod.identity)
    assert is_short(compose(q2, q1))


def test_kernel():
    assert kernel(tau()) == 0b01
    const = constant_morphism(krasner(), z2(), 0)
    assert kernel(const) == 0b11
    with pytest.raises(CodomainNotUnital):
        kernel(Morphism(mixed3(), mixed3(), (0, 1, 2)))


@pytest.mark.parametrize("tag", [Tag.UHMAG, Tag.CMSC], ids=lambda t: t.value)
def test_unital_tag_refuses_a_non_unital_object(tag):
    for M, N in ((mixed3(), z2()), (z2(), mixed3())):
        with pytest.raises(NotUnital, match=f"^tag {tag.value} needs unital objects$"):
            enumerate_morphisms(M, N, tag)


def test_kernel_of_unitization_is_absorptive_closure():
    from hyperkit.core import absorptive_closure

    M = d_example()
    for E in (0b010, 0b100, 0b110):
        q = unitize(M, E)
        assert q.preimage_mask(1 << q.cod.identity) == absorptive_closure(M, E)


def test_strict_lifting_examples():
    assert is_strict_via_lifting(identity_morphism(krasner()), Tag.CMSC)
    assert not is_strict_via_lifting(tau(), Tag.CMSC)
    assert is_strict(tau()) == is_strict_via_lifting(tau(), Tag.CMSC)


def test_short_lifting_examples():
    t = Morphism(z2(), terminal(), (0, 0))
    assert is_short_via_lifting(t, Tag.UHMAG)
    assert is_short(t)
    assert not is_short_via_lifting(tau(), Tag.UHMAG)
    assert is_short_via_lifting(identity_morphism(krasner()), Tag.UHMAG)


def test_lifting_criteria_agree_on_battery():
    objs = [terminal(), z2(), krasner(), f_mosaic()]
    for tag in (Tag.UHMAG, Tag.MSC, Tag.CMSC):
        for A in objs:
            for B in objs:
                for fmap in enumerate_morphisms(A, B, tag):
                    f = Morphism(A, B, fmap)
                    assert is_strict_via_lifting(f, tag) == is_strict(f)
                    assert is_short_via_lifting(f, tag) == is_short(f)


@pytest.mark.parametrize(
    "images, expected, failure",
    [
        ([3, 1, 2], [1, 2, 3], None),
        ([], [], None),
        ([2, 1, 1, 2], [1, 2], ("repeated", 1)),
        ([1, 1], [1, 2], ("repeated", 1)),
        ([3], [2, 1, 3], ("missing", 2)),
        ([4, 5], [1], ("missing", 1)),
        ([1, 5, 2, 4], [1, 2], ("extra", 5)),
    ],
    ids=["bijection", "empty", "first-repeat", "repeat-before-missing",
         "missing-in-expected-order", "missing-before-extra", "first-extra"],
)
def test_bijection_failure(images, expected, failure):
    assert bijection_failure(iter(images), expected) == failure


def _first_failure(images, expected):
    """The failures in their documented order, by direct scans."""
    for i, x in enumerate(images):
        if x in images[:i]:
            return "repeated", x
    for x in expected:
        if x not in images:
            return "missing", x
    for x in images:
        if x not in expected:
            return "extra", x
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=8),
    st.lists(st.integers(0, 6), max_size=7, unique=True),
    st.booleans(),
)
def test_bijection_failure_matches_oracles(images, expected, as_set):
    want = set(expected) if as_set else expected
    failure = bijection_failure(iter(images), want)
    assert (failure is None) == (sorted(images) == sorted(expected))
    assert failure == _first_failure(images, list(want))


def test_coshort_needs_an_injective_map():
    # every product of L is all of L, so i^-1(i(x) * i(y)) = x * y at every
    # pair: only injectivity fails
    L = from_masks(["a", "b"], [[0b11, 0b11], [0b11, 0b11]])
    i = Morphism(L, terminal(), (0, 0))
    assert all(
        i.preimage_mask(i.cod.table[i.map[x]][i.map[y]]) == L.table[x][y]
        for x in range(2)
        for y in range(2)
    )
    assert not is_coshort(i)


def test_reversibility_criterion_refuses_a_non_unital_object():
    with pytest.raises(NotUnital, match="^reversibility criterion needs a unital object$"):
        is_reversible_via_lifting(mixed3())


def test_reversible_via_lifting():
    assert is_reversible_via_lifting(krasner())
    assert is_reversible_via_lifting(f_mosaic())
    assert not is_reversible_via_lifting(d_example())
    for M in (z2(), klein()):
        assert is_reversible_via_lifting(M) == analyze(M).reversible


def test_unital_morphisms_preserve_inverses():
    mosaics = [z2(), krasner(), f_mosaic(), klein()]
    for A in mosaics:
        for B in mosaics:
            for f in enumerate_morphisms(A, B, Tag.MSC):
                for x in range(A.n):
                    assert f[A.inverse[x]] == B.inverse[f[x]]


def test_mono_epi_cancellation_battery():
    # injective <=> left-cancellable and surjective <=> right-cancellable
    # against all morphisms from/to small probe objects
    probes = [terminal(), z2(), krasner()]
    A, B = z2(), krasner()
    for fmap in enumerate_morphisms(A, B, Tag.UHMAG):
        f = Morphism(A, B, fmap)
        left_cancellable = True
        for T in probes:
            seen = {}
            for g in enumerate_morphisms(T, A, Tag.UHMAG):
                key = compose(f, Morphism(T, A, g)).map
                if seen.setdefault(key, g) != g:
                    left_cancellable = False
        assert left_cancellable == is_injective(f)
        right_cancellable = True
        for T in probes:
            seen = {}
            for g in enumerate_morphisms(B, T, Tag.UHMAG):
                key = tuple(g[f.map[x]] for x in range(A.n))
                if seen.setdefault(key, g) != g:
                    right_cancellable = False
        assert right_cancellable == is_surjective(f)


def _strict_via_lifting_oracle(f, tag):
    """Every square (alpha, beta) against every filler g, composed in full."""
    ro = representing_object(tag)
    alphas = _morphisms(ro.free_pair, f.dom, tag)
    betas = _morphisms(ro.obj, f.cod, tag)
    gs = _morphisms(ro.obj, f.dom, tag)
    for alpha in alphas:
        fa = compose(f, alpha)
        for beta in betas:
            if compose(beta, ro.iota) != fa:
                continue
            if not any(
                compose(g, ro.iota) == alpha and compose(f, g) == beta for g in gs
            ):
                return False
    return True


def test_strict_lifting_matches_triple_loop():
    answers = []
    for tag in (Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC):
        objs = _morphism_battery(tag)
        for A in objs:
            for B in objs:
                for fmap in enumerate_morphisms(A, B, tag):
                    f = Morphism(A, B, fmap)
                    want = _strict_via_lifting_oracle(f, tag)
                    assert is_strict_via_lifting(f, tag) == want, (tag, f)
                    answers.append(want)
    # the morphism-liftings check of the paper suite runs the same 424
    assert len(answers) == 424 and True in answers and False in answers
