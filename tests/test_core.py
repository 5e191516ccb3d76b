import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hyperkit.axioms import Tag, analyze
from hyperkit.core import (
    Morphism,
    absorptive_closure,
    canonical_form,
    find_isomorphism,
    fresh_label,
    from_masks,
    initial,
    iter_bits,
    make_hypermagma,
    mask_of,
    opposite,
    orbit_partition,
    permute,
    product_of_subsets,
    quotient,
    strict_sub_closure,
    terminal,
    weak_sub,
)
from hyperkit.errors import (
    DimensionMismatch,
    DuplicateLabel,
    IdentityAxiomViolated,
)
from hyperkit.hom import is_coshort, inclusion_morphism
from hyperkit.univ import cofree, free, representing_object
from hyperkit.zoo import (
    cyclic_group,
    gf9_frobenius,
    gf9_quotient,
    group_to_hypermagma,
    klein_four_group,
    krasner,
    symmetric_group,
)

from util import small_battery, z2


def test_make_hypermagma_krasner():
    K = make_hypermagma(
        ["0", "1"],
        [[["0"], ["1"]], [["1"], ["0", "1"]]],
        identity="0",
    )
    assert analyze(K).classification == "CanonicalHypergroup"
    assert K == krasner()


def test_equal_objects_built_separately_hash_equal():
    built = make_hypermagma(["0", "1"], [[["0"], ["1"]], [["1"], ["0", "1"]]])
    H = gf9_quotient().additive
    for A, B in ((krasner(), built), (H, from_masks(H.labels, [list(r) for r in H.table]))):
        assert A is not B and A == B
        hash(A)  # one side holds its hash, the other computes it
        assert hash(A) == hash(B) == hash((B.labels, B.table, B.identity, B.inverse))
        assert {A: 1}[B] == 1


def test_copies_and_pickles_carry_no_cached_hash():
    K = krasner()
    h = hash(K)
    for twin in (pickle.loads(pickle.dumps(K)), copy.copy(K), copy.deepcopy(K)):
        assert "_hash" not in vars(twin)
        assert twin == K and repr(twin) == repr(K) and hash(twin) == h
    assert repr(K) == "Hypermagma(['0', '1'], n=2)"


def test_make_hypermagma_terminal_and_initial():
    one = make_hypermagma(["e"], [[["e"]]], identity="e")
    assert one == terminal()
    empty = make_hypermagma([], [])
    assert empty == initial()
    assert analyze(empty).classification == "Hypermagma"


def test_constructor_errors():
    with pytest.raises(DuplicateLabel):
        make_hypermagma(["a", "a"], [[[], []], [[], []]])
    with pytest.raises(DimensionMismatch):
        make_hypermagma(["a", "b"], [[["a"]]])
    with pytest.raises(IdentityAxiomViolated):
        make_hypermagma(["a", "b"], [[["a"], []], [[], []]], identity="a")
    with pytest.raises(DimensionMismatch, match="^unknown element 'z' given as the identity$"):
        make_hypermagma(["e", "a"], [[["e"], ["a"]], [["a"], ["e"]]], identity="z")
    for bad in (7, 2, -1):
        with pytest.raises(DimensionMismatch, match=f"^identity {bad} out of range for n=2$"):
            from_masks(["a", "b"], [[1, 2], [2, 1]], bad)


def test_morphism_validates_length_and_range():
    K = krasner()
    Z2 = z2()
    assert Morphism(K, Z2, (0, 1)).map == (0, 1)
    assert Morphism(initial(), K, ()).map == ()
    for bad in [(0,), (0, 1, 1), ()]:
        with pytest.raises(DimensionMismatch, match="^map length does not match the domain carrier$"):
            Morphism(K, Z2, bad)
    for bad in [(0, 2), (-1, 0), (5, 0)]:
        with pytest.raises(DimensionMismatch, match="^map image index out of range$"):
            Morphism(K, Z2, bad)
    with pytest.raises(DimensionMismatch, match="^map image index out of range$"):
        Morphism(K, initial(), (0, 0))


def test_identity_autodetected_without_argument():
    K = make_hypermagma(["0", "1"], [[["0"], ["1"]], [["1"], ["0", "1"]]])
    assert K.identity == 0
    assert K.inverse == (0, 1)


def test_product_of_subsets():
    K = krasner()
    assert product_of_subsets(K, 0b10, 0b10) == 0b11
    assert product_of_subsets(K, 0b11, 0) == 0
    assert product_of_subsets(K, 0, 0b11) == 0
    D = cofree(("a", "b"))
    assert product_of_subsets(D, 0b01, 0b10) == 0b11


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_union_distributivity(data):
    M = data.draw(st.sampled_from(small_battery()))
    full = M.full_mask()
    X = data.draw(st.integers(min_value=0, max_value=full))
    Y = data.draw(st.integers(min_value=0, max_value=full))
    Z = data.draw(st.integers(min_value=0, max_value=full))
    assert product_of_subsets(M, X | Y, Z) == (
        product_of_subsets(M, X, Z) | product_of_subsets(M, Y, Z)
    )
    assert product_of_subsets(M, Z, X | Y) == (
        product_of_subsets(M, Z, X) | product_of_subsets(M, Z, Y)
    )


def test_opposite():
    K = krasner()
    assert opposite(K) == K  # commutative
    E = representing_object(Tag.MSC).obj
    a, b, c = E.index("a"), E.index("b"), E.index("c")
    assert (opposite(E).table[b][a] >> c) & 1
    for M in small_battery():
        assert opposite(opposite(M)) == M


def test_weak_sub_inclusions_are_coshort():
    for M in small_battery():
        for S in {0, 1, M.full_mask(), M.full_mask() >> 1}:
            L = weak_sub(M, S & M.full_mask())
            if L.n == 0:
                continue
            assert is_coshort(inclusion_morphism(L, M))


def test_weak_sub_whole_carrier_and_point():
    K = krasner()
    assert weak_sub(K, K.full_mask()) == K
    e_only = weak_sub(K, K.subset(["0"]))
    assert e_only.n == 1 and e_only.identity == 0


def test_weak_sub_frobenius_fixed_points():
    H = gf9_quotient().additive
    F = gf9_frobenius()
    fixed = mask_of(x for x in range(H.n) if F.map[x] == x)
    assert H.label_set(fixed) == ("0", "i", "1")
    L = weak_sub(H, fixed)
    # [1] + [a^2] = {[a],[a^3]} in H misses the fixed points entirely
    assert L.table[L.index("1")][L.index("i")] == 0
    rep = analyze(L)
    assert rep.is_mosaic and not rep.total
    inc = inclusion_morphism(L, H)
    assert is_coshort(inc)


def test_strict_sub_closure():
    K = krasner()
    assert strict_sub_closure(K, K.subset(["1"])) == 0b11
    assert strict_sub_closure(K, 0) == 0b01  # the identity alone
    Z = z2()
    assert strict_sub_closure(Z, Z.subset(["0"])) == 0b01


def test_absorptive_closure():
    K = krasner()
    assert absorptive_closure(K, K.subset(["1"])) == 0b11
    Z = z2()
    assert absorptive_closure(Z, Z.subset(["0"])) == 0b01
    # the section 3.1 coequalizer object: [0]+[0] = {[0],[2]} absorbs [2]
    L = from_masks(("0", "2"), ((0b11, 0b11), (0b11, 0b11)))
    assert absorptive_closure(L, L.subset(["0"])) == 0b11


def test_closures_monotone_idempotent():
    for M in small_battery():
        full = M.full_mask()
        for S in range(min(full + 1, 64)):
            c1 = strict_sub_closure(M, S)
            assert S & ~c1 == 0
            assert strict_sub_closure(M, c1) == c1
            a1 = absorptive_closure(M, S)
            assert c1 & ~a1 == 0
            assert absorptive_closure(M, a1) == a1
        for S in (0, 1, full):
            for T in (S, full):
                assert strict_sub_closure(M, S) & ~strict_sub_closure(M, S | T) == 0


def test_find_isomorphism_self_and_free_cofree():
    for M in small_battery():
        iso = find_isomorphism(M, M)
        assert iso is not None and iso.map == tuple(range(M.n))
    F1 = free(Tag.HMAG, ("a",))
    D1 = cofree(("a",))
    assert find_isomorphism(F1, D1) is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_find_isomorphism_relabelings(data):
    M = data.draw(st.sampled_from([m for m in small_battery() if m.n > 0]))
    perm = data.draw(st.permutations(range(M.n)))
    N = permute(M, list(perm))
    iso = find_isomorphism(M, N)
    assert iso is not None


@st.composite
def partitions(draw, n):
    """A partition of range(n) as a projection, classes numbered by their
    least member."""
    raw = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n))
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, len(first)) for c in raw)


def _quotient_by_definition(M, proj):
    """Labels and table of M/proj straight from the definition: class i is
    labelled by its least member, and Q[i][j] collects proj(z) for every z in
    x*y with proj(x) = i and proj(y) = j."""
    k = max(proj, default=-1) + 1
    labels = [M.labels[proj.index(i)] for i in range(k)]
    rows = [[0] * k for _ in range(k)]
    for x in range(M.n):
        for y in range(M.n):
            for z in iter_bits(M.table[x][y]):
                rows[proj[x]][proj[y]] |= 1 << proj[z]
    return labels, rows


def _quotient_by_classes(G, classes):
    """The loop that built group-derived quotients before `core.quotient`,
    kept as an oracle: [a]*[b] = {[c] | c in [a][b]} with least-rep labels."""
    cls_of = [None] * G.n
    for i, c in enumerate(classes):
        for x in iter_bits(c):
            cls_of[x] = i
    labels = [G.labels[next(iter_bits(c))] for c in classes]
    k = len(classes)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            prods = 0
            for a in iter_bits(classes[i]):
                for b in iter_bits(classes[j]):
                    prods |= 1 << G.table[a][b]
            rows[i][j] = mask_of(cls_of[c] for c in iter_bits(prods))
    return from_masks(labels, rows)


@st.composite
def unital_tables(draw, n):
    """A random table on n elements with 0 as its scalar identity."""
    entry = st.integers(0, (1 << n) - 1)
    return [[draw(entry) if i and j else 1 << max(i, j) for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_form_decides_isomorphism(data):
    n = data.draw(st.integers(1, 4))
    labels = [str(i) for i in range(n)]
    A = from_masks(labels, data.draw(unital_tables(n)))
    if data.draw(st.booleans()):
        B = permute(A, [0] + data.draw(st.permutations(range(1, n))))
    else:
        B = from_masks(labels, data.draw(unital_tables(n)))
    e = A.identity
    assert B.identity == e == 0
    same = canonical_form(A.table, (e,)) == canonical_form(B.table, (e,))
    assert same == (find_isomorphism(A, B) is not None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_matches_definition(data):
    n = data.draw(st.integers(0, 4))
    entry = st.integers(0, (1 << n) - 1)
    table = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    # "e" and "e'" among the labels make the unit class need a fresh label
    M = from_masks(("e", "e'", "a", "b")[:n], table)
    proj = data.draw(partitions(n))
    labels, rows = _quotient_by_definition(M, proj)
    pi = quotient(M, proj)
    assert pi.dom == M and pi.map == proj
    assert pi.cod.labels == tuple(labels)
    assert pi.cod.table == tuple(tuple(r) for r in rows)
    if n == 0:
        return
    u = data.draw(st.integers(0, max(proj)))
    Q = quotient(M, proj, unit=u).cod
    assert Q.identity == u
    assert Q.labels == tuple(
        fresh_label("e", labels[:u] + labels[u + 1 :]) if i == u else l
        for i, l in enumerate(labels)
    )
    for i in range(len(labels)):
        for j in range(len(labels)):
            expected = 1 << j if i == u else 1 << i if j == u else rows[i][j]
            assert Q.table[i][j] == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_matches_group_oracle(data):
    G = data.draw(
        st.sampled_from(
            [cyclic_group(k) for k in range(1, 7)] + [klein_four_group(), symmetric_group(3)]
        )
    )
    proj = data.draw(partitions(G.n))
    classes = [mask_of(x for x in range(G.n) if proj[x] == i) for i in range(max(proj) + 1)]
    assert orbit_partition(G.n, lambda a: classes[proj[a]]) == proj
    assert quotient(group_to_hypermagma(G), proj).cod == _quotient_by_classes(G, classes)
