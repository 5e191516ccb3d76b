"""Oracles for the mask kernels of the quotient and tensor layer and for
the axiom checks of `analyze`.

Each kernel is checked against the per-bit loop it replaced, kept here as
the reference: `image_tables` against mask_of(iter_bits), `pushed_table`,
`quotient` and `is_short` against the double loop over fiber products
(`pushed_table`, which reads each product's bits from `BITS` on at most 8
elements, also against its image-table loop),
`is_colax`/`is_lax`/`is_strict` against the per-entry image loop (and
`is_colax`, which passes an identity map without a scan and tests products
against preimages on more than 8 elements, against its image loop), `boxdot`
against the four-case loop, `hom_object` against the per-coordinate loop and
`curry` against a scan of Hom(N, L) for each element, and
`strict_sub_closure`, which takes only the products touching the last
round's additions, against the loop over the full product K*K.
`analyze`, which skips the triples whose answer is fixed, is checked against
the loops over all n^3 triples, `is_commutative_mosaic` against `analyze`,
`lane_failures`, which checks many tables at once in byte lanes, against
`axiom_report` object by object, and its claimed identity and inverse map
against those `from_masks` finds, also on spoiled tables and claims; the
census against `from_masks` on the search's tables;
and `from_masks` (its row range check, its
identity and its inverse map, and the exact tuples it keeps without a copy)
against the per-entry loops.
`is_strong_map`, which reads preimages from the fibres, is checked against
the scan over every point per flat; `canonical_form`, which drops a
permutation at its first entry above the least form so far, against the
loop that builds every permutation's whole form; and the coequalizers that
`check_regularity` shares between pairs generating the same partition
against the coequalizer of each pair.  `pullback`, the equalizer of f.p1
and g.p2 on the product, is checked against the loop over the fibre
product.
"""
import itertools
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from hyperkit.axioms import (
    AxiomReport,
    Tag,
    _classify,
    analyze,
    axiom_report,
    is_commutative_mosaic,
    lane_failures,
)
from hyperkit.core import (
    BITS,
    Hypermagma,
    Morphism,
    canonical_form,
    distinct_labels,
    fresh_label,
    from_masks,
    identity_morphism,
    image_function,
    image_tables,
    iter_bits,
    mask_of,
    opposite,
    pack_lanes,
    permute,
    pushed_table,
    quotient,
    strict_sub_closure,
)
from hyperkit import zoo
from hyperkit.errors import DimensionMismatch, DuplicateLabel, InvariantViolated
from hyperkit.hom import (
    enumerate_morphisms,
    is_colax,
    is_lax,
    is_short,
    is_strict,
)
from hyperkit.matroid import (
    adjoin_point,
    fano_matroid,
    graphic_matroid,
    is_strong_map,
    matroid_to_mosaic,
    uniform_matroid,
)
from hyperkit.monoidal import boxdot, boxtimes, curry, hom_object, tensor, wedge_smash
from hyperkit.suite import _closed_count_triples, _morphism_battery, battery
from hyperkit.univ import coequalizer, identified, pullback
from util import old_coequalizer, small_battery
from hyperkit.zoo import (
    conjugacy_hypergroup,
    cyclic_group,
    enumerate_canonical_hypergroups,
    enumerate_small_mosaics,
    enumerate_unital_hypermagmas,
    gf9_quotient,
    group_to_hypermagma,
    klein_four_group,
    krasner,
    symmetric_group,
)

# carrier sizes that hit one image table exactly (8), one bit past it (9),
# two full tables (16) and a partial fifth table (40)
SIZES = [0, 1, 2, 3, 5, 8, 9, 16, 40]


def _old_product(M, X, Y):
    out = 0
    for i in iter_bits(X):
        for j in iter_bits(Y):
            out |= M.table[i][j]
    return out


def _old_image(fmap, mask):
    return mask_of(fmap[i] for i in iter_bits(mask))


def _old_pushed(M, proj, k):
    fibers = [mask_of(x for x, c in enumerate(proj) if c == i) for i in range(k)]
    return tuple(
        tuple(_old_image(proj, _old_product(M, fibers[i], fibers[j])) for j in range(k))
        for i in range(k)
    )


def _old_pushed_tables(M, proj, k):
    """`pushed_table` with every product mapped through proj's image tables,
    whatever the size of M."""
    if k == M.n and all(c == x for x, c in enumerate(proj)):
        return M.table
    prods = [[0] * k for _ in range(k)]
    for x, row in zip(proj, M.table):
        acc = prods[x]
        for y, m in zip(proj, row):
            acc[y] |= m
    push = image_function([1 << c for c in proj])
    return tuple(tuple(map(push, row)) for row in prods)


def _old_quotient(M, proj, unit=None):
    k = max(proj, default=-1) + 1
    fibers = [mask_of(x for x, c in enumerate(proj) if c == i) for i in range(k)]
    labels = [M.labels[(f & -f).bit_length() - 1] for f in fibers]
    if unit is not None:
        labels[unit] = fresh_label("e", labels[:unit] + labels[unit + 1 :])
    rows = []
    for i in range(k):
        if i == unit:
            rows.append([1 << j for j in range(k)])
            continue
        row = []
        for j in range(k):
            if j == unit:
                row.append(1 << i)
            else:
                row.append(_old_image(proj, _old_product(M, fibers[i], fibers[j])))
        rows.append(row)
    return from_masks(labels, rows)


def _old_is_short(p):
    M, N = p.dom, p.cod
    if set(p.map) != set(range(N.n)):
        return False
    fibers = [mask_of(i for i, v in enumerate(p.map) if v == x) for x in range(N.n)]
    return all(
        N.table[x][y] == _old_image(p.map, _old_product(M, fibers[x], fibers[y]))
        for x in range(N.n)
        for y in range(N.n)
    )


def _old_kinds(f):
    """(colax, lax, strict) by the per-entry image loop."""
    M, N = f.dom, f.cod
    colax = lax = True
    for i in range(M.n):
        for j in range(M.n):
            img = _old_image(f.map, M.table[i][j])
            tgt = N.table[f.map[i]][f.map[j]]
            colax = colax and not img & ~tgt
            lax = lax and not tgt & ~img
    return colax, lax, colax and lax


def _old_is_colax(f):
    """`is_colax` as the loop that maps each product through f: bit by bit
    from BITS on at most 8 elements, else through f's image tables."""
    fmap, table = f.map, f.cod.table
    push = image_function([1 << v for v in fmap]) if len(fmap) > 8 else None
    for row, fx in zip(f.dom.table, fmap):
        nrow = table[fx]
        for m, fy in zip(row, fmap):
            if m:
                t = nrow[fy]
                if push is None:
                    for z in BITS[m]:
                        if not t >> fmap[z] & 1:
                            return False
                elif push(m) & ~t:
                    return False
    return True


def _old_boxdot(M, N):
    nm, nn = M.n, N.n

    def idx(x, y):
        return x * nn + y

    n = nm * nn
    rows = [[0] * n for _ in range(n)]
    for x in range(nm):
        for y in range(nn):
            for x2 in range(nm):
                for y2 in range(nn):
                    if x == x2 and y != y2:
                        m = mask_of(idx(x, t) for t in iter_bits(N.table[y][y2]))
                    elif x != x2 and y == y2:
                        m = mask_of(idx(t, y) for t in iter_bits(M.table[x][x2]))
                    elif x == x2 and y == y2:
                        m = mask_of(idx(t, y) for t in iter_bits(M.table[x][x]))
                        m |= mask_of(idx(x, t) for t in iter_bits(N.table[y][y]))
                    else:
                        m = 0
                    rows[idx(x, y)][idx(x2, y2)] = m
    return tuple(tuple(r) for r in rows)


def _old_hom_table(M, N, tag):
    homs = enumerate_morphisms(M, N, tag)
    H = len(homs)
    by_value = [
        [mask_of(i for i, h in enumerate(homs) if h[x] == v) for v in range(N.n)]
        for x in range(M.n)
    ]
    rows = [[0] * H for _ in range(H)]
    for a, f in enumerate(homs):
        for b, g in enumerate(homs):
            m = (1 << H) - 1
            for x in range(M.n):
                combined = 0
                for v in iter_bits(N.table[f[x]][g[x]]):
                    combined |= by_value[x][v]
                m &= combined
            rows[a][b] = m
    return tuple(tuple(r) for r in rows)


def _random_table(rng, n, sparse):
    """An n x n mask table; with `sparse` most entries are empty."""
    def entry():
        if sparse and rng.random() < 0.7:
            return 0
        return rng.getrandbits(n) & rng.getrandbits(n) if sparse else rng.getrandbits(n)

    return [[entry() for _ in range(n)] for _ in range(n)]


@st.composite
def hypermagmas(draw, sizes=SIZES):
    n = draw(st.sampled_from(sizes))
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = [f"x{i}" for i in range(n)]
    return from_masks(labels, _random_table(rng, n, draw(st.booleans())))


@st.composite
def projections(draw, n):
    """A partition of range(n) into classes numbered by their least member."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = draw(st.integers(1, max(n, 1)))
    first = {}
    return tuple(first.setdefault(rng.randrange(blocks), len(first)) for _ in range(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_image_tables_match_bit_loop(data):
    n = data.draw(st.sampled_from(SIZES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    width = data.draw(st.sampled_from([1, 8, 40]))
    fmap = [rng.randrange(width) for _ in range(n)]
    values = [rng.getrandbits(width) for _ in range(n)]
    tables = image_tables([1 << v for v in fmap])
    assert len(tables) == (n + 7) // 8
    for c, table in enumerate(tables):
        chunk = fmap[8 * c : 8 * c + 8]
        assert table == [mask_of(chunk[b] for b in iter_bits(m)) for m in range(1 << len(chunk))]
    push, union = image_function([1 << v for v in fmap]), image_function(values)
    for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
        assert push(mask) == mask_of(fmap[i] for i in iter_bits(mask))
        assert union(mask) == mask_of(z for i in iter_bits(mask) for z in iter_bits(values[i]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pushed_table_and_quotient_match_fiber_loop(data):
    M = data.draw(hypermagmas())
    proj = data.draw(projections(M.n))
    k = max(proj, default=-1) + 1
    assert pushed_table(M, proj, k) == _old_pushed(M, proj, k) == _old_pushed_tables(M, proj, k)
    # a class without members has empty products
    assert pushed_table(M, proj, k + 1) == _old_pushed(M, proj, k + 1)
    assert pushed_table(M, proj, k + 1) == _old_pushed_tables(M, proj, k + 1)
    # every element its own class, in order and reversed
    ident = tuple(range(M.n))
    assert pushed_table(M, ident, M.n) == _old_pushed(M, ident, M.n)
    assert pushed_table(M, ident[::-1], M.n) == _old_pushed(M, ident[::-1], M.n)
    pi = quotient(M, proj)
    assert pi.map == proj and pi.cod == _old_quotient(M, proj)
    if k:
        unit = data.draw(st.integers(0, k - 1))
        assert quotient(M, proj, unit=unit).cod == _old_quotient(M, proj, unit)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_short_matches_fiber_loop(data):
    M = data.draw(hypermagmas())
    proj = data.draw(projections(M.n))
    Q = quotient(M, proj).cod
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    candidates = [Q]
    if Q.n:
        # one entry off, and a random table, on the same carrier
        rows = [list(r) for r in Q.table]
        i, j = rng.randrange(Q.n), rng.randrange(Q.n)
        rows[i][j] ^= 1 << rng.randrange(Q.n)
        candidates += [from_masks(Q.labels, rows), from_masks(Q.labels, _random_table(rng, Q.n, False))]
    for N in candidates:
        p = Morphism(M, N, proj)
        assert is_short(p) == _old_is_short(p)
    assert is_short(Morphism(M, Q, proj))
    if M.n and Q.n > 1:
        # a map that misses a class is never short
        p = Morphism(M, Q, tuple(min(c, Q.n - 2) for c in proj))
        assert not is_short(p) and not _old_is_short(p)


def test_is_short_checks_surjectivity():
    # every product is empty on both sides, so only the missed class tells
    M = from_masks(("a", "b"), [[0, 0], [0, 0]])
    p = Morphism(M, M, (0, 0))
    assert pushed_table(M, p.map, 2) == M.table
    assert not is_short(p) and not _old_is_short(p)
    assert is_short(identity_morphism(M))


def _check_colax_lax_strict(data, sizes):
    M = data.draw(hypermagmas(sizes))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["random", "quotient", "permutation", "cofree"]))
    if kind == "random":
        N = data.draw(hypermagmas([1, 2, 3, 8, 9, 16]))
        fmap = tuple(rng.randrange(N.n) for _ in range(M.n))
    elif kind == "quotient":
        pi = quotient(M, data.draw(projections(M.n)))
        N, fmap = pi.cod, pi.map
    elif kind == "permutation":
        perm = list(range(M.n))
        rng.shuffle(perm)
        N, fmap = permute(M, perm), tuple(perm)
    else:
        n = data.draw(st.sampled_from([1, 2, 9]))
        N = from_masks([f"y{i}" for i in range(n)], [[(1 << n) - 1] * n] * n)
        fmap = tuple(rng.randrange(n) for _ in range(M.n))
    if M.n and N.n and rng.random() < 0.5:
        # one entry of the target changed, so an equality can fail by one
        # bit: a random bit flipped, or the image of the last element of a
        # product taken out of the entry it must lie in
        rows = [list(r) for r in N.table]
        i, j = rng.randrange(M.n), rng.randrange(M.n)
        if M.table[i][j] and rng.random() < 0.5:
            rows[fmap[i]][fmap[j]] &= ~(1 << fmap[M.table[i][j].bit_length() - 1])
        else:
            rows[rng.randrange(N.n)][rng.randrange(N.n)] ^= 1 << rng.randrange(N.n)
        N = from_masks(N.labels, rows)
    f = Morphism(M, N, fmap)
    assert (is_colax(f), is_lax(f), is_strict(f)) == _old_kinds(f)
    assert is_strict(identity_morphism(M))


# domains read through BITS (at most 8 elements)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_colax_lax_strict_match_entry_loop(data):
    _check_colax_lax_strict(data, [0, 1, 2, 3, 5, 8])


# domains read through image tables (more than 8 elements)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_colax_lax_strict_match_entry_loop_beyond_bits(data):
    _check_colax_lax_strict(data, [9, 16, 40])


def _maps(M, N, rng):
    """Every map M -> N when there are at most 4,096, else 2,000 seeded
    random ones."""
    if N.n**M.n <= 4096:
        return list(itertools.product(range(N.n), repeat=M.n))
    return [tuple(rng.randrange(N.n) for _ in range(M.n)) for _ in range(2000)]


@pytest.mark.parametrize("tag", [Tag.HMAG, Tag.UHMAG, Tag.MSC, Tag.CMSC], ids=lambda t: t.value)
def test_colax_matches_entry_loop_on_battery_maps(tag):
    rng = random.Random(3002)
    answers = set()
    for M, N in itertools.product(battery(tag), repeat=2):
        for fmap in _maps(M, N, rng):
            f = Morphism(M, N, fmap)
            got = is_colax(f)
            assert got == _old_is_colax(f), f
            answers.add(got)
    assert answers == {True, False}


def _minus_smash(q1, M, N):
    """(-1) wedge (-1) on the smash of q1 = wedge_smash(M, N), as `boxtimes`
    builds it."""
    W, pair = q1.cod, q1.map
    neg = [0] * W.n
    for x in range(M.n):
        for y in range(N.n):
            neg[pair[x * N.n + y]] = pair[M.inverse[x] * N.n + N.inverse[y]]
    return Morphism(W, W, tuple(neg))


def test_colax_matches_entry_loop_on_tensor_maps():
    """The quotient maps of `wedge_smash` and `boxtimes`, and the map
    (-1) wedge (-1) whose coequalizer with the identity `boxtimes` takes,
    for every pair of battery objects."""
    for tag in (Tag.UHMAG, Tag.CMSC):
        for M, N in itertools.product(battery(tag), repeat=2):
            q1 = wedge_smash(M, N)
            maps = [q1]
            if tag is Tag.CMSC:
                minus = _minus_smash(q1, M, N)
                q2 = coequalizer(identity_morphism(q1.cod), minus, Tag.UHMAG)
                maps += [minus, q2, boxtimes(M, N)]
            for f in maps:
                assert is_colax(f) and _old_is_colax(f)


def test_colax_matches_entry_loop_on_random_maps_beyond_bits():
    """Seeded maps out of tables on 9 to 16 elements: into random tables,
    full tables, quotients, and quotients with one image bit taken out of an
    entry it must lie in."""
    rng = random.Random(3003)
    answers = set()
    for _ in range(400):
        n = rng.randint(9, 16)
        M = from_masks([f"x{i}" for i in range(n)], _random_table(rng, n, rng.random() < 0.5))
        kind = rng.choice(["random", "cofree", "quotient", "trimmed"])
        if kind in ("random", "cofree"):
            k = rng.randint(1, 20)
            rows = _random_table(rng, k, rng.random() < 0.5)
            if kind == "cofree":
                rows = [[(1 << k) - 1] * k] * k
            N = from_masks([f"y{i}" for i in range(k)], rows)
            fmap = tuple(rng.randrange(k) for _ in range(n))
        else:
            blocks, first = rng.randint(1, n), {}
            proj = tuple(first.setdefault(rng.randrange(blocks), len(first)) for _ in range(n))
            N, fmap = quotient(M, proj).cod, proj
            i, j = rng.randrange(n), rng.randrange(n)
            if kind == "trimmed" and M.table[i][j]:
                rows = [list(r) for r in N.table]
                rows[fmap[i]][fmap[j]] &= ~(1 << fmap[M.table[i][j].bit_length() - 1])
                N = from_masks(N.labels, rows)
        f = Morphism(M, N, fmap)
        got = is_colax(f)
        assert got == _old_is_colax(f), (M.table, N.table, fmap)
        answers.add(got)
    assert answers == {True, False}


def test_colax_identity_maps_between_equal_but_distinct_objects():
    rng = random.Random(3004)
    objects = [*small_battery(), *_desk_objects().values()]
    objects += [from_masks([f"x{i}" for i in range(n)], _random_table(rng, n, False)) for n in (9, 12)]
    for M in objects:
        twin = from_masks(M.labels, [list(r) for r in M.table])
        assert twin == M and twin is not M and twin.table is not M.table
        relabelled = from_masks([f"{l}~" for l in M.labels], M.table)
        for N in (M, twin, relabelled):
            f = Morphism(M, N, tuple(range(M.n)))
            assert is_colax(f) and _old_is_colax(f)


@pytest.mark.parametrize(
    "labels, unit, quotient_labels",
    [
        (("e", "a"), None, ("e", "a")),
        (("e", "a"), 0, ("e", "a")),
        (("0", "a"), 0, ("e", "a")),
        (("e'", "e"), 0, ("e'", "e")),
        (("0", "e"), 0, ("e'", "e")),
        (("e", "a"), 1, ("e", "e'")),
        (("a", "e"), 1, ("a", "e")),
    ],
)
def test_discrete_quotient_is_the_object_from_masks_builds(labels, unit, quotient_labels):
    """Singleton classes: the quotient is M itself exactly when its labels
    and identity stay, and it always equals the object built from its
    labels and table; a unit that is not "e" or a fresh "e" is relabelled,
    and a unit that is not M's identity has its row and column forced."""
    M = from_masks(labels, [[1, 2], [2, 1]])
    pi = quotient(M, (0, 1), unit=unit)
    assert pi.dom is M and pi.map == (0, 1)
    assert pi.cod.labels == quotient_labels
    assert pi.cod == _old_quotient(M, (0, 1), unit)
    if unit in (None, M.identity):
        assert pi.cod == from_masks(quotient_labels, M.table)
    assert (pi.cod is M) == (quotient_labels == labels and unit in (None, M.identity))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_discrete_quotient_matches_fiber_loop(data):
    M = data.draw(hypermagmas())
    ident = tuple(range(M.n))
    assert quotient(M, ident).cod == from_masks(M.labels, M.table) == _old_quotient(M, ident)
    if M.n:
        unit = data.draw(st.integers(0, M.n - 1))
        assert quotient(M, ident, unit=unit).cod == _old_quotient(M, ident, unit)


def test_commutative_mosaic_predicate_matches_analyze():
    objects = [M for n in range(1, 6) for M in enumerate_canonical_hypergroups(n)]
    objects += [M for n in range(5) for M in enumerate_small_mosaics(n)]
    objects += [M for n in range(4) for M in enumerate_unital_hypermagmas(n)]
    objects += [M for tag in Tag for M in battery(tag)]
    for matroid in (fano_matroid(), uniform_matroid(2, 4), uniform_matroid(3, 4)):
        objects.append(matroid_to_mosaic(adjoin_point(matroid)))
    answers = set()
    for M in objects:
        rep = analyze(M)
        got = is_commutative_mosaic(M)
        assert got == (rep.is_mosaic and rep.commutative), M.table
        answers.add(got)
    assert answers == {True, False}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_boxdot_matches_four_case_loop(data):
    M = data.draw(hypermagmas([0, 1, 2, 3, 5, 8, 9]))
    N = data.draw(hypermagmas([0, 1, 2, 3, 5, 8, 9]))
    B = boxdot(M, N)
    assert B.labels == tuple(f"{a}|{b}" for a in M.labels for b in N.labels)
    assert B.table == _old_boxdot(M, N)


C4A = ((1, 2, 4, 8), (2, 15, 14, 14), (4, 14, 15, 14), (8, 14, 14, 15))
C4B = ((1, 2, 4, 8), (2, 15, 14, 6), (4, 14, 15, 6), (8, 6, 6, 9))
C4C = ((1, 2, 4, 8), (2, 7, 14, 12), (4, 14, 11, 6), (8, 12, 6, 3))
C4D = ((1, 2, 4, 8), (2, 8, 1, 4), (4, 1, 8, 2), (8, 4, 2, 1))
K4_EDGES = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def _desk_objects():
    """The hypermagma fixtures of perfbench/desk.py, and the mosaics of its
    matroid fixtures."""
    objects = {
        "Z2": group_to_hypermagma(cyclic_group(2)),
        "V": group_to_hypermagma(klein_four_group()),
        "H": gf9_quotient().additive,
        "K": krasner(),
        "Fano": matroid_to_mosaic(adjoin_point(fano_matroid())),
        "S3c": conjugacy_hypergroup(symmetric_group(3)),
    }
    for name, table in (("C4a", C4A), ("C4b", C4B), ("C4c", C4C), ("C4d", C4D)):
        objects[name] = from_masks(("0", "1", "2", "3"), table)
    for name, matroid in (
        ("U24", uniform_matroid(2, 4)),
        ("U25", uniform_matroid(2, 5)),
        ("K4", graphic_matroid(K4_EDGES)),
    ):
        objects[name] = matroid_to_mosaic(adjoin_point(matroid))
    return objects


# every hom_object call on the desk menu of perfbench/desk.py
DESK_HOM_PAIRS = [
    ("V", "H"), ("H", "H"), ("V", "C4a"), ("C4a", "C4a"), ("Fano", "K"), ("V", "V"), ("H", "C4c"),
]


@pytest.mark.parametrize("pair", DESK_HOM_PAIRS, ids=["-".join(p) for p in DESK_HOM_PAIRS])
def test_hom_object_matches_coordinate_loop(pair):
    objects = _desk_objects()
    M, N = objects[pair[0]], objects[pair[1]]
    assert hom_object(M, N, Tag.CMSC).table == _old_hom_table(M, N, Tag.CMSC)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_object_matches_coordinate_loop_on_random_tables(data):
    M = data.draw(hypermagmas([0, 1, 2, 3]))
    N = data.draw(hypermagmas([1, 2, 3]))
    assert hom_object(M, N, Tag.HMAG).table == _old_hom_table(M, N, Tag.HMAG)


@st.composite
def unital_tables(draw, sizes, commutative):
    """A unital hypermagma with identity 0, symmetric when `commutative`."""
    n = draw(st.sampled_from(sizes))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = _random_table(rng, n, draw(st.booleans()))
    for x in range(n):
        if commutative:
            for y in range(x):
                rows[x][y] = rows[y][x]
        rows[0][x] = rows[x][0] = 1 << x
    return from_masks([f"x{i}" for i in range(n)], rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_object_matches_coordinate_loop_on_commutative_codomains(data):
    # a commutative N gives f*g = g*f: hom_object computes g >= f and mirrors
    tag = data.draw(st.sampled_from([Tag.UHMAG, Tag.CMSC]), label="tag")
    mosaics = st.sampled_from([M for n in (1, 2, 3) for M in enumerate_small_mosaics(n)])
    M = data.draw(st.one_of(mosaics, unital_tables([1, 2, 3, 4], commutative=False)), label="M")
    N = data.draw(st.one_of(mosaics, unital_tables([1, 2, 3, 4], commutative=True)), label="N")
    assert all(N.table[u][w] == N.table[w][u] for u in range(N.n) for w in range(N.n))
    assert hom_object(M, N, tag).table == _old_hom_table(M, N, tag)


def _old_curry(phi, M, N, tag):
    """curry's images by a linear scan of Hom(N, L) for each x."""
    T, u = tensor(M, N, tag)
    homs = enumerate_morphisms(N, phi.cod, tag)
    images = []
    for x in range(M.n):
        slice_map = tuple(phi.map[u(x, y)] for y in range(N.n))
        images.append(next(i for i, h in enumerate(homs) if h == slice_map))
    return tuple(images)


def _old_pullback(f, g):
    """The fibre product of f and g with intersected componentwise
    products, and its two legs."""
    L, M = f.dom, g.dom
    pairs = [(x, y) for x in range(L.n) for y in range(M.n) if f.map[x] == g.map[y]]
    index = {p: i for i, p in enumerate(pairs)}
    labels = distinct_labels(f"{L.labels[x]}|{M.labels[y]}" for x, y in pairs)
    n = len(pairs)
    rows = [[0] * n for _ in range(n)]
    for ia, (x, x2) in enumerate(pairs):
        for ib, (y, y2) in enumerate(pairs):
            m = 0
            for z in iter_bits(L.table[x][y]):
                for z2 in iter_bits(M.table[x2][y2]):
                    idx = index.get((z, z2))
                    if idx is not None:
                        m |= 1 << idx
            rows[ia][ib] = m
    P = from_masks(labels, rows)
    return P, Morphism(P, L, tuple(x for x, _ in pairs)), Morphism(P, M, tuple(y for _, y in pairs))


def test_pullback_matches_fibre_product_loop():
    # the fibre product reads f and g only through their domains and the
    # pairs (x, y) with f(x) = g(y), so each such key is built once: 3,319
    # keys among the 17,561 pairs of maps into a common battery object
    battery = small_battery()
    seen = {}
    for N in battery:
        into = [Morphism(L, N, m) for L in battery for m in enumerate_morphisms(L, N, Tag.HMAG)]
        for f in into:
            for g in into:
                key = (f.dom, g.dom, tuple(u == v for u in f.map for v in g.map))
                seen[key] = seen.get(key, 0) + 1
                if seen[key] > 1:
                    continue
                cone = pullback(f, g)
                P, p1, p2 = _old_pullback(f, g)
                assert (cone.apex.table, cone.apex.labels) == (P.table, P.labels)
                assert cone.legs == (p1, p2)
    assert (len(seen), sum(seen.values())) == (3319, 17561)


@pytest.mark.parametrize("tag", [Tag.HMAG, Tag.UHMAG, Tag.CMSC], ids=lambda t: t.value)
def test_curry_matches_hom_scan(tag):
    checked = 0
    for X, Y, Z in _closed_count_triples(tag):
        T, _ = tensor(X, Y, tag)
        for phimap in enumerate_morphisms(T, Z, tag):
            phi = Morphism(T, Z, phimap)
            psi = curry(phi, X, Y, tag)
            assert psi.cod == hom_object(Y, Z, tag)
            assert psi.map == _old_curry(phi, X, Y, tag)
            checked += 1
    assert checked


def _old_detect_identity(table):
    n = len(table)
    found = None
    for e in range(n):
        if all(table[e][x] == 1 << x and table[x][e] == 1 << x for x in range(n)):
            assert found is None
            found = e
    return found


def _old_detect_inverse(table, e):
    if e is None:
        return None
    n = len(table)
    ebit = 1 << e
    inv = []
    for x in range(n):
        cands = [y for y in range(n) if table[x][y] & ebit and table[y][x] & ebit]
        if len(cands) != 1:
            return None
        inv.append(cands[0])
    assert all(inv[inv[x]] == x for x in range(n)) and inv[e] == e
    return tuple(inv)


def _old_from_masks(labels, table):
    """`from_masks` with the range checked entry by entry."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise DuplicateLabel(f"carrier labels not distinct: {labels}")
    if len(table) != n or any(len(row) != n for row in table):
        raise DimensionMismatch(f"table is not {n}x{n}")
    full = (1 << n) - 1
    rows = []
    for row in table:
        for m in row:
            if m < 0 or m & ~full:
                raise DimensionMismatch(f"subset mask {m} out of range for n={n}")
        rows.append(tuple(map(int, row)))
    tbl = tuple(rows)
    e = _old_detect_identity(tbl)
    return Hypermagma(labels, tbl, e, _old_detect_inverse(tbl, e))


def _build(build, labels, rows):
    try:
        return build(labels, rows)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)


def _assert_same_build(labels, rows):
    """`from_masks` and the per-entry loops give the same fields or raise
    the same exception; returns the built hypermagma, if any."""
    new, old = _build(from_masks, labels, rows), _build(_old_from_masks, labels, rows)
    assert new == old, (new, old)
    if isinstance(new, Hypermagma):
        assert all(type(m) is int for row in new.table for m in row)
        return new
    return None


def _old_weak_identity_set(M):
    out = 0
    for e in range(M.n):
        if all((M.table[e][x] >> x) & 1 and (M.table[x][e] >> x) & 1 for x in range(M.n)):
            out |= 1 << e
    return out


def _old_total_witness(M):
    if M.n == 0:
        return ()
    for i in range(M.n):
        for j in range(M.n):
            if not M.table[i][j]:
                return (i, j)
    return None


def _old_commutative_witness(M):
    for i in range(M.n):
        for j in range(i + 1, M.n):
            if M.table[i][j] != M.table[j][i]:
                return (i, j)
    return None


def _old_associative_witness(M):
    n = M.n
    tbl = M.table
    bits = [[tuple(iter_bits(m)) for m in row] for row in tbl]
    for i in range(n):
        row_i = tbl[i]
        for j in range(n):
            ij = bits[i][j]
            row_j = bits[j]
            for k in range(n):
                left = 0
                for t in ij:
                    left |= tbl[t][k]
                right = 0
                for t in row_j[k]:
                    right |= row_i[t]
                if left != right:
                    return (i, j, k)
    return None


def _old_inverse_witness(M):
    e = M.identity
    if e is None:
        return ()
    ebit = 1 << e
    for x in range(M.n):
        cands = [y for y in range(M.n) if M.table[x][y] & ebit and M.table[y][x] & ebit]
        if len(cands) == 0:
            return (x,)
        if len(cands) > 1:
            return (x, cands[0], cands[1])
    return None


def _old_reversible_witness(M):
    inv = M.inverse
    n = M.n
    tbl = M.table
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not (tbl[y][z] >> x) & 1:
                    continue
                if not (tbl[x][inv[z]] >> y) & 1 or not (tbl[inv[y]][x] >> z) & 1:
                    return (x, y, z)
    return None


def _old_analyze(M):
    """`analyze` as a loop over every triple."""
    witnesses = []
    w_total = _old_total_witness(M)
    if w_total is not None:
        witnesses.append(("total", w_total))
    w_comm = _old_commutative_witness(M)
    if w_comm is not None:
        witnesses.append(("commutative", w_comm))
    w_assoc = _old_associative_witness(M)
    if w_assoc is not None:
        witnesses.append(("associative", w_assoc))
    single = all(M.table[i][j].bit_count() == 1 for i in range(M.n) for j in range(M.n))
    w_inv = _old_inverse_witness(M)
    unique_inverses = w_inv is None
    if not unique_inverses:
        witnesses.append(("unique_inverses", w_inv))
    w_rev = _old_reversible_witness(M) if unique_inverses else w_inv
    reversible = w_rev is None
    if not reversible:
        witnesses.append(("reversible", w_rev))
    return AxiomReport(
        identity=M.identity,
        weak_identities=_old_weak_identity_set(M),
        total=w_total is None,
        commutative=w_comm is None,
        associative=w_assoc is None,
        single_valued=single,
        unique_inverses=unique_inverses,
        reversible=reversible,
        classification=_classify(
            M.identity is not None, w_total is None, w_comm is None, w_assoc is None,
            single, reversible,
        ),
        witnesses=tuple(witnesses),
    )


def _assert_same_report(M):
    assert _assert_same_build(M.labels, M.table) == M
    new, old = analyze(M), _old_analyze(M)
    for f in fields(AxiomReport):
        assert getattr(new, f.name) == getattr(old, f.name), (f.name, M.table)
    assert new == old
    assert is_commutative_mosaic(M) == (old.is_mosaic and old.commutative)


# every size up to 6, and two past the 8-bit lookup of set bits
ANALYZE_SIZES = [0, 1, 2, 3, 4, 5, 6, 9, 12]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_analyze_matches_triple_loops_on_random_tables(data):
    n = data.draw(st.sampled_from(ANALYZE_SIZES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    rows = _random_table(rng, n, data.draw(st.booleans()))
    if data.draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if n and data.draw(st.booleans()):
        e = rng.randrange(n)
        for x in range(n):
            rows[e][x] = rows[x][e] = 1 << x
    _assert_same_report(from_masks([f"x{i}" for i in range(n)], rows))


def _mosaics():
    """Mosaics with unique inverses on 1 to 12 elements; S3 is not
    commutative."""
    return [
        group_to_hypermagma(cyclic_group(1)),
        krasner(),
        group_to_hypermagma(cyclic_group(3)),
        group_to_hypermagma(klein_four_group()),
        gf9_quotient().additive,
        group_to_hypermagma(symmetric_group(3)),
        matroid_to_mosaic(adjoin_point(fano_matroid())),
        matroid_to_mosaic(adjoin_point(uniform_matroid(2, 8))),
        group_to_hypermagma(cyclic_group(9)),
        matroid_to_mosaic(adjoin_point(uniform_matroid(2, 11))),
        group_to_hypermagma(cyclic_group(12)),
    ]


MOSAICS = _mosaics()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_analyze_matches_triple_loops_on_perturbed_mosaics(data):
    """A few bits flipped off the identity's row and column: the identity
    stays scalar, and inverses mostly stay unique, so the reversibility walk
    runs on tables that fail it (including at x = e when a flip puts the
    identity into one side of a product only)."""
    M = data.draw(st.sampled_from(MOSAICS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    perm = list(range(M.n))
    rng.shuffle(perm)
    M = permute(M, perm)
    others = [x for x in range(M.n) if x != M.identity]
    rows = [list(r) for r in M.table]
    symmetric = data.draw(st.booleans())
    for _ in range(data.draw(st.integers(0, 3)) if others else 0):
        i, j, bit = rng.choice(others), rng.choice(others), 1 << rng.randrange(M.n)
        rows[i][j] ^= bit
        if symmetric and i != j:
            rows[j][i] ^= bit
    _assert_same_report(from_masks(M.labels, rows))


def test_analyze_matches_triple_loops_on_enumerated_classes():
    objects = [M for n in range(1, 6) for M in enumerate_canonical_hypergroups(n)]
    assert len(objects) == 3886
    objects += enumerate_small_mosaics(4)
    objects += _desk_objects().values()
    for M in objects:
        _assert_same_report(M)


CANONICAL = ("CanonicalHypergroup", "AbelianGroup")


def _non_hypergroups(Ms):
    """The indices, ascending, of the objects of Ms that `lane_failures`
    rejects: an object without an identity or an inverse map fails, and
    the others are packed and checked in groups that share n, the identity
    and the inverse map."""
    groups = {}
    out = []
    for b, M in enumerate(Ms):
        if M.identity is None or M.inverse is None:
            out.append(b)
        else:
            groups.setdefault((M.n, M.identity, M.inverse), []).append(b)
    for (n, e, inv), members in groups.items():
        failed = lane_failures(pack_lanes(n, [Ms[b].table for b in members]), e, inv)
        out += itertools.compress(members, failed)
    return sorted(out)


def _assert_same_verdicts(objects, rng):
    """`lane_failures`, through `_non_hypergroups`, gives `axiom_report`'s
    verdict object by object, and on a shuffled copy the same verdicts,
    shuffled."""
    failed = [i for i, M in enumerate(objects) if axiom_report(M).classification not in CANONICAL]
    assert _non_hypergroups(objects) == failed
    order = list(range(len(objects)))
    rng.shuffle(order)
    shuffled = [objects[i] for i in order]
    bad = set(failed)
    assert _non_hypergroups(shuffled) == [b for b, i in enumerate(order) if i in bad]
    return failed


def test_non_hypergroups_matches_reports_on_enumerated_tables():
    """Every commutative mosaic class of order <= 5, most of them neither
    total nor associative, and every unital hypermagma of order <= 3, among
    them tables that fail only commutativity, only associativity or only
    reversibility, each set in one call."""
    mosaics = [M for n in range(6) for M in zoo.enumerate_reversible_tables(n, hypergroups=False)]
    assert len(mosaics) == 50809
    failed = _assert_same_verdicts(mosaics, random.Random(0))
    assert len(mosaics) - len(failed) == 3886
    magmas = [M for n in range(4) for M in enumerate_unital_hypermagmas(n)]
    assert len(magmas) == 2085
    failed = _assert_same_verdicts(magmas, random.Random(1))
    assert len(magmas) - len(failed) == 13


def test_non_hypergroups_on_no_objects_and_one_element():
    one = [
        from_masks(["a"], [[0]]),
        from_masks(["a"], [[1]]),
        group_to_hypermagma(cyclic_group(1)),
        from_masks([], []),
    ]
    assert _non_hypergroups([]) == []
    assert _assert_same_verdicts(one, random.Random(0)) == [0, 3]


def _perturbed(M, rng, flips):
    """M with a few entries changed, mostly off the identity's row and
    column: one bit flipped in x*y alone (commutativity, the identity and
    unique inverses may go) or in x*y and y*x alike, or x*y = y*x emptied."""
    rows = [list(r) for r in M.table]
    others = [x for x in range(M.n) if x != M.identity] or [*range(M.n)]
    for _ in range(flips):
        pool = range(M.n) if rng.random() < 0.2 else others
        x, y, bit = rng.choice(pool), rng.choice(pool), 1 << rng.randrange(M.n)
        kind = rng.randrange(3)
        if kind == 0:
            rows[x][y] ^= bit
        elif kind == 1:
            rows[x][y] ^= bit
            rows[y][x] = rows[x][y]
        else:
            rows[x][y] = rows[y][x] = 0
    return from_masks(M.labels, rows)


# census classes and known mosaics on 1 to 8 elements, by size (the Fano
# mosaic and Z/8 have 8, filling a byte lane; S3 is not commutative)
def _lane_bases():
    bases = {n: enumerate_canonical_hypergroups(n)[::23] for n in range(1, 6)}
    more = [group_to_hypermagma(cyclic_group(n)) for n in (6, 7, 8)]
    more += [matroid_to_mosaic(adjoin_point(uniform_matroid(2, k))) for k in (5, 6)]
    for M in MOSAICS + more:
        if M.n <= 8:
            bases.setdefault(M.n, []).append(M)
    return bases


LANE_BASES = _lane_bases()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_non_hypergroups_matches_reports_on_mixed_batches(data):
    """Batches of relabelled and perturbed objects on up to 8 elements, good
    and bad lanes of one group side by side, with random tables among them
    whose identity is forced or absent."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    objects = []
    for _ in range(data.draw(st.integers(1, 4))):
        M = data.draw(st.sampled_from(LANE_BASES[data.draw(st.sampled_from(sorted(LANE_BASES)))]))
        perm = list(range(M.n))
        rng.shuffle(perm)
        M = permute(M, perm)
        objects += [_perturbed(M, rng, rng.choice((0, 0, 1, 2, 3))) for _ in range(rng.randint(1, 8))]
    for _ in range(data.draw(st.integers(0, 3))):
        n = rng.randint(1, 8)
        rows = _random_table(rng, n, rng.random() < 0.5)
        if rng.random() < 0.7:
            for x in range(n):
                rows[0][x] = rows[x][0] = 1 << x
        objects.append(from_masks([f"x{i}" for i in range(n)], rows))
    rng.shuffle(objects)
    _assert_same_verdicts(objects, rng)


def test_non_hypergroups_reads_identity_and_inverse_as_stored():
    """As `axiom_report` does: a table whose stored inverse map is no
    inverse map is checked against it, and an empty sum fails totality even
    where no associativity triple reads it."""
    rows = ((1, 2), (2, 0))
    objects = [Hypermagma(("0", "1"), rows, 0, (0, 1)), from_masks(["0", "1"], [[1, 2], [2, 1]])]
    assert [axiom_report(M).classification for M in objects] == ["CommutativeMosaic", "AbelianGroup"]
    assert _assert_same_verdicts(objects, random.Random(0)) == [0]


def _claim_oracle(tables):
    """Per table, the (identity, inverse map) that `from_masks` finds in
    it when `axiom_report` classifies it as canonical, else None."""
    out = []
    for table in tables:
        M = from_masks([f"x{i}" for i in range(len(table))], table)
        out.append((M.identity, M.inverse) if axiom_report(M).classification in CANONICAL else None)
    return out


def _assert_claim_verdicts(n, tables, e, inverse):
    """`lane_failures`, claiming the identity e and the inverse map
    `inverse` for `tables`, fails exactly the tables whose `_claim_oracle`
    is not that claim; returns its verdicts."""
    failed = lane_failures(pack_lanes(n, tables), e, inverse)
    assert list(failed) == [int(c != (e, inverse)) for c in _claim_oracle(tables)]
    return failed


def _by_claim(objects):
    """Tables grouped by (n, identity, inverse map), in order."""
    groups = {}
    for M in objects:
        groups.setdefault((M.n, M.identity, M.inverse), []).append(M.table)
    return groups


def _lane_entries(n, tables):
    """What `pack_lanes(n, tables).entries` holds, entry by entry: lane b
    of entry (x, y), byte b, is tables[b][x][y]."""
    return tuple(
        tuple(sum(t[x][y] << 8 * b for b, t in enumerate(tables)) for y in range(n))
        for x in range(n)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_pack_lanes_matches_entry_oracle(n):
    """Every n that fits a byte lane: batches of random tables, whose masks
    include 0 and the full mask (bit 7 of a byte set at n = 8), and the
    empty batch."""
    rng = random.Random(n)
    full = (1 << n) - 1
    for count in (0, 1, 2, 7, 40):
        tables = [
            tuple(tuple(rng.choice((0, full, rng.getrandbits(n))) for _ in range(n)) for _ in range(n))
            for _ in range(count)
        ]
        lanes = pack_lanes(n, tables)
        assert (lanes.n, lanes.count) == (n, count)
        assert lanes.entries == _lane_entries(n, tables)
        assert lanes.ones == sum(1 << 8 * b for b in range(count))


def test_pack_lanes_refuses_masks_wider_than_a_byte():
    n = 9
    with pytest.raises(DimensionMismatch, match="^pack_lanes: masks on 9 > 8 elements fit no byte lane$"):
        pack_lanes(n, [[[1 << y for y in range(n)] for _ in range(n)]])


def test_census_blocks_match_from_masks():
    """Every sigma block of orders 1-5 passes `lane_failures` for its own
    identity and inverse map, and the census is `from_masks` on the
    blocks' tables, object for object and in order."""
    for n in range(1, 6):
        labels = tuple(str(v) for v in range(n))
        tables = []
        for inverse, block in zoo.reversible_table_blocks(n):
            block = list(block)
            assert not any(lane_failures(pack_lanes(n, block), 0, inverse))
            tables += block
        assert enumerate_canonical_hypergroups(n) == [from_masks(labels, t) for t in tables]


def test_order_six_block_passes_lanes_and_builds_as_from_masks():
    """The sigma = (1 0)(3 2) block of order 6: all 9,685 tables pass
    `lane_failures`, and the object the census builds from each equals
    `from_masks`'s."""
    ((inverse, tables),) = zoo.reversible_table_blocks(6, sigma=(1, 0, 3, 2, 4))
    tables = list(tables)
    assert len(tables) == 9685
    assert not any(lane_failures(pack_lanes(6, tables), 0, inverse))
    labels = tuple(str(v) for v in range(6))
    assert all(Hypermagma(labels, t, 0, inverse) == from_masks(labels, t) for t in tables)


def test_lane_failures_matches_claim_oracle_on_every_claim():
    """Every commutative mosaic class of order <= 4 under every relabelling,
    so that any element can be the identity, packed together and claimed
    with each identity e and each involution fixing e."""
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        tables = list({permute(M, p).table: None for M in enumerate_small_mosaics(n) for p in perms})
        oracle = _claim_oracle(tables)
        lanes = pack_lanes(n, tables)
        involutions = [p for p in perms if all(p[y] == x for x, y in enumerate(p))]
        for e in range(n):
            for inverse in involutions:
                if inverse[e] == e:
                    failed = lane_failures(lanes, e, inverse)
                    assert list(failed) == [int(c != (e, inverse)) for c in oracle]


def _other_involution(inverse, e):
    """An involution fixing e other than `inverse`, on 3 or more elements:
    two elements a, b besides e paired if they were not, unpaired if they
    were."""
    a, b = [x for x in range(len(inverse)) if x != e][:2]
    out = list(inverse)
    if inverse[a] == b:
        out[a], out[b] = a, b
    else:
        for x in (a, b):
            out[inverse[x]] = inverse[x]
        out[a], out[b] = b, a
    return tuple(out)


# the ways a table or a claim is spoiled, and the least n each needs; the
# claims of the last two are no involution fixing the identity
MUTATIONS = {
    "unit-bit": 1,
    "other-identity": 2,
    "second-inverse": 3,
    "wrong-inverse": 3,
    "malformed-claim": 1,
    "non-involution": 2,
}
MALFORMED = ("malformed-claim", "non-involution")


def _mutated(kind, tables, e, inverse, at, rng):
    """(tables, e, inverse) with tables[at] or the claim spoiled."""
    n = len(tables[at])
    rows = [list(r) for r in tables[at]]
    others = [x for x in range(n) if x != e]
    if kind == "unit-bit":
        x, bit = rng.randrange(n), 1 << rng.randrange(n)
        if rng.random() < 0.5:
            rows[e][x] ^= bit
        else:
            rows[x][e] ^= bit
    elif kind == "second-inverse":
        x = rng.choice(others)
        y = rng.choice([y for y in others if y != inverse[x]])
        rows[x][y] |= 1 << e
        rows[y][x] |= 1 << e
    elif kind == "malformed-claim":
        inverse = inverse[:-1]
    elif kind == "other-identity":
        # the claim relabelled by the swap t of e and another element f
        f = rng.choice(others)
        t = list(range(n))
        t[e], t[f] = f, e
        e, inverse = f, tuple(t[inverse[t[y]]] for y in range(n))
    elif kind == "non-involution":
        z = rng.choice(others)
        inverse = (*inverse[:z], e, *inverse[z + 1 :])
    else:
        inverse = _other_involution(inverse, e)
    tables = [*tables[:at], tuple(map(tuple, rows)), *tables[at + 1 :]]
    return tables, e, inverse


def _claim_bases():
    """Groups of good tables sharing n, identity and inverse map: census
    classes and the lane bases on up to 8 elements."""
    objects = [M for Ms in LANE_BASES.values() for M in Ms]
    objects += [M for n in range(1, 5) for M in enumerate_canonical_hypergroups(n)]
    groups = _by_claim(M for M in objects if M.inverse is not None)
    return {key: tables for key, tables in sorted(groups.items(), key=repr)}


CLAIM_BASES = _claim_bases()


@pytest.mark.parametrize("kind", MUTATIONS)
def test_lane_failures_matches_claim_oracle_on_mutations(kind):
    """Each spoiled table or claim among good tables of its group, first,
    in the middle or last, for every group on 1 to 8 elements:
    `_claim_oracle`'s verdict on every table, the spoiled one failing; a
    claim that is no involution fixing the identity raises
    `InvariantViolated`."""
    rng = random.Random(kind)
    sizes = set()
    for (n, e, inverse), tables in CLAIM_BASES.items():
        if n < MUTATIONS[kind]:
            continue
        sizes.add(n)
        batch = [rng.choice(tables) for _ in range(rng.randint(1, 6))]
        for at in sorted({0, len(batch) // 2, len(batch) - 1}):
            spoiled, e2, inverse2 = _mutated(kind, batch, e, inverse, at, rng)
            if kind in MALFORMED:
                with pytest.raises(InvariantViolated, match="is not an involution fixing"):
                    lane_failures(pack_lanes(n, spoiled), e2, inverse2)
            else:
                assert _assert_claim_verdicts(n, spoiled, e2, inverse2)[at] == 1
    assert set(range(MUTATIONS[kind], 9)) <= sizes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lane_failures_matches_claim_oracle_on_random_batches(data):
    """Batches of one group's tables, some perturbed (`_perturbed`, which
    may move the identity or break unique inverses), some random, and some
    with a spoiled table or claim: good and bad lanes side by side."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    (n, e, inverse), tables = data.draw(st.sampled_from(list(CLAIM_BASES.items())))
    labels = tuple(f"x{i}" for i in range(n))
    batch = []
    for _ in range(data.draw(st.integers(1, 12))):
        table = rng.choice(tables)
        if rng.random() < 0.1:
            table = _perturbed(Hypermagma(labels, table, e, inverse), rng, 1).table
        elif rng.random() < 0.05:
            table = tuple(map(tuple, _random_table(rng, n, rng.random() < 0.5)))
        batch.append(table)
    if rng.random() < 0.3:
        kinds = [k for k, least in MUTATIONS.items() if n >= least and k not in MALFORMED]
        batch, e, inverse = _mutated(rng.choice(kinds), batch, e, inverse, rng.randrange(len(batch)), rng)
    _assert_claim_verdicts(n, batch, e, inverse)


def test_validation_matches_entry_loops_on_unital_hypermagmas():
    objects = [M for n in range(4) for M in enumerate_unital_hypermagmas(n)]
    assert len(objects) == 2085
    for M in objects:
        _assert_same_report(M)


def test_validation_matches_entry_loops_on_opposites_of_enumerated_classes():
    classes = [M for n in range(1, 6) for M in enumerate_canonical_hypergroups(n)]
    assert len(classes) == 3886
    for M in classes:
        _assert_same_report(M)
        op = _assert_same_build(M.labels, opposite(M).table)
        assert op == opposite(M)
        _assert_same_report(op)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_out_of_range_masks_raise_as_entry_loop(data):
    """Negative and too-wide masks among valid ones: the same exception,
    naming the same first bad mask in row-major order."""
    n = data.draw(st.integers(1, 6), label="n")
    full = (1 << n) - 1
    entry = st.one_of(
        st.integers(0, full),
        st.integers(0, full),
        st.integers(-(2**70), -1),
        st.integers(full + 1, 2**70),
    )
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    labels = [str(i) for i in range(n)]
    if data.draw(st.booleans(), label="exact tuples"):
        labels, rows = tuple(labels), tuple(map(tuple, rows))
    _assert_same_build(labels, rows)


class _Row(tuple):
    pass


class _Label(str):
    pass


def test_from_masks_keeps_exact_tuples():
    labels, rows = ("e", "a"), ((1, 2), (2, 1))
    M = _assert_same_build(labels, rows)
    assert M.labels is labels
    assert all(M.table[i] is row for i, row in enumerate(rows))


@pytest.mark.parametrize(
    "labels, rows",
    [
        (["e", "a"], [[1, 2], [2, 1]]),
        (("e", "a"), ((True, 2), (2, True))),
        (("e", "a"), (_Row((1, 2)), _Row((2, 1)))),
        ((_Label("e"), "a"), ((1, 2), (2, 1))),
        ((0, 1), ((1, 2), (2, 1))),
    ],
    ids=["lists", "bools", "tuple-subclass", "str-subclass", "int-labels"],
)
def test_from_masks_converts_other_inputs(labels, rows):
    M = _assert_same_build(labels, rows)
    assert type(M.labels) is tuple and all(type(l) is str for l in M.labels)
    assert all(type(row) is tuple for row in M.table)


@pytest.mark.parametrize(
    "labels, rows",
    [
        (("a", "a"), ((1, 2), (2, 1))),
        (("a", "b"), ((1, 2),)),
        (("a", "b"), ((1, 2), (2,))),
        (("a", "b"), ((1, 2), (2, 1, 0))),
        (("a", "b"), ((1, 4), (2, 1))),
        (("a", "b"), ((1, -1), (2, 1))),
        (("a", "b"), ((1, 2), (2, 1 << 70))),
    ],
    ids=["duplicate", "rows", "short-row", "long-row", "wide", "negative", "huge"],
)
def test_from_masks_rejects_exact_tuples_as_before(labels, rows):
    assert not isinstance(_build(from_masks, labels, rows), Hypermagma)
    _assert_same_build(labels, rows)


@pytest.mark.parametrize(
    "rows, bad",
    [
        ([[1, -1], [8, 2]], -1),
        ([[1, 2], [8, -1]], 8),
        ([[4, -3], [1, 2]], 4),
        ([[1, 2], [2, 1 << 40]], 1 << 40),
        ([[-(1 << 40), 0], [0, 0]], -(1 << 40)),
    ],
)
def test_first_bad_mask_named(rows, bad):
    with pytest.raises(DimensionMismatch, match=f"^subset mask {bad} out of range for n=2$"):
        from_masks(["a", "b"], rows)
    _assert_same_build(["a", "b"], rows)


def _old_strict_sub_closure(M, K):
    if M.identity is not None:
        K |= 1 << M.identity
    if M.inverse is not None:
        K |= mask_of(M.inverse[i] for i in iter_bits(K))
    while True:
        new = K | _old_product(M, K, K)
        if M.inverse is not None:
            new |= mask_of(M.inverse[i] for i in iter_bits(new))
        if new == K:
            return K
        K = new


@pytest.mark.parametrize(
    "matroid", [fano_matroid, lambda: uniform_matroid(2, 4)], ids=["Fano", "U24"]
)
def test_strict_sub_closure_matches_full_product_loop_on_every_subset(matroid):
    H = matroid_to_mosaic(adjoin_point(matroid()))
    for S in range(1 << H.n):
        assert strict_sub_closure(H, S) == _old_strict_sub_closure(H, S)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strict_sub_closure_matches_full_product_loop_on_random_tables(data):
    M = data.draw(st.one_of(hypermagmas(), st.sampled_from(MOSAICS)))
    S = data.draw(st.integers(0, M.full_mask()), label="S")
    assert strict_sub_closure(M, S) == _old_strict_sub_closure(M, S)


def _old_is_strong_map(M, N, f):
    """Preimage of every flat is a flat; pointed maps must preserve the loop."""
    if M.pointed is not None and N.pointed is not None:
        if f[M.pointed] != N.pointed:
            return False
    flset = set(M.flats)
    for F in N.flats:
        pre = mask_of(x for x in range(M.n) if (F >> f[x]) & 1)
        if pre not in flset:
            return False
    return True


POINTED_MATROIDS = {
    "U23": lambda: adjoin_point(uniform_matroid(2, 3)),
    "U24": lambda: adjoin_point(uniform_matroid(2, 4)),
    "U34": lambda: adjoin_point(uniform_matroid(3, 4)),
    "Fano": lambda: adjoin_point(fano_matroid()),
}


# every map when there are at most 4,096, else 3,000 seeded random maps, half
# of them sending the point to the point so that the flats are reached
@pytest.mark.parametrize("pair", list(itertools.product(POINTED_MATROIDS, repeat=2)), ids="-".join)
def test_strong_map_matches_scan_per_flat(pair):
    M, N = (POINTED_MATROIDS[name]() for name in pair)
    if N.n**M.n <= 4096:
        maps = itertools.product(range(N.n), repeat=M.n)
    else:
        rng = random.Random(2401)
        maps = []
        for i in range(3000):
            f = [rng.randrange(N.n) for _ in range(M.n)]
            if i % 2:
                f[M.pointed] = N.pointed
            maps.append(tuple(f))
    strong = 0
    for f in maps:
        got = is_strong_map(M, N, f)
        assert got == _old_is_strong_map(M, N, f), f
        strong += got
    if M.n < 8:
        assert strong  # the map onto the point at least


def _old_canonical_form(table, fixed=()):
    """The least row-major relabelling of a mask table over the carrier
    permutations that fix every element of `fixed`.  Two tables share it
    exactly when such a permutation is an isomorphism between them."""
    n = len(table)
    moved = [x for x in range(n) if x not in fixed]
    best = None
    for p in itertools.permutations(moved):
        old_of = list(range(n))  # new position -> old element
        new_of = list(range(n))
        for new, old in zip(moved, p):
            old_of[new] = old
            new_of[old] = new
        image = image_function([1 << new_of[x] for x in range(n)])  # mask -> relabelled mask
        form = tuple(image(table[a][b]) for a in old_of for b in old_of)
        if best is None or form < best:
            best = form
    return best


def test_canonical_form_matches_full_forms_on_every_lattice_table(monkeypatch):
    # every meet table the lattice scan canonicalises, for n <= 7; equal
    # forms give the same classes, representatives and order
    tables = []

    def both(table, fixed):
        tables.append(table)
        got = canonical_form(table, fixed)
        assert got == _old_canonical_form(table, fixed), table
        return got

    monkeypatch.setattr(zoo, "canonical_form", both)
    counts = [len(zoo.enumerate_lattices(n)) for n in range(1, 8)]
    assert counts == [1, 1, 1, 2, 5, 15, 53]
    assert len(tables) == 370


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_form_matches_full_forms_on_random_tables(data):
    n = data.draw(st.integers(0, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    table = _random_table(rng, n, data.draw(st.booleans()))
    fixed = tuple(x for x in range(n) if rng.random() < 0.3)
    assert canonical_form(table, fixed) == _old_canonical_form(table, fixed)


def test_canonical_form_reads_fixed_from_an_iterator():
    # 0 and 2 fixed: only the identity relabels, and 1*2 = {1} stays in place
    table = [[0, 0, 0], [0, 0, 2], [0, 0, 0]]
    assert canonical_form(table, iter((0, 2))) == (0, 0, 0, 0, 0, 2, 0, 0, 0)


def test_regularity_shared_coequalizers_match_each_pair():
    # the pairs of `check_regularity`, in its order
    shared, pairs = {}, 0
    for tag in (Tag.HMAG, Tag.UHMAG):
        objs = _morphism_battery(tag)[:6]
        for A in objs:
            for B in objs:
                homs = [Morphism(A, B, m) for m in enumerate_morphisms(A, B, tag)[:8]]
                for f in homs:
                    for g in homs:
                        q = shared.setdefault((tag, B, identified(f, g)), coequalizer(f, g, tag))
                        assert q == old_coequalizer(f, g, tag)
                        pairs += 1
    assert (pairs, len(shared)) == (277, 26)
