"""Oracles for the canonical hypergroup enumerator.

Two references check `enumerate_reversible_tables` and what is built on it:

- a copy of the original algorithm: the same orbit search without pruning,
  associativity checked on complete tables only, and isomorphic copies
  removed afterwards by a canonical signature.  The pruned, isomorph-free
  enumerator must return the same tables in the same order.
- a raw scan at order 4 with no orbit machinery: free bits over the
  unordered nonzero pairs, a reversibility filter, `analyze`, and dedup by
  `find_isomorphism`.

An associativity filter checks the search's cut through order 5: the
hypergroup search yields exactly the total tables of the mosaic search that
`product_of_subsets` finds associative on all n^3 triples, in order.  An
orbit-stabilizer count checks the isomorph rejection up to order 5, and
cap-boundary tests pin the node counts of the pruned search, also when its
sigma blocks are read in turn.  Past the
old algorithm's reach, sha256 digests pin the tables and their order.  The
lane comparison of the canonicity test, every symmetry in one step, is
checked against the per-symmetry comparison through 8-bit chunk tables
that it replaced.
"""
import functools
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import hyperkit
from hyperkit import zoo
from hyperkit.axioms import analyze, lane_failures
from hyperkit.core import (
    find_isomorphism,
    from_masks,
    image_tables,
    iter_bits,
    mask_of,
    pack_lanes,
    product_of_subsets,
)
from hyperkit.errors import SearchCapExceeded
from hyperkit.search import Budget
from hyperkit.zoo import enumerate_canonical_hypergroups, enumerate_small_mosaics

from util import set_search_cap

CANONICAL = ("CanonicalHypergroup", "AbelianGroup")

# ---------------------------------------------------------------------------
# The original algorithm, kept as an oracle


def _old_involutions(k):
    out = []
    for swaps in range(k // 2 + 1):
        sigma = list(range(k))
        for s in range(swaps):
            sigma[2 * s], sigma[2 * s + 1] = 2 * s + 1, 2 * s
        out.append(tuple(sigma))
    return out


def _old_triple_orbits(nz, sigma):
    seen = set()
    orbits = []
    for t in itertools.product(range(nz), repeat=3):
        if t in seen:
            continue
        stack = [t]
        orb = set()
        while stack:
            cur = stack.pop()
            if cur in orb:
                continue
            orb.add(cur)
            x, y, z = cur
            stack.append((y, x, z))
            stack.append((z, sigma[y], x))
        orbits.append(sorted(orb))
        seen |= orb
    return orbits


def _old_assoc_ok(tab, n):
    def union(mask, offset, stride):
        out = 0
        for d in range(n):
            if (mask >> d) & 1:
                out |= tab[offset + d * stride]
        return out

    for i in range(1, n):
        for j in range(1, n):
            for k in range(i, n):
                left = union(tab[i * n + j], k, n)
                right = union(tab[j * n + k], i * n, 1)
                if left != right:
                    return False
    return True


def _old_signature(M):
    n, tbl = M.n, M.table

    def esig(x):
        return (
            tuple(
                sorted(
                    (
                        tbl[x][y].bit_count(),
                        (tbl[x][y] >> x) & 1,
                        (tbl[x][y] >> y) & 1,
                        tbl[x][y] & 1,
                    )
                    for y in range(n)
                )
            ),
            tbl[x][x].bit_count(),
        )

    classes = {}
    for x in range(1, n):
        classes.setdefault(esig(x), []).append(x)
    keys = sorted(classes)
    best = None
    blocks = [classes[kk] for kk in keys]
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        seq = [0] + [x for block in arrangement for x in block]
        pos = [0] * n
        for new, old in enumerate(seq):
            pos[old] = new
        cur = tuple(
            sum(1 << pos[z] for z in range(n) if (tbl[a][b] >> z) & 1)
            for a in seq
            for b in seq
        )
        if best is None or cur < best:
            best = cur
    return (tuple(keys), best)


def _old_tables(n, require_total, require_assoc):
    """Every labelled table, in search order: orbit i "in" before "out"."""
    nz = n - 1
    labels = [str(v) for v in range(n)]
    for sigma in _old_involutions(nz):
        orbits = _old_triple_orbits(nz, sigma)
        must_hit = {(x, y) for x in range(nz) for y in range(nz) if sigma[x] != y}
        for choice in itertools.product((1, 0), repeat=len(orbits)):
            chosen = [t for c, orb in zip(choice, orbits) if c for t in orb]
            if require_total and not must_hit <= {(x, y) for x, y, _ in chosen}:
                continue
            tab = [0] * (n * n)
            for x in range(n):
                tab[x] |= 1 << x
                tab[x * n] |= 1 << x
            for x in range(1, n):
                tab[x * n + sigma[x - 1] + 1] |= 1
            for x, y, z in chosen:
                tab[(x + 1) * n + y + 1] |= 1 << (z + 1)
            if require_assoc and not _old_assoc_ok(tab, n):
                continue
            yield from_masks(labels, [tab[r * n : (r + 1) * n] for r in range(n)])


def _old_classes(n, require_total=True, require_assoc=True):
    out, seen = [], set()
    for M in _old_tables(n, require_total, require_assoc):
        sig = _old_signature(M)
        if sig not in seen:
            seen.add(sig)
            out.append(M)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_hypergroups_match_old_algorithm(n):
    new = enumerate_canonical_hypergroups(n)
    assert [M.table for M in new] == [M.table for M in _old_classes(n)]
    assert all(M.labels == tuple(str(v) for v in range(n)) for M in new)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_mosaics_match_old_algorithm(n):
    new = enumerate_small_mosaics(n)
    old = _old_classes(n, require_total=False, require_assoc=False)
    assert [(M.labels, M.table) for M in new] == [(M.labels, M.table) for M in old]


# ---------------------------------------------------------------------------
# The associativity filter of the mosaic search


def _total_and_associative(M):
    """Every entry nonempty, and (x + y) + z = x + (y + z) on all n^3
    triples, both sides by `product_of_subsets`."""
    t = M.table
    points = [1 << x for x in range(M.n)]
    return all(all(row) for row in t) and all(
        product_of_subsets(M, t[x][y], points[z]) == product_of_subsets(M, points[x], t[y][z])
        for x in range(M.n)
        for y in range(M.n)
        for z in range(M.n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hypergroup_search_is_the_filtered_mosaic_search(n):
    """Isomorphisms preserve totality and associativity, so a class of
    hypergroup tables has the same first table in both searches, which
    visit the tables in one order: the mosaic search, filtered, is the
    hypergroup search (50,520 tables filter to 3,776 at n = 5)."""
    mosaics = zoo.enumerate_reversible_tables(n, hypergroups=False)
    expected = [M.table for M in mosaics if _total_and_associative(M)]
    assert [M.table for M in zoo.enumerate_reversible_tables(n)] == expected


# ---------------------------------------------------------------------------
# An independent raw scan at order 4


def _raw_canonical_hypergroups_4():
    """Canonical hypergroups on {0, 1, 2, 3} up to isomorphism.

    The unknowns are the sums x + y of the six unordered nonzero pairs.  The
    inverse map fixes bit 0 of each sum, and the nonzero part is free.  A
    partial assignment is dropped when some z in x + y, with both x + y and
    z + inv(y) assigned, has x outside z + inv(y).  Survivors go to
    `analyze`, and the classes are deduplicated by `find_isomorphism`.
    """
    n = 4
    pairs = [(x, y) for x in range(1, n) for y in range(x, n)]
    slot = {}
    for i, (x, y) in enumerate(pairs):
        slot[(x, y)] = slot[(y, x)] = i
    reps = []
    for images in itertools.permutations(range(1, n)):
        inv = (0,) + images
        if any(inv[inv[x]] != x for x in range(n)):
            continue
        # z in x + y needs x in z + inv(y); checks[i] lists the conditions
        # (slot of x + y, z, slot of z + inv(y), x) decided at slot i
        checks = [[] for _ in pairs]
        for x, y, z in itertools.product(range(1, n), repeat=3):
            a, b = slot[(x, y)], slot[(z, inv[y])]
            checks[max(a, b)].append((a, z, b, x))
        sums = [0] * len(pairs)

        def scan(i):
            if i == len(pairs):
                yield tuple(sums)
                return
            x, y = pairs[i]
            zero = 1 if inv[x] == y else 0
            for free in range(1 << (n - 1)):
                sums[i] = zero | free << 1
                if sums[i] and all(
                    not (sums[a] >> z) & 1 or (sums[b] >> w) & 1
                    for a, z, b, w in checks[i]
                ):
                    yield from scan(i + 1)

        for found in scan(0):
            rows = [[1 << y if x == 0 else 1 << x if y == 0 else found[slot[(x, y)]]
                     for y in range(n)] for x in range(n)]
            M = from_masks([str(v) for v in range(n)], rows)
            if analyze(M).classification not in CANONICAL:
                continue
            if not any(find_isomorphism(M, R) for R in reps):
                reps.append(M)
    return reps


def test_order4_independent_raw_scan():
    # CPU time of this process, so a loaded machine does not fail the bound
    start = time.process_time()
    raw = _raw_canonical_hypergroups_4()
    elapsed = time.process_time() - start
    new = enumerate_canonical_hypergroups(4)
    assert len(raw) == len(new) == 97
    assert all(any(find_isomorphism(M, N) for N in new) for M in raw)
    assert all(any(find_isomorphism(N, M) for M in raw) for N in new)
    assert elapsed <= 5.0


# ---------------------------------------------------------------------------
# Orbit-stabilizer oracle
#
# The tables with inversion sigma fall into orbits under the centralizer
# C(sigma) of sigma among relabellings of the nonzero elements, and the orbit
# of T has |C(sigma)| / |Stab(T)| tables.  With `_orbit_symmetries` returning
# no symmetry, both the subtree cut and the leaf test are off and the search
# yields every valid table, so the emitted classes must account for exactly
# that many tables.  Stabilizers are counted by brute force.


def _sigma_of(M):
    return tuple(M.inverse[x + 1] - 1 for x in range(M.n - 1))


def _orbit_sizes(classes):
    """Sum of |C(sigma)| / |Stab(T)| over the classes, per inversion sigma."""
    sizes = Counter()
    for M in classes:
        sigma = _sigma_of(M)
        nz = len(sigma)
        centralizer = [
            p
            for p in itertools.permutations(range(nz))
            if all(p[sigma[x]] == sigma[p[x]] for x in range(nz))
        ]
        stab = 0
        for p in centralizer:
            P = (0,) + tuple(x + 1 for x in p)
            stab += all(
                M.table[P[a]][P[b]] == mask_of(P[z] for z in iter_bits(M.table[a][b]))
                for a in range(M.n)
                for b in range(M.n)
            )
        assert len(centralizer) % stab == 0
        sizes[sigma] += len(centralizer) // stab
    return sizes


def _every_table(monkeypatch, n, **kwargs):
    """Inversions of every valid table, with the canonicity tests off."""
    with monkeypatch.context() as m:
        m.setattr(zoo, "_orbit_symmetries", lambda *args: [])
        return Counter(_sigma_of(M) for M in zoo.enumerate_reversible_tables(n, **kwargs))


@pytest.mark.parametrize("n, tables", [(3, 15), (4, 326), (5, 65168)])
def test_canonical_hypergroups_orbit_stabilizer(monkeypatch, n, tables):
    sizes = _orbit_sizes(enumerate_canonical_hypergroups(n))
    every = _every_table(monkeypatch, n)
    assert sum(every.values()) == tables
    assert sizes == every


def test_small_mosaics_orbit_stabilizer(monkeypatch):
    sizes = _orbit_sizes(enumerate_small_mosaics(4))
    every = _every_table(monkeypatch, 4, hypergroups=False)
    assert sizes == every


@pytest.mark.parametrize(
    "n, hypergroups", [(1, True), (2, True), (3, True), (4, True), (5, True), (3, False), (4, False)]
)
def test_one_sigma_yields_its_block_of_the_full_run(n, hypergroups):
    full = enumerate_canonical_hypergroups(n) if hypergroups else enumerate_small_mosaics(n)
    sigmas = zoo.involutions(n - 1)
    assert {_sigma_of(M) for M in full} <= set(sigmas)
    for sigma in sigmas:
        block = [M.table for M in full if _sigma_of(M) == sigma]
        alone = zoo.enumerate_reversible_tables(n, hypergroups, sigma)
        assert [M.table for M in alone] == block


@pytest.mark.parametrize("n, nodes, classes", [(4, 626, 97), (5, 41575, 3776)])
def test_node_count_at_cap_boundary(monkeypatch, n, nodes, classes):
    # the leaf test alone visited 1,276 and 379,861 nodes
    assert nodes <= 76_000
    set_search_cap(monkeypatch, nodes)
    assert len(list(zoo.enumerate_reversible_tables(n))) == classes
    set_search_cap(monkeypatch, nodes - 1)
    with pytest.raises(SearchCapExceeded):
        list(zoo.enumerate_reversible_tables(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonicity_tests_shape(n):
    """What the lane comparison relies on, for every sigma.  In each lane, the
    mask of a depth is 0 or the lane's top m bits, so a symmetry is listed
    at most once per depth; m strictly grows with the depth (each
    comparison reads a longer prefix than the last); and depth k lists
    every lane in full, the leaf test.  img[i] holds the image of orbit i
    and rep[i] orbit i itself in each lane, and only `guards` holds a
    guard bit."""
    for sigma in zoo.involutions(n - 1):
        orbits = zoo._triple_orbits(n - 1, sigma)
        k = len(orbits)
        symmetries = zoo._orbit_symmetries(n - 1, sigma, orbits)
        img, rep, masks, guards = zoo._canonicity_lanes(k, symmetries)
        assert len(img) == len(rep) == k and len(masks) == k + 1
        lane = (1 << k + 1) - 1
        top = [((1 << m) - 1) << k - m for m in range(k + 1)]
        for s, image in enumerate(symmetries):
            base = s * (k + 1)
            assert guards >> base & lane == 1 << k
            assert [x >> base & lane for x in img] == [1 << k - 1 - image[i] for i in range(k)]
            assert [x >> base & lane for x in rep] == [1 << k - 1 - i for i in range(k)]
            listed = [M >> base & lane for M in masks]
            assert all(x in top for x in listed)
            grown = [top.index(x) for x in listed if x]
            assert grown == sorted(set(grown))
            assert listed[k] == top[k]
        beyond = len(symmetries) * (k + 1)
        assert all(x >> beyond == 0 for x in (*img, *rep, *masks, guards))


def _per_bit_canonicity_lanes(k, symmetries):
    """`zoo._canonicity_lanes` as first written: every bit ORed on its own
    into ints as wide as all the lanes, quadratic in the lanes."""
    width = k + 1
    img, rep = [0] * k, [0] * k
    masks = [0] * (k + 1)
    guards = 0
    for s, image in enumerate(symmetries):
        base = s * width
        guards |= 1 << (base + k)
        for i in range(k):
            img[i] |= 1 << (base + k - 1 - image[i])
            rep[i] |= 1 << (base + k - 1 - i)
        pre = sorted(range(k), key=image.__getitem__)
        depth = 0
        for m in range(1, k + 1):
            depth = max(depth, pre[m - 1] + 1)
            if m == k or pre[m] >= depth:
                masks[depth] |= ((1 << m) - 1) << (base + k - m)
    return img, rep, masks, guards


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_canonicity_lanes_match_per_bit_build(n):
    for sigma in zoo.involutions(n - 1):
        orbits = zoo._triple_orbits(n - 1, sigma)
        symmetries = zoo._orbit_symmetries(n - 1, sigma, orbits)
        expected = _per_bit_canonicity_lanes(len(orbits), symmetries)
        assert zoo._canonicity_lanes(len(orbits), symmetries) == expected


# ---------------------------------------------------------------------------
# The lane comparison against the per-symmetry comparison it replaced


def _chunk_comparisons(k, symmetries):
    """The per-symmetry comparisons the search made before its lanes:
    tests[i] maps each symmetry s whose top m bits of v(pT) become final
    at depth i to (k - m, the 8-bit chunk tables that map v to v(pT))."""
    tests = [{} for _ in range(k + 1)]
    for s, image in enumerate(symmetries):
        chunks = image_tables([1 << (k - 1 - image[k - 1 - b]) for b in range(k)])
        pre = sorted(range(k), key=image.__getitem__)
        depth = 0
        for m in range(1, k + 1):
            depth = max(depth, pre[m - 1] + 1)
            if m == k or pre[m] >= depth:
                tests[depth][s] = (k - m, chunks)
    return tests


def _scalar_comparisons(tests, i, v):
    """Depth i, one symmetry at a time: (the symmetries listed there whose
    v(pT) is above v, those whose v(pT) is below)."""
    above, below = set(), set()
    for s, (shift, chunks) in tests[i].items():
        w = 0
        for j, chunk in enumerate(chunks):
            w |= chunk[(v >> 8 * j) & 255]
        w >>= shift
        u = v >> shift
        if w != u:
            (above if w > u else below).add(s)
    return above, below


def _lane_cut(lanes, i, v):
    """Whether depth i of the search cuts, from W and R built from the
    decided bits of v, as the search carries them."""
    img, rep, masks, guards = lanes
    k = len(img)
    W = R = 0
    for j in range(i):
        if v >> k - 1 - j & 1:
            W |= img[j]
            R |= rep[j]
    return (R & masks[i] | guards) - (W & masks[i]) & guards != guards


def _assert_walk(lanes, tests, k, count, v):
    """Down the path of the k-bit vector v, as far as it is not cut: the
    lanes cut where the per-symmetry search, which compared only its tied
    symmetries, cut.  A symmetry that search untied, one found below v, is
    never found above v again, which is why the lanes carry no tied set.
    Returns the counts of cut, untie and plain steps."""
    tied = set(range(count))
    steps = Counter()
    for i in range(k + 1):
        decided = v >> k - i << k - i
        above, below = _scalar_comparisons(tests, i, decided)
        assert not above - tied
        assert _lane_cut(lanes, i, decided) == bool(above)
        steps["cut" if above else "untie" if below & tied else "plain"] += 1
        if above:
            break
        tied -= below
    return steps


SIGMAS = [(n, sigma) for n in range(1, 7) for sigma in zoo.involutions(n - 1)]


@functools.cache
def _comparisons(n, sigma):
    """(k, the symmetries, their lanes, their per-symmetry comparisons,
    the orbit-choice vectors of the first 200 tables yielded for sigma)."""
    orbits = zoo._triple_orbits(n - 1, sigma)
    k = len(orbits)
    symmetries = zoo._orbit_symmetries(n - 1, sigma, orbits)
    ((_inverse, tables),) = zoo.reversible_table_blocks(n, True, sigma)
    vectors = [
        sum(1 << k - 1 - i for i, [(x, y, z), *_] in enumerate(orbits) if t[x + 1][y + 1] >> z + 1 & 1)
        for t in itertools.islice(tables, 200)
    ]
    lanes = zoo._canonicity_lanes(k, symmetries)
    return k, symmetries, lanes, _chunk_comparisons(k, symmetries), vectors


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lane_cuts_match_scalar_oracle(data):
    """Every sigma at n <= 6, and an orbit-choice vector that is random,
    that of a yielded table, or that of a yielded table relabelled by a
    symmetry: the lanes cut at the depth where the per-symmetry
    comparisons cut, and never on a yielded table's path."""
    k, symmetries, lanes, tests, vectors = _comparisons(*data.draw(st.sampled_from(SIGMAS)))
    kind = data.draw(st.sampled_from(["random", "yielded", "relabelled"]))
    if kind == "random":
        v = data.draw(st.integers(0, (1 << k) - 1))
    else:
        v = data.draw(st.sampled_from(vectors))
    if kind == "relabelled" and symmetries:
        image = data.draw(st.sampled_from(symmetries))
        v = sum(1 << k - 1 - image[i] for i in range(k) if v >> k - 1 - i & 1)
    steps = _assert_walk(lanes, tests, k, len(symmetries), v)
    if kind == "yielded":
        assert steps["cut"] == 0 and sum(steps.values()) == k + 1


def test_lane_cuts_match_scalar_oracle_on_every_vector():
    """Every orbit-choice vector of every sigma with at most 10 orbits."""
    steps = Counter()
    for n, sigma in SIGMAS:
        k, symmetries, lanes, tests, _vectors = _comparisons(n, sigma)
        if k <= 10:
            for v in range(1 << k):
                steps += _assert_walk(lanes, tests, k, len(symmetries), v)
    assert set(steps) == {"cut", "untie", "plain"}


def test_first_order6_identity_tables_pinned(monkeypatch):
    """The first 5,000 tables of order 6 at sigma = id, the sigma with the
    most symmetries (119), and the 12,465 nodes that reach them, both
    recorded from the search that compared one symmetry at a time."""
    identity = (0, 1, 2, 3, 4)
    set_search_cap(monkeypatch, 12_465)
    tables = zoo.enumerate_reversible_tables(6, sigma=identity)
    found = [(M.labels, M.table) for M in itertools.islice(tables, 5000)]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "06219ee185af41e44039a5fd42a2436f9c747cc6c92b6bcf2f388e45fa0c0166"
    )
    set_search_cap(monkeypatch, 12_464)
    with pytest.raises(SearchCapExceeded):
        list(itertools.islice(zoo.enumerate_reversible_tables(6, sigma=identity), 5000))


# one sigma at order 6: 9,685 classes in about 96,000 nodes
ORDER6_SIGMA = (1, 0, 3, 2, 4)


@pytest.mark.parametrize(
    "build, classes, digest",
    [
        (
            lambda: enumerate_canonical_hypergroups(5),
            3776,
            "5033ca3db8162699f684525d4fbd4cce98daf761db0caf2f3d3c5910132eec79",
        ),
        (
            lambda: zoo.enumerate_reversible_tables(6, sigma=ORDER6_SIGMA),
            9685,
            "d07da2b3274b2853c71e829ae63476cb1a5514787330fe81fd22b2829b5fcaa8",
        ),
        (
            lambda: enumerate_small_mosaics(4),
            272,
            "5c3f36dadfcd6c8ed196457ff7e97b71732f6ae27f204296fc381facb69ca8cf",
        ),
    ],
    ids=["canonical-5", "order6-one-sigma", "mosaics-4"],
)
def test_tables_and_order_pinned_past_old_algorithm(build, classes, digest):
    """The digests were recorded from the search that compared every
    symmetry at every depth, before symmetries already settled below v were
    dropped from the comparisons."""
    found = [(M.labels, M.table) for M in build()]
    assert len(found) == classes
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


def test_node_count_at_cap_boundary_order6_one_sigma(monkeypatch):
    set_search_cap(monkeypatch, 96_149)
    assert len(list(zoo.enumerate_reversible_tables(6, sigma=ORDER6_SIGMA))) == 9685
    set_search_cap(monkeypatch, 96_148)
    with pytest.raises(SearchCapExceeded):
        list(zoo.enumerate_reversible_tables(6, sigma=ORDER6_SIGMA))


# ---------------------------------------------------------------------------
# Invariants and the search cap


def test_invariant_checks_survive_optimize_flag():
    script = """
import sys
from hyperkit import errors, zoo
print(sys.flags.optimize, len(zoo.enumerate_canonical_hypergroups(4)))

blocks = zoo.reversible_table_blocks


def with_table(table, inverse):
    # the search, with table yielded last in the block of inverse
    def patched(n):
        for inv, tables in blocks(n):
            yield inv, [*tables, table] if inv == inverse else tables
    return patched


# a real commutative mosaic with an empty sum, so no hypergroup, in the
# block of its own inverse map; then a real hypergroup whose inverse map
# swaps 1 and 2, in the block that claims the identity map
mosaic = next(M for M in zoo.enumerate_small_mosaics(3) if not all(M.table[1]))
swapped = next(M for M in zoo.enumerate_canonical_hypergroups(3) if M.inverse == (0, 2, 1))
for table, inverse in ((mosaic.table, mosaic.inverse), (swapped.table, (0, 1, 2))):
    zoo.reversible_table_blocks = with_table(table, inverse)
    try:
        zoo.enumerate_canonical_hypergroups(3)
    except errors.InvariantViolated as exc:
        print("raised:", exc)
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
    lines = proc.stdout.splitlines()
    assert lines == [
        "1 97",
        "raised: enumerate_canonical_hypergroups(n=3) produced a CommutativeMosaic",
        "raised: enumerate_canonical_hypergroups(n=3) produced a table with identity 0 "
        "and inverse map (0, 2, 1), not 0 and (0, 1, 2)",
    ]


@pytest.mark.parametrize(
    "n, sigma, name",
    [
        (4, (0, 2, 1), "sigma"),  # an involution, but not a listed representative
        (4, (1, 0), "sigma"),  # too short
        (3, (0, 1, 2), "sigma"),  # too long
        (0, (), "sigma"),  # no sigma at n = 0
        (-1, None, "n"),
        (9, None, "n"),  # past the byte image tables and pack_lanes
    ],
)
def test_search_arguments_checked(n, sigma, name):
    """A sigma that is not one of `involutions(n - 1)`, n < 0 and n > 8
    raise `ValueError` naming the argument, before any table is searched:
    at n = 9 listing the symmetries alone would outlast any cap."""
    with pytest.raises(ValueError, match=f"^enumerate_reversible_tables: {name} must be"):
        zoo.enumerate_reversible_tables(n, sigma=sigma)
    with pytest.raises(ValueError, match=f"^enumerate_reversible_tables: {name} must be"):
        zoo.reversible_table_blocks(n, False, sigma)
    if sigma is None:
        bound = ">= 0" if n < 0 else "<= 8"
        with pytest.raises(ValueError, match=f"^enumerate_reversible_tables: n must be {bound}, "):
            enumerate_canonical_hypergroups.__wrapped__(n)


def test_blocks_are_the_search_by_sigma():
    """`reversible_table_blocks` yields, one block per sigma of
    `involutions(n - 1)`, the tables of `enumerate_reversible_tables` in
    order, each block with its tables' inverse map."""
    for n, hypergroups in ((1, True), (3, True), (4, True), (5, True), (4, False)):
        full = zoo.enumerate_reversible_tables(n, hypergroups)
        blocks = [(inv, list(tables)) for inv, tables in zoo.reversible_table_blocks(n, hypergroups)]
        assert [inv[1:] for inv, _ in blocks] == [
            tuple(x + 1 for x in sigma) for sigma in zoo.involutions(n - 1)
        ]
        assert [M.table for M in full] == [t for _, tables in blocks for t in tables]
        for inv, tables in blocks:
            assert {from_masks(range(n), t).inverse for t in tables} <= {inv}


@pytest.mark.parametrize("n, nodes, classes", [(4, 626, 97), (5, 41575, 3776)])
def test_census_node_count_at_cap_boundary(monkeypatch, n, nodes, classes):
    """The census runs the search of `enumerate_reversible_tables`, node
    for node."""
    set_search_cap(monkeypatch, nodes)
    assert sum(len(block) for _inverse, block, _lanes in zoo.census_blocks.__wrapped__(n)) == classes
    set_search_cap(monkeypatch, nodes - 1)
    with pytest.raises(SearchCapExceeded):
        zoo.census_blocks.__wrapped__(n)


def _read_in_turn(tables):
    """One table from each unfinished block in turn, until all are done."""
    out = [[] for _ in tables]
    live = list(range(len(tables)))
    while live:
        for j in list(live):
            table = next(tables[j], None)
            if table is None:
                live.remove(j)
            else:
                out[j].append(table)
    return out


def test_blocks_read_in_turn_share_the_budget_exactly(monkeypatch):
    """Each block counts its nodes down locally and writes the count back
    before each yield and when it ends, so reading the blocks of one call in
    turn, or closing one early, spends the budget node for node as reading
    the same tables one block after the other."""
    budgets = []
    monkeypatch.setattr(zoo, "Budget", lambda what: budgets.append(Budget(what)) or budgets[-1])
    sequential, spent = [], []
    for _inverse, tables in zoo.reversible_table_blocks(5):
        sequential.append(list(tables))
        spent.append(budgets[-1].cap - budgets[-1].left)
    assert spent[-1] == 41_575
    blocks = [tables for _inverse, tables in zoo.reversible_table_blocks(5)]
    head = list(itertools.islice(blocks[0], 100))
    # the nodes up to the 100th table of the first block, then the others
    closed_at = budgets[-1].cap - budgets[-1].left + spent[-1] - spent[0]

    set_search_cap(monkeypatch, 41_575)
    assert _read_in_turn([tables for _inverse, tables in zoo.reversible_table_blocks(5)]) == sequential
    set_search_cap(monkeypatch, 41_574)
    with pytest.raises(SearchCapExceeded, match="after 41574 nodes"):
        _read_in_turn([tables for _inverse, tables in zoo.reversible_table_blocks(5)])

    for cap in (closed_at, closed_at - 1):
        set_search_cap(monkeypatch, cap)
        blocks = [tables for _inverse, tables in zoo.reversible_table_blocks(5)]
        second = [next(blocks[1])]  # suspended while the first block runs
        assert list(itertools.islice(blocks[0], 100)) == head == sequential[0][:100]
        blocks[0].close()
        if cap == closed_at:
            assert second + list(blocks[1]) == sequential[1]
            assert list(blocks[2]) == sequential[2]
            assert budgets[-1].left == 0
        else:
            with pytest.raises(SearchCapExceeded):
                second + list(blocks[1]) + list(blocks[2])


# ---------------------------------------------------------------------------
# What each class holds


@pytest.mark.parametrize(
    "build",
    [lambda: enumerate_canonical_hypergroups(5), lambda: enumerate_small_mosaics(4)],
    ids=["canonical-5", "mosaics-4"],
)
def test_classes_share_rows_and_labels(build):
    classes = build()
    rows = [row for M in classes for row in M.table]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
    assert len({id(M.labels) for M in classes}) == 1
    inverses = [M.inverse for M in classes]
    assert len({id(inv) for inv in inverses}) == len(set(inverses)) < len(inverses)


def test_census_caches_no_report(monkeypatch):
    """The census packs each sigma block once and checks it in byte lanes,
    one `lane_failures` call per block, never through the memoised
    `analyze`, and builds its classes without `from_masks`.  Each block
    keeps the lanes it checked, and `enumerate_canonical_hypergroups` is
    the blocks' classes in order."""
    seen, packed = [], []
    monkeypatch.setattr(zoo, "analyze", lambda M: pytest.fail("census called analyze"))
    monkeypatch.setattr(zoo, "from_masks", lambda *a: pytest.fail("census called from_masks"))
    monkeypatch.setattr(
        zoo, "lane_failures", lambda *args: seen.append(args) or lane_failures(*args)
    )
    monkeypatch.setattr(
        zoo, "pack_lanes", lambda *args: packed.append(args) or pack_lanes(*args)
    )
    blocks = zoo.census_blocks.__wrapped__(4)
    classes = [M for _inverse, block, _lanes in blocks for M in block]
    assert len(classes) == 97 and len(seen) == len(packed) == len(blocks) == len(zoo.involutions(3))
    assert classes == enumerate_canonical_hypergroups(4)
    # the kernel read every class once, block after block
    for (lanes, e, inverse), (kept_inverse, block, kept) in zip(seen, blocks):
        assert kept is lanes and kept_inverse is inverse
        assert lanes == pack_lanes(4, [M.table for M in block])
        assert {(M.identity, M.inverse) for M in block} == {(e, inverse)}


# tracemalloc's count for one class of list(enumerate_reversible_tables(5)):
# 225 bytes measured (the Hypermagma, its table tuple and its list slot), 305
# when each class held its own inverse tuple, 754 when it held its own rows
# and labels too
BYTES_PER_CLASS = 400
# tracemalloc's count for hashing one of those classes: 36 bytes measured,
# the int that holds the hash; 100 when caching it built an instance dict
HASH_BYTES_PER_CLASS = 48


def test_bytes_retained_per_class():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classes = list(zoo.enumerate_reversible_tables(5))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(classes) == 3776
    assert retained / len(classes) < BYTES_PER_CLASS


def test_bytes_retained_per_hashed_class():
    classes = list(zoo.enumerate_reversible_tables(5))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for M in classes:
            hash(M)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(classes) == 3776
    assert retained / len(classes) < HASH_BYTES_PER_CLASS
    M = classes[-1]
    assert hash(M) == hash((M.labels, M.table, M.identity, M.inverse))


def test_cap_message_names_enumerator_and_size(monkeypatch):
    set_search_cap(monkeypatch, 10)
    with pytest.raises(SearchCapExceeded) as info:
        enumerate_canonical_hypergroups(5)
    message = str(info.value)
    assert "enumerate_reversible_tables(n=5)" in message
    assert "after 10 nodes" in message


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_capped_call_matches_uncapped(monkeypatch, n):
    set_search_cap(monkeypatch, 10**5)
    capped = enumerate_canonical_hypergroups(n)
    monkeypatch.delenv("HYPERKIT_SEARCH_CAP")
    assert [M.table for M in capped] == [M.table for M in enumerate_canonical_hypergroups(n)]
