"""Structure-only invariants of finite hypermagmas, written independently of
hyperkit so that they stay a check on it.

A table is a square list of bit masks: entry [i][j] has bit z set when z is
in i*j.  Nothing here imports hyperkit.
"""
from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache


def find_identity(table) -> int | None:
    """The two-sided scalar identity, found by brute force."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == 1 << x and table[x][e] == 1 << x for x in range(n)):
            return e
    return None


def image_mask(mask: int, new_of) -> int:
    out = 0
    for i, j in enumerate(new_of):
        if (mask >> i) & 1:
            out |= 1 << j
    return out


@lru_cache(maxsize=None)
def _relabellings(n: int, identity: int | None):
    """Every carrier order that puts the identity first, as (flat index
    order, mask image table) pairs."""
    rest = [x for x in range(n) if x != identity]
    head = [] if identity is None else [identity]
    out = []
    for order in itertools.permutations(rest):
        old = head + list(order)
        new_of = [0] * n
        for k, o in enumerate(old):
            new_of[o] = k
        masks = tuple(image_mask(m, new_of) for m in range(1 << n))
        out.append((tuple(a * n + b for a in old for b in old), masks))
    return out


def canonical_form(table) -> tuple:
    """Lexicographically least relabelled table over all carrier orders
    (isomorphisms fix the unique identity, so only orders starting with it
    are tried).  Two tables get the same form iff they are isomorphic."""
    n = len(table)
    e = find_identity(table)
    flat = [m for row in table for m in row]
    best = min(
        tuple(masks[flat[i]] for i in order) for order, masks in _relabellings(n, e)
    )
    return (n, e is not None, best)


def class_digest(tables) -> str:
    """Order-independent digest of a set of isomorphism classes."""
    forms = sorted(canonical_form(t) for t in tables)
    return hashlib.sha256(repr(forms).encode()).hexdigest()


def invariant(table) -> list:
    """Cheap isomorphism invariant for objects too large for canonical_form:
    order, whether a unit exists, and a digest of the multisets of entry
    sizes and of row-size profiles."""
    sizes = [sorted(m.bit_count() for m in row) for row in table]
    profile = repr((sorted(s for row in sizes for s in row), sorted(sizes)))
    return [len(table), find_identity(table) is not None, hashlib.sha256(profile.encode()).hexdigest()[:16]]


def is_isomorphism(src, dst, mapping) -> bool:
    """True when mapping (a list of indices) is a bijection carrying the
    table src onto the table dst."""
    n = len(src)
    if len(dst) != n or sorted(mapping) != list(range(n)):
        return False
    return all(
        image_mask(src[i][j], mapping) == dst[mapping[i]][mapping[j]]
        for i in range(n)
        for j in range(n)
    )
