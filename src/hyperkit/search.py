"""The search budget shared by every enumerator, and the one memo that every
cached function goes through.

A memoised result is stored with the most nodes any single search spent
while computing it, nested memoised calls included.  A hit whose count
exceeds `search_cap()` computes again, so it raises `SearchCapExceeded`
exactly where a cold call would.

An entry lasts until the innermost `scope()` block open when it was made
ends.  A memoised call made outside every block is a block of its own, so
it and its nested calls share their results while it runs and drop them
when it returns.  A zero-argument function, a fixed object such as
`zoo.krasner`, keeps its one entry for the life of the process.
"""
from __future__ import annotations

import contextlib
import functools
import os

from .errors import FormatError, SearchCapExceeded

DEFAULT_SEARCH_CAP = 10**8


# The cap `held_cap` read for the block it runs, else None: outside one,
# every search and every memo hit reads the environment again.
_held: int | None = None


def search_cap() -> int:
    """Node budget for every enumerator; HYPERKIT_SEARCH_CAP overrides.

    A value that is not a non-negative integer raises `FormatError`.  Inside
    a `held_cap` block, the value read when the block began.
    """
    if _held is not None:
        return _held
    raw = os.environ.get("HYPERKIT_SEARCH_CAP")
    if not raw:
        return DEFAULT_SEARCH_CAP
    if not raw.strip().isdecimal():
        raise FormatError(f"HYPERKIT_SEARCH_CAP must be a non-negative integer, not {raw!r}")
    return int(raw)


@contextlib.contextmanager
def held_cap():
    """Read the cap once, raising `FormatError` when it is malformed, and
    let `search_cap()` return that value until the block ends.  A CLI
    command runs in one block, so its searches and memo hits read no
    environment."""
    global _held
    outer, _held = _held, search_cap()
    try:
        yield
    finally:
        _held = outer


# One entry per memoised call in progress, innermost last: the Budgets
# created during the call and the node counts of its nested memoised calls.
# Calls nest on one stack, so memoised functions are not for concurrent use.
_open: list[list] = []


class Budget:
    """Node budget of one search, `search_cap()` nodes; `what` names the
    search in the error."""

    __slots__ = ("cap", "left", "what")

    def __init__(self, what: str):
        self.cap = self.left = search_cap()
        self.what = what
        if _open:
            _open[-1].append(self)

    def spend(self, nodes: int = 1) -> None:
        self.left -= nodes
        if self.left < 0:
            raise SearchCapExceeded(f"{self.what}: node cap exceeded after {self.cap} nodes")


# The memo entries made in each open `scope` block, innermost last, as
# (table, key) pairs.
_scopes: list[list] = []


def _drop(made: list) -> None:
    for table, key in made:
        table.pop(key, None)


@contextlib.contextmanager
def scope():
    """A block whose memo entries are dropped when it ends: the memoised
    calls inside it share their results until then."""
    _scopes.append([])
    try:
        yield
    finally:
        _drop(_scopes.pop())


def memo(fn):
    """Memoise `fn` on its positional args.

    List results come back as fresh lists.  The wrapper has `cache_clear()`.
    """
    table: dict = {}

    @functools.wraps(fn)
    def wrapper(*args):
        hit = table.get(args)
        if hit is not None:
            value, nodes = hit
            # a count of 0 is within every cap, so it skips reading the cap
            if nodes and nodes > search_cap():
                hit = None
        if hit is None:
            frame: list = []
            _open.append(frame)
            own = not _scopes  # a call outside every scope is its own
            if own:
                _scopes.append([])
            try:
                value = fn(*args)
            finally:
                _open.pop()
                if own:
                    _drop(_scopes.pop())
            nodes = 0
            for x in frame:
                spent = x if isinstance(x, int) else x.cap - x.left
                if spent > nodes:
                    nodes = spent
            if not args:
                table[args] = (value, nodes)
            elif not own:
                table[args] = (value, nodes)
                _scopes[-1].append((table, args))
        if _open:
            _open[-1].append(nodes)
        return list(value) if isinstance(value, list) else value

    wrapper.cache_clear = table.clear
    return wrapper
