"""Shared builders for the test suite."""
from hyperkit.axioms import Tag
from hyperkit.suite import d_weak_example as d_example, klein_v as klein, mixed3, z2
from hyperkit.univ import cofree, free, terminal
from hyperkit.zoo import gf9_quotient, krasner


def f_mosaic():
    return free(Tag.CMSC, ("1",))


def gf9_add():
    return gf9_quotient().additive


SMALL_BATTERY = None


def small_battery():
    global SMALL_BATTERY
    if SMALL_BATTERY is None:
        SMALL_BATTERY = [
            terminal(),
            z2(),
            krasner(),
            f_mosaic(),
            klein(),
            d_example(),
            mixed3(),
            cofree(("a", "b")),
            free(Tag.HMAG, ("a", "b")),
        ]
    return SMALL_BATTERY


def set_search_cap(monkeypatch, nodes):
    """Cap every search at `nodes` nodes until the test ends."""
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", str(nodes))
