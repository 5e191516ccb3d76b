"""Spans around calls into hyperkit's public functions, recorded from outside
the library.

`Tracer.install` wraps each listed function and rebinds the wrapper in every
loaded `hyperkit.*` namespace that holds the original: the modules import
each other's names with `from .hom import enumerate_morphisms`, so patching
only the defining module would miss most calls.  Spans are not kept one by
one (the paper suite makes over a million wrapped calls); they are
aggregated by (function, calling span) into calls, total and self seconds.
Self time is a span's duration minus the time of the wrapped calls it made.
Times are read from the pass's calibration clock, so the calibration slices
that interrupt a span are not counted in it.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager

# Public functions whose calls are traced, as "module.function".
TRACED = (
    "zoo.enumerate_canonical_hypergroups",
    "zoo.make_gf9",
    "zoo.gf9_quotient",
    "zoo.krasner",
    "zoo.cyclic_group",
    "zoo.group_to_hypermagma",
    "zoo.refute_coproduct_candidate",
    "zoo.refute_equalizer_candidate",
    "core.from_masks",
    "core.find_isomorphism",
    "axioms.analyze",
    "hom.enumerate_morphisms",
    "monoidal.enumerate_bimorphisms",
    "monoidal.boxtimes",
    "monoidal.boxdot",
    "monoidal.wedge_smash",
    "monoidal.tensor",
    "monoidal.hom_object",
    "univ.unitize",
    "univ.coequalizer",
    "matroid.matroid_to_mosaic",
    "formats.load",
    "formats.save",
    "cli.main",
)

# Functions whose repeat share is measured: the share of calls whose bound
# arguments equal those of an earlier call in the same pass.
REPEAT_TRACKED = ("axioms.analyze", "hom.enumerate_morphisms")


class Tracer:
    def __init__(self, clock) -> None:
        self._now = clock.net
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.repeats: dict[str, list[int]] = {}  # -> [calls, repeated calls]
        self._stack: list[list] = []  # [name, seconds spent in wrapped children]
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"hyperkit.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "hyperkit" and not mod_name.startswith("hyperkit."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _record(self, name: str, start: float, frame: list) -> None:
        dt = self._now() - start
        stack = self._stack
        stack.pop()
        caller = stack[-1][0] if stack else "<top>"
        if stack:
            stack[-1][1] += dt
        rec = self.stats.get((name, caller))
        if rec is None:
            rec = self.stats[(name, caller)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _wrap(self, name: str, fn):
        stack = self._stack
        record = self._record
        now = self._now
        if name in REPEAT_TRACKED:
            sig = inspect.signature(fn)
            seen: set = set()
            counts = self.repeats[name] = [0, 0]

            def note_repeat(args, kwargs) -> None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                counts[0] += 1
                if key in seen:
                    counts[1] += 1
                else:
                    seen.add(key)
        else:
            note_repeat = None

        def wrapper(*args, **kwargs):
            if note_repeat is not None:
                note_repeat(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, start, frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def root(self, name: str):
        """A span for one unit of workload work (a suite check, a desk call)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = self._now()
        try:
            yield
        finally:
            self._record(name, start, frame)

    def by_function(self) -> dict[str, list]:
        """Per function: [calls, total_s, self_s] summed over callers."""
        out: dict[str, list] = {}
        for (name, _caller), (calls, total, self_s) in self.stats.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        return out

    def spans(self) -> list[dict]:
        """The aggregated span table, for the trace file."""
        return [
            {"function": name, "caller": caller, "calls": c, "total_s": t, "self_s": s}
            for (name, caller), (c, t, s) in sorted(self.stats.items())
        ]
