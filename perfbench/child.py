"""One pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py WORKLOAD PASS_SEED MODE WORKDIR

MODE is `plain`, `trace` or `setup`.  The child imports hyperkit and builds
its inputs (the set-up), notes the time, does the timed work, checks every
output, and prints one JSON line with the op verdicts and timings.  Op times
are scaled to the reference machine speed (calib.py); the raw ones are kept
alongside.  In `trace` mode the calls into hyperkit's public functions are
traced (tracer.py) and the aggregated spans are returned too; in `setup`
mode the child stops after the set-up.
"""
from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
from calib import NOMINAL_S, Clock  # noqa: E402
from tracer import Tracer  # noqa: E402

# The paper suite with its refuters at size <= 4: the full default suite takes
# over a minute, more than one benchmark run may last.
SUITE_ARGV = ["paper-suite", "--max-size", "4"]
ENUMERATE_SIZES = (1, 2, 3, 4, 5)
DESK_BLOCKS = 80  # desk calls per pass: 80 of each kind


def _reference(name: str):
    with open(os.path.join(HERE, "reference", name)) as fh:
        return fh.read() if name.endswith(".txt") else json.load(fh)


class Pass:
    """Timings of one pass.  result() reports each op as (kind, scaled
    seconds, ok, raw seconds)."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.clock = Clock()
        self.tracer = Tracer(self.clock) if mode == "trace" else None
        self.spans: list[tuple[float, float]] = []  # raw (start, end) per timed op
        self.ready_at: float | None = None
        self.setup_slices_s = 0.0
        self.setup_scale = 1.0
        self.clock.start()

    def ready(self) -> None:
        """Mark the end of set-up.  The CLOCK_MONOTONIC reading is system-wide,
        so run.py subtracts the time it started this interpreter (and the
        calibration slices taken since, and scales the rest like an op)."""
        self.ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.setup_slices_s = self.clock.warmup_s + sum(self.clock.took)
        self.clock.calibrate()
        self.setup_scale = NOMINAL_S * len(self.clock.took) / sum(self.clock.took)
        if self.mode == "setup":
            print(json.dumps(self.result([])), flush=True)
            sys.exit(0)
        if self.tracer:
            self.tracer.install()

    def cpu_start(self) -> tuple[float, int]:
        return process_time(), len(self.clock.took)

    def cpu_since(self, mark: tuple[float, int]) -> float:
        """CPU seconds since mark, less the calibration slices taken since."""
        return process_time() - mark[0] - sum(self.clock.took[mark[1]:])

    def root(self, name: str):
        return self.tracer.root(name) if self.tracer else nullcontext()

    def timed(self, fn, *args):
        """Call fn; return (result or None, exception or None, op index)."""
        start = perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a crash is a failed op, judged by the caller
            result, error = None, exc
        self.spans.append((start, perf_counter()))
        return result, error, len(self.spans) - 1

    def result(self, verdicts: list[tuple[str, list[int], bool]], **extra) -> dict:
        """verdicts: (kind, indices into self.spans, ok) per op; an op's time
        is the sum of its spans, and an op without spans has none."""
        if self.tracer:
            self.tracer.uninstall()
        self.clock.calibrate()
        self.clock.stop()
        ops = []
        for kind, spans, ok in verdicts:
            times = [self.clock.measure(*self.spans[i]) for i in spans]
            if times:
                ops.append((kind, sum(t[0] for t in times), ok, sum(t[1] for t in times)))
            else:
                ops.append((kind, None, ok, None))
        out = {
            "ops": ops,
            "ready_at": self.ready_at,
            "setup_slices_s": self.setup_slices_s,
            "setup_scale": self.setup_scale,
            "pass_scale": NOMINAL_S * len(self.clock.took) / sum(self.clock.took),
            **extra,
        }
        if self.tracer:
            out["functions"] = self.tracer.by_function()
            out["repeats"] = self.tracer.repeats
            out["spans"] = self.tracer.spans()
        return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def suite_pass(p: Pass, seed: int, workdir: str) -> dict:
    from hyperkit import cli, suite

    reference = _reference("paper_suite.txt")
    index: dict[str, int] = {}

    def wrap(name, fn):
        def check(*args, **kwargs):
            with p.root(f"suite.check.{name}"):
                result, error, index[name] = p.timed(lambda: fn(*args, **kwargs))
            if error is not None:
                raise error
            return result

        return check

    for name, fn in list(suite.CHECKS.items()):
        suite.CHECKS[name] = wrap(name, fn)
    p.ready()
    buf = io.StringIO()
    cpu = p.cpu_start()
    with redirect_stdout(buf):
        code = cli.main(SUITE_ARGV)
    cpu = p.cpu_since(cpu)
    rss = _peak_rss_mb()
    verdicts = [
        (name, [index[name]] if name in index else [], ok)
        for name, ok in gates.suite_verdicts(reference, buf.getvalue(), code)
    ]
    return p.result(verdicts, cpu_s=cpu, rss_mb=rss)


def enumerate_pass(p: Pass, seed: int, workdir: str) -> dict:
    """One op: every size in ENUMERATE_SIZES, cold.  The op is correct when
    each size's class count and class digest match the reference."""
    from hyperkit import zoo

    expected = _reference("enumerate.json")
    p.ready()
    runs = []
    cpu = p.cpu_start()
    for n in ENUMERATE_SIZES:
        p.clock.calibrate()  # the small sizes take a millisecond or less
        runs.append(p.timed(zoo.enumerate_canonical_hypergroups, n))
    cpu = p.cpu_since(cpu)
    rss = _peak_rss_mb()
    ok = all(
        error is None
        and gates.enumerate_verdict([M.table for M in classes], expected[str(n)])
        for n, (classes, error, _) in zip(ENUMERATE_SIZES, runs)
    )
    out = p.result([("enumerate", [i for _, _, i in runs], ok)], cpu_s=cpu, rss_mb=rss)
    out["sizes"] = {str(n): p.clock.measure(*p.spans[i])[0] for n, (_, _, i) in zip(ENUMERATE_SIZES, runs)}
    return out


def desk_pass(p: Pass, seed: int, workdir: str) -> dict:
    import random

    import desk

    expected = _reference("desk.json")
    fx = desk.build_fixtures()
    rng = random.Random(seed)
    calls, seen, repeats = [], set(), 0
    for k, (kind, args) in enumerate(desk.plan(rng, DESK_BLOCKS)):
        thunk, summarize, inputs = desk.make_call(kind, args, fx, rng, f"{seed}.{k}", workdir)
        calls.append((kind, desk.entry_key(kind, args), thunk, summarize))
        repeats += inputs in seen
        seen.add(inputs)
    p.ready()
    verdicts = []
    cpu = p.cpu_start()
    for kind, key, thunk, summarize in calls:
        with p.root(f"desk.{kind}"):
            result, error, i = p.timed(thunk)
        ok = gates.desk_verdict(summarize, result, error, expected[key])
        verdicts.append((kind, [i], ok))
    cpu = p.cpu_since(cpu)
    rss = _peak_rss_mb()
    return p.result(verdicts, cpu_s=cpu, rss_mb=rss, input_repeats=repeats)


PASSES = {"paper-suite": suite_pass, "enumerate": enumerate_pass, "desk": desk_pass}


def main() -> int:
    workload, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    out = PASSES[workload](Pass(mode), seed, workdir)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
