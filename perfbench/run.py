"""hyperkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hyperkit checkout.  Workloads (see BENCHMARK.json):

- paper-suite: `hyperkit paper-suite --max-size 4`; an op is one check.
- enumerate: enumerate_canonical_hypergroups(n) for n = 1..5, cold; an op is
  all five sizes.
- desk: a seeded stream of single library and CLI calls on fresh inputs
  (desk.py); an op is one call.

Each workload is a closed loop with one client: passes run one after the
other, each in a fresh interpreter with PYTHONPATH set to the checkout's
src/ and HYPERKIT_SEARCH_CAP removed, until --seconds have passed.  Every
output is checked against perfbench/reference/, and a mismatch or crash is a
failed op.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
plain and traced passes on the same inputs; the plain ones give the per-call
and per-check times and the tracing overhead, the traced ones the spans,
which are also written to .perfbench/trace-WORKLOAD-SEED.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import desk  # noqa: E402
from child import DESK_BLOCKS, ENUMERATE_SIZES  # noqa: E402

WORKLOADS = ("paper-suite", "enumerate", "desk")
MIN_SETUPS = 7  # set-up samples per run; extra set-up-only passes make up the count
RUN_LIMIT_S = 150.0  # no pass is started that would likely end after this
DEADLINE_S = 170.0  # a pass still running this long after the start is killed


def _suite_check_names() -> list[str]:
    with open(os.path.join(HERE, "reference", "paper_suite.txt")) as fh:
        lines = fh.read().splitlines()
    return [line.split(" ", 1)[1].split(":", 1)[0] for line in lines[:-1]]


CHECK_NAMES = _suite_check_names()
# Ops one pass attempts, charged as failed when a pass crashes outright; the
# suite's are its checks and its summary line.
OPS_PER_PASS = {
    "paper-suite": len(CHECK_NAMES) + 1,
    "enumerate": 1,
    "desk": DESK_BLOCKS * len(desk.KINDS),
}

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Traced function -> the statistics reported for it.
FUNCTION_STATS = {
    "zoo.enumerate_canonical_hypergroups": ("self_s",),
    "zoo.make_gf9": ("calls", "self_s"),
    "zoo.gf9_quotient": ("calls", "self_s"),
    "zoo.krasner": ("calls",),
    "zoo.cyclic_group": ("calls",),
    "zoo.group_to_hypermagma": ("calls",),
    "zoo.refute_coproduct_candidate": ("calls", "self_s"),
    "zoo.refute_equalizer_candidate": ("calls", "self_s"),
    "core.from_masks": ("calls", "self_s"),
    "core.find_isomorphism": ("self_s",),
    "axioms.analyze": ("calls", "repeat_share", "self_s"),
    "hom.enumerate_morphisms": ("calls", "repeat_share", "self_s"),
    "monoidal.enumerate_bimorphisms": ("self_s",),
    "monoidal.boxtimes": ("self_s",),
    "monoidal.boxdot": ("self_s",),
    "monoidal.wedge_smash": ("self_s",),
    "monoidal.tensor": ("self_s",),
    "monoidal.hom_object": ("self_s",),
    "univ.unitize": ("self_s",),
    "univ.coequalizer": ("self_s",),
    "matroid.matroid_to_mosaic": ("self_s",),
    "formats.load": ("self_s",),
    "formats.save": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "repeat_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in output order, with its unit."""
    units = {f"suite.check.{name}.s": "s" for name in CHECK_NAMES}
    units["suite.cpu_s"] = "s"
    for n in ENUMERATE_SIZES:
        units[f"enumerate.n{n}.s"] = "s"
    for fn, stats in FUNCTION_STATS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = STAT_UNITS[stat]
    for kind in desk.KINDS:
        units[f"desk.{kind}.p50_ms"] = "ms"
    units["desk.repeat_share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    return units


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def src_digest(root: str) -> str:
    """Identifies the measured code: the checkout need not be a git repo."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "hyperkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.workload = workload
        self.root = root
        self.workdir = os.path.join(root, ".perfbench", f"{workload}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env.pop("HYPERKIT_SEARCH_CAP", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)
        self.setups: list[float] = []

    def run_pass(self, pass_seed: int, mode: str, timeout: float) -> dict | None:
        """One child interpreter.  None when it crashed or timed out."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
               str(pass_seed), mode, self.workdir]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=self.root, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"pass {pass_seed} ({mode}) timed out", file=sys.stderr)
            return None
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pass {pass_seed} ({mode}) exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        setup = result["ready_at"] - spawned - result["setup_slices_s"]
        self.setups.append(setup * result["setup_scale"])
        return result


def summarize_ops(passes: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        attempted += len(p["ops"])
        failed += sum(1 for op in p["ops"] if not op[2])
    return attempted, failed


def op_times(p: dict, kind: str | None = None) -> list[float]:
    """Scaled op times of one pass, optionally of one kind of op."""
    return [op[1] for op in p["ops"] if op[1] is not None and kind in (None, op[0])]


def pass_wall(p: dict) -> float:
    return sum(op_times(p))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = [t for p in passes for t in op_times(p)]
    walls = [pass_wall(p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Check and call times come from the plain passes, spans from the traced
    ones; self times are scaled by their pass's mean calibration."""
    m = {name: 0.0 for name in per_layer_units()}
    if workload == "paper-suite":
        for name in CHECK_NAMES:
            m[f"suite.check.{name}.s"] = statistics.median(
                sum(op_times(p, name)) for p in plain
            )
        m["suite.cpu_s"] = statistics.median(p["cpu_s"] * p["pass_scale"] for p in plain)
    if workload == "enumerate":
        for n in ENUMERATE_SIZES:
            m[f"enumerate.n{n}.s"] = statistics.median(p["sizes"][str(n)] for p in plain)
    if workload == "desk":
        for kind in desk.KINDS:
            times = [t for p in plain for t in op_times(p, kind)]
            if times:
                m[f"desk.{kind}.p50_ms"] = statistics.median(times) * 1e3
        m["desk.repeat_share"] = sum(p["input_repeats"] for p in plain) / sum(
            len(p["ops"]) for p in plain
        )
    for fn, stats in FUNCTION_STATS.items():
        for stat in stats:
            if stat == "repeat_share":
                calls = sum(p["repeats"].get(fn, [0, 0])[0] for p in traced)
                repeated = sum(p["repeats"].get(fn, [0, 0])[1] for p in traced)
                m[f"{fn}.repeat_share"] = repeated / calls if calls else 0.0
            elif stat == "calls":
                m[f"{fn}.calls"] = statistics.median(
                    p["functions"].get(fn, [0])[0] for p in traced
                )
            else:
                m[f"{fn}.self_s"] = statistics.median(
                    p["functions"].get(fn, [0, 0.0, 0.0])[2] * p["pass_scale"] for p in traced
                )
    m["trace.overhead_share"] = (
        statistics.median(pass_wall(p) for p in traced)
        / statistics.median(pass_wall(p) for p in plain)
        - 1.0
    )
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperkit", "__init__.py")):
        print("error: src/hyperkit not found; run from the root of a hyperkit checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    os.makedirs(runner.workdir, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    modes = ("plain", "trace") if args.trace else ("plain",)
    try:
        start = time.perf_counter()
        k = 0
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if k and (elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S):
                break
            # In a traced run the plain and traced pass of a pair share a seed,
            # so the overhead is measured on identical inputs.
            pass_seed = args.seed * 1000 + k
            for mode in modes:
                t0 = time.perf_counter()
                result = runner.run_pass(pass_seed, mode, max(1.0, DEADLINE_S - (t0 - start)))
                longest = max(longest, time.perf_counter() - t0)
                if result is None:
                    attempted += OPS_PER_PASS[args.workload]
                    failed += OPS_PER_PASS[args.workload]
                else:
                    (traced if mode == "trace" else plain).append(result)
            k += 1
        if not args.trace:
            while len(runner.setups) < MIN_SETUPS:
                left = DEADLINE_S - (time.perf_counter() - start)
                if runner.run_pass(args.seed * 1000 + k, "setup", max(1.0, left)) is None:
                    return 1
                k += 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    a, f = summarize_ops(plain + traced)
    attempted += a
    failed += f
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_sha256": src_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain) + len(traced),
    }
    if args.trace:
        values = per_layer(args.workload, plain, traced)
        units = per_layer_units()
        spans: dict[tuple[str, str], list] = {}
        for p in traced:
            for s in p["spans"]:
                acc = spans.setdefault((s["function"], s["caller"]), [0, 0.0, 0.0])
                acc[0] += s["calls"]
                acc[1] += s["total_s"]
                acc[2] += s["self_s"]
        trace_file = os.path.join(root, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
        with open(trace_file, "w") as fh:
            json.dump({
                "env": env,
                "traced_passes": len(traced),
                "spans": [
                    {"function": fn, "caller": caller, "calls": c, "total_s": t, "self_s": s}
                    for (fn, caller), (c, t, s) in sorted(spans.items())
                ],
                "metrics": values,
            }, fh, indent=1)
    else:
        values = end_to_end(plain, runner.setups)
        units = END_TO_END
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
