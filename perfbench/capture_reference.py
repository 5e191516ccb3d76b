"""Record the reference outputs the benchmark's gates compare against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Run from the root of a checkout of the commit that defined the benchmark;
the files it writes under perfbench/reference/ are that commit's answers.
Desk summaries are taken on the unpermuted fixtures.  Regenerating them at a
later commit would turn the gates into a comparison of the program with
itself, so a later change that alters an answer must explain why instead.
"""
from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import canon  # noqa: E402
import desk  # noqa: E402
from child import ENUMERATE_SIZES, SUITE_ARGV  # noqa: E402


def main() -> int:
    from hyperkit import cli, zoo

    ref = os.path.join(HERE, "reference")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(SUITE_ARGV)
    if code != 0:
        print("paper-suite failed; not recording it", file=sys.stderr)
        return 1
    with open(os.path.join(ref, "paper_suite.txt"), "w") as fh:
        fh.write(buf.getvalue())

    classes = {}
    for n in ENUMERATE_SIZES:
        tables = [M.table for M in zoo.enumerate_canonical_hypergroups(n)]
        classes[str(n)] = {"count": len(tables), "digest": canon.class_digest(tables)}
    with open(os.path.join(ref, "enumerate.json"), "w") as fh:
        json.dump(classes, fh, indent=1)

    workdir = os.path.join(".perfbench", "capture")
    os.makedirs(workdir, exist_ok=True)
    try:
        fx = desk.build_fixtures()
        summaries = {}
        for kind, entries in desk.MENU.items():
            for args in entries:
                thunk, summarize, _ = desk.make_call(kind, args, fx, None, "ref", workdir)
                summaries[desk.entry_key(kind, args)] = summarize(thunk())
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(ref, "desk.json"), "w") as fh:
        json.dump(summaries, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
