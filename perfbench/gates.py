"""Correctness gates.  Each returns per-op verdicts, so a mismatch becomes a
failed op that raises the error rate instead of crashing the run or passing.
"""
from __future__ import annotations

import json

import canon


def suite_verdicts(reference: str, actual: str, exit_code: int) -> list[tuple[str, bool]]:
    """One verdict per check line of the reference paper-suite output, by
    byte equality of the line, plus a `summary` verdict covering the count
    line, the absence of extra lines and the exit code."""
    ref_lines = reference.splitlines(keepends=True)
    got_lines = actual.splitlines(keepends=True)
    verdicts = []
    for i, line in enumerate(ref_lines[:-1]):
        name = line.split(" ", 1)[1].split(":", 1)[0]
        verdicts.append((name, i < len(got_lines) and got_lines[i] == line))
    summary_ok = (
        exit_code == 0
        and len(got_lines) == len(ref_lines)
        and got_lines[-1:] == ref_lines[-1:]
    )
    verdicts.append(("summary", summary_ok))
    return verdicts


def enumerate_verdict(tables, expected: dict) -> bool:
    """A size's class list is correct when its count and the digest of its
    brute-force canonical forms both match the reference."""
    return len(tables) == expected["count"] and canon.class_digest(tables) == expected["digest"]


def desk_verdict(summarize, result, error, expected) -> bool:
    """A desk call is correct when it raised nothing and the invariant
    summary of its result equals the reference; a result too malformed to
    summarize is a failure too."""
    if error is not None:
        return False
    try:
        return json.loads(json.dumps(summarize(result))) == expected
    except Exception:
        return False
