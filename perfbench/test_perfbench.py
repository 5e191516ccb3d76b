"""Tests of the benchmark's own gates: a corrupted reference, digest or
invariant must turn into failed ops, never into a pass.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import canon  # noqa: E402
import desk  # noqa: E402
import gates  # noqa: E402
import run  # noqa: E402


def _reference(name: str) -> str:
    with open(os.path.join(HERE, "reference", name)) as fh:
        return fh.read()


def _failed(verdicts) -> int:
    return sum(1 for _, ok in verdicts if not ok)


def test_suite_output_equal_to_reference_passes():
    ref = _reference("paper_suite.txt")
    verdicts = gates.suite_verdicts(ref, ref, 0)
    assert len(verdicts) == len(run.CHECK_NAMES) + 1
    assert _failed(verdicts) == 0


def test_corrupted_suite_reference_fails_one_check():
    ref = _reference("paper_suite.txt")
    i = ref.index("252 triples")
    corrupted = ref[:i] + "253" + ref[i + 3:]
    verdicts = dict(gates.suite_verdicts(corrupted, ref, 0))
    assert not verdicts["closed-counts"]
    assert _failed(verdicts.items()) == 1


def test_suite_truncated_output_or_exit_code_fails():
    ref = _reference("paper_suite.txt")
    truncated = "".join(ref.splitlines(keepends=True)[:-3])
    assert _failed(gates.suite_verdicts(ref, truncated, 0)) == 3
    assert dict(gates.suite_verdicts(ref, ref, 1))["summary"] is False


def test_class_digest_ignores_order_and_labelling():
    tables = list(desk.ORDER4.values())
    rng = random.Random(0)
    relabelled = []
    for t in reversed(tables):
        new_of = [0] + rng.sample(range(1, 4), 3)
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                rows[new_of[i]][new_of[j]] = canon.image_mask(t[i][j], new_of)
        assert canon.is_isomorphism(t, rows, new_of)
        relabelled.append(rows)
    assert canon.class_digest(relabelled) == canon.class_digest(tables)
    assert canon.class_digest(tables[:3]) != canon.class_digest(tables)


def test_corrupted_enumeration_digest_or_count_fails():
    tables = list(desk.ORDER4.values())
    good = {"count": 4, "digest": canon.class_digest(tables)}
    assert gates.enumerate_verdict(tables, good)
    assert not gates.enumerate_verdict(tables, {**good, "digest": "0" * 64})
    assert not gates.enumerate_verdict(tables, {**good, "count": 5})
    assert not gates.enumerate_verdict(tables[:3] + tables[:1], good)


def test_desk_call_matches_reference_and_corrupted_invariant_fails(tmp_path):
    expected = json.loads(_reference("desk.json"))
    fx = desk.build_fixtures()
    rng = random.Random(7)
    for kind, args in (("boxtimes", ("V", "H")), ("cli_check", ("H",)), ("find_isomorphism", ("C4c",))):
        thunk, summarize, _ = desk.make_call(kind, args, fx, rng, "t", str(tmp_path))
        result = thunk()
        ref = expected[desk.entry_key(kind, args)]
        assert gates.desk_verdict(summarize, result, None, ref)
        corrupted = json.loads(json.dumps(ref).replace("true", "false").replace("5", "6"))
        assert corrupted != ref
        assert not gates.desk_verdict(summarize, result, None, corrupted)


def test_desk_crash_or_malformed_result_fails():
    assert not gates.desk_verdict(len, [1, 2], ValueError("boom"), 2)
    assert not gates.desk_verdict(len, None, None, 2)


def test_failed_ops_are_counted():
    passes = [{"ops": [("a", 0.1, True, 0.1), ("b", 0.2, False, 0.2), ("summary", None, False, None)]}]
    assert run.summarize_ops(passes) == (3, 2)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
