import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperkit import formats
from hyperkit.axioms import Tag, analyze
from hyperkit.cli import main
from hyperkit.core import Morphism, find_isomorphism, from_masks, mask_of
from hyperkit.errors import FormatError, SearchCapExceeded
from hyperkit.hom import enumerate_morphisms
from hyperkit.matroid import GENERATORS_CAP, adjoin_point, fano_matroid, graphic_matroid, is_simple
from hyperkit.univ import free
from hyperkit.zoo import (
    conjugacy_hypergroup,
    cyclic_group,
    group_to_hypermagma,
    krasner,
    lattice_mosaic,
    make_gf9,
    symmetric_group,
    zmod_ring,
)

from util import (
    gf9_add,
    group_to_dict,
    hypermagma_to_dict,
    klein,
    matroid_to_dict,
    morphism_to_dict,
    ring_to_dict,
    small_battery,
    z2,
)


def write_obj(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2) + "\n")
    return str(p)


def krasner_file(tmp_path):
    return write_obj(tmp_path, "krasner.json", hypermagma_to_dict(krasner()))


def test_roundtrip_hypermagmas():
    for M in small_battery():
        d = hypermagma_to_dict(M)
        again = formats.parse_hypermagma(json.loads(json.dumps(d)))
        assert again == M
        assert json.dumps(hypermagma_to_dict(again), indent=2) == json.dumps(d, indent=2)


def test_roundtrip_group_ring_matroid():
    S3 = symmetric_group(3)
    d = group_to_dict(S3)
    assert formats.parse_group(d) == S3
    R = make_gf9()
    assert formats.parse_ring(ring_to_dict(R)) == R
    F = adjoin_point(fano_matroid())
    assert formats.parse_matroid(matroid_to_dict(F)) == F


def test_check_krasner(tmp_path, capsys):
    path = krasner_file(tmp_path)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "canonical hypergroup" in out


def test_check_json_output(tmp_path, capsys):
    path = krasner_file(tmp_path)
    assert main(["check", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "CanonicalHypergroup"
    assert payload["flags"]["total"]


def test_check_empty(tmp_path, capsys):
    path = write_obj(
        tmp_path, "empty.json", {"kind": "hypermagma", "carrier": [], "table": []}
    )
    assert main(["check", path]) == 0
    assert "initial" in capsys.readouterr().out


def test_check_matroid_via_mosaic(tmp_path, capsys):
    F = fano_matroid()
    path = write_obj(tmp_path, "fano.json", matroid_to_dict(F))
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "commutative mosaic" in out
    assert "associative=no" in out
    assert "witness associative" in out


# the two parallel edges ab make the cycle matroid not simple
NOT_SIMPLE = graphic_matroid([("a", "b"), ("a", "b"), ("b", "c")])


@pytest.mark.parametrize(
    "payload, words, n",
    [
        (group_to_dict(cyclic_group(3)), "abelian group", 3),
        (ring_to_dict(zmod_ring(4)), "abelian group", 4),
        (matroid_to_dict(NOT_SIMPLE), "commutative mosaic", 3),
    ],
    ids=["group", "ring", "matroid-not-simple"],
)
def test_check_reads_groups_rings_and_matroids_as_hypermagmas(tmp_path, capsys, payload, words, n):
    path = write_obj(tmp_path, "in.json", payload)
    assert main(["check", path]) == 0
    assert f"classification: {words}\nelements: {n}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["check"], ["construct", "from-matroid", "-o", "{out}"]])
def test_unpointed_matroid_with_a_point_labelled_0_gets_a_primed_point(tmp_path, capsys, argv):
    # the adjoined point is "0", primed past the ground's own "0"
    payload = {"kind": "matroid", "ground": ["0", "a"], "independent": [[], ["0"], ["a"], ["0", "a"]]}
    path = write_obj(tmp_path, "m.json", payload)
    out = str(tmp_path / "out.json")
    assert main([a.format(out=out) for a in argv] + [path]) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "construct":
        assert formats.load(out)[1].labels == ("0'", "0", "a")


@pytest.mark.parametrize(
    "n, key, message",
    [(15, "flats", "flats input capped at 14 elements"),
     (11, "independent", "conversion input capped at 10 elements")],
)
def test_matroid_over_a_fixed_size_limit_exits_2_with_one_line(tmp_path, capsys, n, key, message):
    ground = [f"p{i}" for i in range(n)]
    path = write_obj(tmp_path, f"m{n}.json", {"kind": "matroid", "ground": ground, key: [[]]})
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    missing = write_obj(tmp_path, "missing.json", {"kind": "hypermagma", "carrier": ["a"]})
    assert main(["check", missing]) == 2
    # invalid content is a parse failure too: a group table that is no group
    not_group = write_obj(
        tmp_path,
        "ng.json",
        {"kind": "group", "carrier": ["a", "b"], "table": [["a", "a"], ["a", "a"]]},
    )
    assert main(["check", not_group]) == 2
    false_identity = write_obj(
        tmp_path,
        "fi.json",
        {
            "kind": "hypermagma",
            "carrier": ["a", "b"],
            "identity": "a",
            "table": [[["a"], []], [[], []]],
        },
    )
    assert main(["check", false_identity]) == 2


# labels a JSON writer must escape: quotes, backslashes, control
# characters, and characters outside ASCII (one outside the BMP)
AWKWARD = ('say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "é☃\u2028𝄞")


def _writes_as_oracle(x) -> None:
    """The writer's text for a hypermagma or morphism is
    json.dumps(..., indent=2) of the dict oracle."""
    if isinstance(x, Morphism):
        dom, cod = formats.hypermagma_text(x.dom), formats.hypermagma_text(x.cod)
        assert formats.morphism_text(x, dom, cod) == json.dumps(morphism_to_dict(x), indent=2)
    else:
        assert formats.hypermagma_text(x) == json.dumps(hypermagma_to_dict(x), indent=2)


def test_writers_match_dumps_of_the_dict_oracle(monkeypatch):
    from hyperkit.core import from_masks, initial
    from hyperkit.matroid import Matroid, matroid_to_mosaic
    from hyperkit.monoidal import boxtimes, wedge_smash
    from hyperkit.suite import battery
    from hyperkit.univ import cofree

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import desk

    objects = [*battery(Tag.CMSC), initial()]
    for i, X in enumerate(desk.build_fixtures().values()):
        M = matroid_to_mosaic(X) if isinstance(X, Matroid) else X
        objects += [M, desk.fresh_hypermagma(M, random.Random(i), f"s{i}")[0]]
    # labels with a quote, a backslash, control characters, non-ASCII, and a newline
    A = cofree(AWKWARD[:2])
    B = from_masks(AWKWARD[2:], ((1, 2), (2, 0)))
    C = from_masks(("é", "b\nc"), ((1, 2), (2, 1)))
    objects += [A, B, C]
    maps = [Morphism(A, B, (0, 0)), Morphism(B, A, (1, 0)), Morphism(C, C, (0, 1))]
    maps.append(Morphism(initial(), C, ()))
    for M in battery(Tag.CMSC):
        for N in battery(Tag.CMSC):
            maps += [boxtimes(M, N), wedge_smash(M, N)]
    for x in objects + maps:
        _writes_as_oracle(x)
    assert (len(objects), len(maps)) == (38, 76)


def _old_parse_hypermagma(d: dict):
    """`formats.parse_hypermagma` converting every entry of the table, not
    each distinct one."""
    carrier = formats._carrier(d)
    table = formats._parse_square(d, "table", carrier)
    pos = {l: i for i, l in enumerate(carrier)}
    rows = []
    for row in table:
        out = []
        for entry in row:
            if not isinstance(entry, list):
                raise FormatError("table entries must be arrays of labels")
            out.append(mask_of(formats._index(pos, l, "table element") for l in entry))
        rows.append(out)
    identity = d.get("identity")
    if identity is not None:
        identity = formats._index(pos, identity, "identity")
    return from_masks(carrier, rows, identity)


def _load_outcome(path: str):
    """What `formats.load` gives for a file: its (kind, object), or the line
    of its `FormatError`."""
    try:
        return formats.load(path)
    except FormatError as exc:
        return str(exc)


def _same_load_as_entry_loop(path: str):
    """The file's load outcome, asserted equal under the entry-by-entry loader."""
    outcome = _load_outcome(path)
    with mock.patch.object(formats, "parse_hypermagma", _old_parse_hypermagma), \
            mock.patch.dict(formats.PARSERS, hypermagma=_old_parse_hypermagma):
        assert _load_outcome(path) == outcome
    return outcome


@pytest.mark.parametrize(
    "table, loads",
    [
        ([[["0"], ["1"]], [["1"], ["0"]]], True),
        ([[["0", "0"], ["1", "1"]], [["1"], ["0", "1"]]], True),
        ([[["0"], [["0"]]], [[["0"]], ["0"]]], False),
        ([[["0"], ["1", {"a": 1}]], [["1"], ["0"]]], False),
        ([[[1], [True]], [["1"], ["0"]]], False),
        ([[["0"], ["1"]], [["1"], ["0", "2"]]], False),
        ([[["0"], ["1"]], [["1"], ["0", []]]], False),
    ],
    ids=[
        "valid", "repeated-labels", "nested-list", "dict-element", "number", "unknown",
        "empty-list-element",
    ],
)
def test_loader_converts_distinct_entries_as_the_entry_loop(tmp_path, table, loads):
    payload = {"kind": "hypermagma", "carrier": ["0", "1"], "identity": "0", "table": table}
    outcome = _same_load_as_entry_loop(write_obj(tmp_path, "h.json", payload))
    assert isinstance(outcome, tuple) == loads


def test_loader_reads_battery_files_as_the_entry_loop(tmp_path):
    for i, M in enumerate(small_battery()):
        kind, loaded = _same_load_as_entry_loop(write_obj(tmp_path, f"{i}.json", hypermagma_to_dict(M)))
        assert (kind, loaded) == ("hypermagma", M)


def test_check_json_prints_the_bytes_of_json_dumps(tmp_path, capsys):
    from hyperkit.core import from_masks, initial

    files = [hypermagma_to_dict(M) for M in small_battery()]
    files += [
        hypermagma_to_dict(initial()),
        hypermagma_to_dict(from_masks(AWKWARD, [[1 << (i + j) % 4 for j in range(4)] for i in range(4)])),
        group_to_dict(symmetric_group(3)),
        matroid_to_dict(adjoin_point(fano_matroid())),
    ]
    payloads = []
    for i, d in enumerate(files):
        assert main(["check", write_obj(tmp_path, f"{i}.json", d), "--json"]) == 0
        out = capsys.readouterr().out
        payloads.append(json.loads(out))
        assert out == json.dumps(payloads[-1], indent=2) + "\n"
    # a null identity, empty lists and objects, witnesses and escaped labels are among them
    assert {p["identity"] is None for p in payloads} == {True, False}
    assert {bool(p["witnesses"]) for p in payloads} == {True, False}
    assert payloads[-3]["weak_identities"] == [AWKWARD[0]]


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("op", ["boxtimes", "wedge"])
@pytest.mark.parametrize("pair", ["K_S3c", "Z3_K"])
def test_construct_tensor_files_match_golden_bytes(tmp_path, capsys, pair, op):
    objects = {
        "K": krasner(),
        "S3c": conjugacy_hypergroup(symmetric_group(3)),
        "Z3": group_to_hypermagma(cyclic_group(3)),
    }
    inputs = [
        write_obj(tmp_path, f"{name}.json", hypermagma_to_dict(objects[name]))
        for name in pair.split("_")
    ]
    out = tmp_path / "out.json"
    assert main(["construct", "tensor", *inputs, "--op", op, "-o", str(out)]) == 0
    capsys.readouterr()
    for suffix in ("", ".quotient.morphism"):
        written = tmp_path / f"out{suffix}.json"
        assert written.read_bytes() == (GOLDEN_DIR / f"tensor_{pair}_{op}{suffix}.json").read_bytes()


def test_construct_free(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    assert main(["construct", "free", "--tag", "cmsc", "--gens", "1", "-o", out]) == 0
    kind, obj = formats.load(out)
    assert obj.labels == ("0", "1", "-1")


def test_construct_tensor_boxtimes(tmp_path):
    z2p = write_obj(tmp_path, "z2.json", hypermagma_to_dict(z2()))
    out = str(tmp_path / "t.json")
    assert main(["construct", "tensor", "--op", "boxtimes", z2p, z2p, "-o", out]) == 0
    _, T = formats.load(out)
    assert T.n == 2
    # the tensor square of Z2 is Z2 (self-inverse elements represent it)
    assert find_isomorphism(T, z2()) is not None
    quotient = tmp_path / "t.quotient.morphism.json"
    assert quotient.exists()


def test_construct_from_ring(tmp_path):
    f9 = write_obj(tmp_path, "f9.json", ring_to_dict(make_gf9()))
    out = str(tmp_path / "h.json")
    assert (
        main(
            [
                "construct",
                "from-ring",
                "--quotient-units",
                f9,
                "--subgroup",
                "1,2",
                "-o",
                out,
            ]
        )
        == 0
    )
    _, H = formats.load(out)
    assert H.n == 5


def test_construct_from_group_conj(tmp_path):
    s3 = write_obj(tmp_path, "s3.json", group_to_dict(symmetric_group(3)))
    out = str(tmp_path / "conj.json")
    assert main(["construct", "from-group", "--construction", "conj", s3, "-o", out]) == 0
    _, C = formats.load(out)
    assert C.n == 3


def test_construct_from_matroid(tmp_path):
    fano = write_obj(
        tmp_path, "fano.json", matroid_to_dict(fano_matroid())
    )
    out = str(tmp_path / "fm.json")
    assert main(["construct", "from-matroid", fano, "-o", out]) == 0
    _, H = formats.load(out)
    assert H.n == 8


def test_construct_from_matroid_simplifies_one_that_is_not_simple(tmp_path):
    assert not is_simple(adjoin_point(NOT_SIMPLE))
    path = write_obj(tmp_path, "m.json", matroid_to_dict(NOT_SIMPLE))
    out = str(tmp_path / "fm.json")
    assert main(["construct", "from-matroid", path, "-o", out]) == 0
    _, H = formats.load(out)
    rep = analyze(H)
    assert H.n == 3 and rep.classification == "CommutativeMosaic"


def test_construct_coproduct_and_injections(tmp_path):
    z2p = write_obj(tmp_path, "z2.json", hypermagma_to_dict(z2()))
    out = str(tmp_path / "c.json")
    assert main(["construct", "coproduct", z2p, z2p, "--tag", "msc", "-o", out]) == 0
    _, C = formats.load(out)
    rep = analyze(C)
    assert C.n == 3 and rep.classification == "CommutativeMosaic"
    assert C.labels[C.identity] == "e"
    for i in (0, 1):
        _, inj = formats.load(str(tmp_path / f"c.inj{i}.morphism.json"))
        assert inj.dom == z2() and inj.cod == C


def test_construct_product_and_morphisms(tmp_path):
    kp = krasner_file(tmp_path)
    out = str(tmp_path / "p.json")
    assert main(["construct", "product", kp, kp, "-o", out]) == 0
    _, P = formats.load(out)
    assert P.n == 4
    for i in (0, 1):
        mp = tmp_path / f"p.proj{i}.morphism.json"
        assert mp.exists()
        _, m = formats.load(str(mp))
        assert m.dom == P


def test_construct_unitize(tmp_path):
    kp = krasner_file(tmp_path)
    out = str(tmp_path / "u.json")
    assert main(["construct", "unitize", kp, "--at", "1", "-o", out]) == 0
    _, U = formats.load(out)
    assert U.n == 1


def test_construct_coequalizer_via_morphism_files(tmp_path):
    Z, K = z2(), krasner()
    t = Morphism(Z, K, (0, 1))
    zero = Morphism(Z, K, (0, 0))
    fp = write_obj(tmp_path, "f.json", morphism_to_dict(t))
    gp = write_obj(tmp_path, "g.json", morphism_to_dict(zero))
    out = str(tmp_path / "coeq.json")
    assert main(["construct", "coequalizer", "--tag", "uhmag", fp, gp, "-o", out]) == 0
    _, Q = formats.load(out)
    assert Q.n == 1
    out2 = str(tmp_path / "eq.json")
    assert main(["construct", "equalizer", fp, gp, "-o", out2]) == 0
    _, E = formats.load(out2)
    assert E.n == 1


def test_construct_builtin(tmp_path):
    out = str(tmp_path / "k.json")
    assert main(["construct", "builtin", "--name", "krasner", "-o", out]) == 0
    _, K = formats.load(out)
    assert K == krasner()


def test_module_error_exit_1(tmp_path):
    f9 = write_obj(tmp_path, "f9.json", ring_to_dict(make_gf9()))
    out = str(tmp_path / "h.json")
    code = main(
        ["construct", "from-ring", "--quotient-units", f9, "--subgroup", "1,i", "-o", out]
    )
    assert code == 1


def test_reused_parser_matches_fresh_runs(tmp_path, capsys, monkeypatch):
    """`main` parses with one parser built at import: a check, a malformed
    argv and a tensor in one process each match a fresh interpreter's run."""
    kp = krasner_file(tmp_path)
    calls = [
        ["check", kp, "--json"],
        ["construct", "tensor", "--op", "smash", kp, kp, "-o", "t.json"],
        ["construct", "tensor", "--op", "boxtimes", kp, kp, "-o", "t.json"],
    ]
    # the fresh runs import this same package from their own working directory
    src = str(Path(formats.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = {}
    for where in ("fresh", "reused"):
        # the output path is relative, so both runs print the same line
        out = tmp_path / where
        out.mkdir()
        monkeypatch.chdir(out)
        results = []
        for argv in calls:
            if where == "fresh":
                proc = subprocess.run(
                    [sys.executable, "-m", "hyperkit", *argv],
                    capture_output=True,
                    text=True,
                    timeout=120,
                    env=env,
                )
                results.append((proc.returncode, proc.stdout, proc.stderr))
            else:
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
        files = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        runs[where] = (results, files)
    assert [code for code, _, _ in runs["reused"][0]] == [0, 2, 0]
    assert "invalid choice: 'smash'" in runs["reused"][0][1][2]
    assert [name for name, _ in runs["reused"][1]] == ["t.json", "t.quotient.morphism.json"]
    assert runs["reused"] == runs["fresh"]


def test_construct_deterministic_bytes(tmp_path):
    kp = krasner_file(tmp_path)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["construct", "tensor", "--op", "wedge", kp, kp, "-o", out1])
    main(["construct", "tensor", "--op", "wedge", kp, kp, "-o", out2])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_paper_suite_only(capsys):
    assert main(["paper-suite", "--only", "krasner"]) == 0
    out = capsys.readouterr().out
    assert "PASS krasner" in out


class _ClosedPipe:
    """A standard output whose reader went away: the first write fails, or
    with `buffered` the writes are kept and the flush fails."""

    def __init__(self, buffered):
        self.buffered = buffered

    def write(self, text):
        if self.buffered:
            return len(text)
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True], ids=["at-write", "at-flush"])
@pytest.mark.parametrize("command", ["check", "paper-suite"])
def test_closed_stdout_exits_1_without_traceback(
    tmp_path, capsys, monkeypatch, command, buffered
):
    if command == "check":
        argv = ["check", krasner_file(tmp_path)]
    else:
        argv = ["paper-suite", "--only", "krasner"]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(buffered))
    assert main(argv) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-size", "-3"], "error: --max-size: -3 is not positive\n"),
        (["--max-size", "0"], "error: --max-size: 0 is not positive\n"),
        (["--only", "nosuchcheck"], "error: --only: 'nosuchcheck' names no check\n"),
    ],
    ids=["negative-max-size", "zero-max-size", "unknown-only"],
)
def test_paper_suite_that_verifies_nothing_exits_2_with_one_line(capsys, argv, message):
    assert main(["paper-suite", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_paper_suite_matches_recorded_output(capsys):
    """The whole suite at refuter size 4 prints, byte for byte, the output
    recorded for the benchmark."""
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "paper_suite.txt"
    assert main(["paper-suite", "--max-size", "4"]) == 0
    assert capsys.readouterr().out == ref.read_text()


def test_paper_suite_default_sizes_match_golden_output(capsys):
    """At its default sizes (refuters up to size 5) the suite prints, byte
    for byte, the output recorded in tests/golden."""
    golden = Path(__file__).resolve().parent / "golden" / "paper_suite_default.txt"
    assert main(["paper-suite"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_paper_suite_under_optimize_matches_reference():
    """`python -O` strips asserts; the suite's invariants must not rest on them."""
    root = Path(__file__).resolve().parent.parent
    reference = (root / "perfbench" / "reference" / "paper_suite.txt").read_text()
    env = dict(os.environ)
    env.pop("HYPERKIT_SEARCH_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hyperkit", "paper-suite", "--max-size", "4"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reference


GOLDEN_WEDGE = """{
  "kind": "hypermagma",
  "carrier": [
    "e",
    "1|1"
  ],
  "identity": "e",
  "table": [
    [
      [
        "e"
      ],
      [
        "1|1"
      ]
    ],
    [
      [
        "1|1"
      ],
      [
        "e"
      ]
    ]
  ]
}
"""


def test_golden_wedge_serialization():
    from hyperkit.monoidal import wedge_smash

    q = wedge_smash(z2(), z2())
    assert json.dumps(hypermagma_to_dict(q.cod), indent=2) + "\n" == GOLDEN_WEDGE


def test_golden_gf9_quotient_row():
    from hyperkit.zoo import gf9_quotient

    H = gf9_quotient().additive
    d = hypermagma_to_dict(H)
    assert d["carrier"] == ["0", "i", "1", "1+i", "1+2i"]
    assert d["table"][2][1] == ["1+i", "1+2i"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperkit", "paper-suite", "--only", "can-z2-k"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS can-z2-k" in proc.stdout


def test_rank_oracle_that_is_no_matroid_exits_2_with_one_line(tmp_path, capsys):
    # r(ab) = r(bc) = 1 but r(ac) = 2: the closures ab and bc meet in b
    rank = [[[], 0], [["a"], 1], [["b"], 1], [["c"], 1], [["a", "b"], 1],
            [["b", "c"], 1], [["a", "c"], 2], [["a", "b", "c"], 2]]
    payload = {"kind": "matroid", "ground": ["a", "b", "c"], "rank": rank}
    path = write_obj(tmp_path, "rank.json", payload)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "intersection of flats" in captured.err


def test_malformed_search_cap_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", "abc")
    assert main(["paper-suite", "--only", "can-z2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "HYPERKIT_SEARCH_CAP" in err and "'abc'" in err


# the most nodes any one search of `paper-suite --only coproduct --max-size
# 4` spends: the lane search of Hom(G, K) over the order-4 census, 8
# candidate maps on the 65 tables of sigma = id and 4 on the 32 of
# sigma = (1 0), past the census search's 626
COPRODUCT_4_NODES = 648


def test_lane_search_stops_at_the_search_cap(monkeypatch, capsys):
    argv = ["paper-suite", "--only", "coproduct", "--max-size", "4"]
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", str(COPRODUCT_4_NODES))
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "PASS coproduct-refuter: all 1243 candidates of size <= 4 refuted\n1/1 checks passed\n"
    )
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", str(COPRODUCT_4_NODES - 1))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"SearchCapExceeded: lane_morphisms(n=4, |N|=2, cmsc): node cap exceeded "
        f"after {COPRODUCT_4_NODES - 1} nodes\n"
    )
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", "-1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "HYPERKIT_SEARCH_CAP" in err and "'-1'" in err


_K = hypermagma_to_dict(krasner())


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {
                "kind": "hypermagma",
                "carrier": ["0", "1"],
                "table": [[[["0"]], ["1"]], [["1"], ["0"]]],
            },
            "table element ['0'] is not a carrier label",
        ),
        (
            {"kind": "hypermagma", "carrier": "01", "table": [[["0"], ["1"]], [["1"], ["0"]]]},
            "carrier must be an array of string labels",
        ),
        (
            {"kind": "hypermagma", "carrier": ["0"], "identity": ["0"], "table": [[["0"]]]},
            "identity ['0'] is not a carrier label",
        ),
        (
            {"kind": "matroid", "ground": ["a", "b"], "flats": [[], ["a"], ["c"], ["a", "b"]]},
            "flats element 'c' is not a carrier label",
        ),
        ({"kind": ["hypermagma"]}, "unknown kind ['hypermagma']"),
        ({"kind": {"name": "hypermagma"}}, "unknown kind {'name': 'hypermagma'}"),
        (
            {"kind": "lattice", "carrier": ["0", "a", "b"], "meet": [["0", "0", "0"], ["0", "a", "0"], ["0", "0", "b"]]},
            "no top element",
        ),
        (
            {"kind": "lattice", "carrier": ["0", "1"], "meet": [["0", "0"], ["0", "1"]], "top": "0"},
            "top '0' is not the top of the meet table",
        ),
        (
            {"kind": "matroid", "ground": ["a"], "rank": [[[], 0], [["a"], True]]},
            "rank entries must be [subset, rank] pairs",
        ),
        ([_K], "object file must be a JSON object"),
        (
            {"kind": "hypermagma", "carrier": ["0", "1"], "table": [[["0"], ["1"]]]},
            "table must be a 2x2 array",
        ),
        (
            {"kind": "hypermagma", "carrier": ["0", "1"], "table": [[["0"], ["1"]], [["1"]]]},
            "table must be a 2x2 array",
        ),
        (
            {"kind": "hypermagma", "carrier": ["0", "1"], "table": [[["0"], "1"], [["1"], ["0"]]]},
            "table entries must be arrays of labels",
        ),
        ({"kind": "matroid", "ground": ["a"], "flats": "a"}, "flats must be an array"),
        (
            {"kind": "matroid", "ground": ["a"], "flats": [[], "a"]},
            "flats entries must be arrays of labels",
        ),
        (
            {"kind": "matroid", "ground": ["a"], "rank": [[[], 0]]},
            "rank oracle must list every subset",
        ),
        ({"kind": "matroid", "ground": ["a"]}, "matroid needs flats, independent, or rank"),
        (
            {"kind": "morphism", "dom": _K, "cod": _K, "map": [["0", "0"], ["1", "1"]]},
            "map must be an object from domain to codomain labels",
        ),
        (
            {"kind": "morphism", "dom": _K, "cod": _K, "map": {"0": "0"}},
            "map must cover the whole domain carrier",
        ),
        (
            {"kind": "morphism", "dom": _K, "cod": _K, "map": {"0": "0", "1": "x"}},
            "map image not in the codomain carrier",
        ),
        (
            {"kind": "morphism", "dom": _K, "cod": _K, "map": {"0": "0", "1": "1"}},
            "cannot analyze kind 'morphism'",
        ),
        (
            {"kind": "morphism", "dom": None, "cod": _K, "map": {"0": "0", "1": "1"}},
            "dom must be a hypermagma object",
        ),
    ],
    ids=[
        "list-table-entry",
        "string-carrier",
        "list-identity",
        "unknown-flat-label",
        "list-kind",
        "dict-kind",
        "lattice-without-top",
        "lattice-wrong-top",
        "matroid-bool-rank",
        "json-array",
        "too-few-rows",
        "short-row",
        "entry-not-array",
        "flats-not-array",
        "flat-not-array",
        "rank-misses-a-subset",
        "matroid-without-sets",
        "map-not-object",
        "map-misses-a-label",
        "map-image-not-a-label",
        "check-a-morphism",
        "morphism-dom-not-object",
    ],
)
def test_malformed_labels_exit_2_with_one_line(tmp_path, capsys, payload, message):
    path = write_obj(tmp_path, "bad.json", payload)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_equalizer_of_hypermagma_files_exits_2_with_one_line(tmp_path, capsys):
    path = krasner_file(tmp_path)
    out = str(tmp_path / "out.json")
    assert main(["construct", "equalizer", path, path, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err == f"error: {path} is not a morphism file\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys, where):
    path = krasner_file(tmp_path)
    out = str(tmp_path / "missing" / "out.json") if where == "missing-directory" else str(tmp_path)
    assert main(["construct", "product", path, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            # a*a = b and a*b = b*b = e: (a*a)*b = e while a*(a*b) = a
            {"kind": "group", "carrier": ["e", "a", "b"],
             "table": [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "e"]]},
            "group table: associative fails at (a, a, b)",
        ),
        (
            {"kind": "group", "carrier": ["a", "b"], "table": [["a", "a"], ["b", "b"]]},
            "group table: no identity element",
        ),
        (
            # 2*2 = 2 makes 2 an idempotent: 2*(1+1) = 2, but 2*1 + 2*1 = 1
            {"kind": "ring", "carrier": ["0", "1", "2"],
             "add": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]],
             "mul": [["0", "0", "0"], ["0", "1", "2"], ["0", "2", "2"]]},
            "multiplication does not distribute over addition at (2, 1, 1)",
        ),
    ],
    ids=["group-not-associative", "group-without-identity", "ring-not-distributive"],
)
def test_table_axiom_failure_exits_2_naming_law_and_witness(tmp_path, capsys, payload, message):
    path = write_obj(tmp_path, "bad.json", payload)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"kind": "hypermagma", "carrier": ["\xff"], "table": [[[]]]}', "can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_unreadable_bytes_exit_2_with_one_line(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["construct", "unitize", "{K}", "--at", "zz"], "--at"),
        (["construct", "from-group", "--construction", "dcoset", "--subgroup", "zz", "{S3}"], "--subgroup"),
        (["construct", "from-group", "--construction", "orbit", "--action", "zz", "{S3}"], "--action"),
        (["construct", "from-ring", "--quotient-units", "{F9}", "--subgroup", "zz"], "--subgroup"),
    ],
    ids=["unitize-at", "dcoset-subgroup", "orbit-action", "from-ring-subgroup"],
)
def test_unknown_label_in_option_exits_2_with_one_line(tmp_path, capsys, argv, option):
    files = {
        "{K}": krasner_file(tmp_path),
        "{S3}": write_obj(tmp_path, "s3.json", group_to_dict(symmetric_group(3))),
        "{F9}": write_obj(tmp_path, "f9.json", ring_to_dict(make_gf9())),
    }
    out = str(tmp_path / "out.json")
    assert main([files.get(a, a) for a in argv] + ["-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err == f"error: {option}: 'zz' is not a carrier label\n"


def test_construct_from_lattice(tmp_path):
    chain = {"kind": "lattice", "carrier": ["0", "m", "1"], "top": "1",
             "meet": [["0", "0", "0"], ["0", "m", "m"], ["0", "m", "1"]]}
    path = write_obj(tmp_path, "chain.json", chain)
    out = str(tmp_path / "out.json")
    assert main(["construct", "from-lattice", path, "-o", out]) == 0
    M = lattice_mosaic(["0", "m", "1"], [[0, 0, 0], [0, 1, 1], [0, 1, 2]])
    assert formats.load(out)[1] == M
    assert main(["check", path]) == 0


def test_construct_from_group_by_labels(tmp_path):
    from hyperkit.zoo import double_coset_hypergroup, orbit_hypergroup

    S3 = symmetric_group(3)
    s3 = write_obj(tmp_path, "s3.json", group_to_dict(S3))
    out = str(tmp_path / "out.json")
    argv = ["construct", "from-group", "--construction", "dcoset", "--subgroup", "e,(0 1)"]
    assert main(argv + [s3, "-o", out]) == 0
    assert formats.load(out)[1] == double_coset_hypergroup(S3, (1 << S3.index("e")) | (1 << S3.index("(0 1)")))
    Z3 = cyclic_group(3)
    z3 = write_obj(tmp_path, "z3.json", group_to_dict(Z3))
    action = ";".join(",".join(Z3.labels[i] for i in p) for p in (range(3), Z3.inverse))
    argv = ["construct", "from-group", "--construction", "orbit", "--action", action]
    assert main(argv + [z3, "-o", out]) == 0
    assert formats.load(out)[1] == orbit_hypergroup(Z3, [tuple(range(3)), Z3.inverse])


@pytest.mark.parametrize("verb", ["free", "cofree"])
def test_negative_gens_exits_2_with_one_line(tmp_path, capsys, verb):
    out = str(tmp_path / "out.json")
    assert main(["construct", verb, "--gens", "-1", "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err == "error: --gens: -1 is negative\n"
    assert main(["construct", verb, "--gens", "0", "-o", out]) == 0
    assert formats.load(out)[1].n == 0


def test_free_for_an_unsupported_tag_exits_1_with_one_line(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert main(["construct", "free", "--tag", "can", "-o", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err == "UnsupportedCategory: no free objects built for tag can\n"


@pytest.mark.parametrize("verb", ["free", "cofree"])
@pytest.mark.parametrize(
    "args, message",
    [
        (["--gens", "5", "--labels", "a,b"], "hyperkit construct {verb}: --gens and --labels exclude each other"),
        (["--labels", "a,b,a"], "--labels: 'a' is repeated"),
    ],
    ids=["gens-and-labels", "repeated-label"],
)
def test_generator_options_that_conflict_exit_2_with_one_line(tmp_path, capsys, verb, args, message):
    out = str(tmp_path / "out.json")
    assert main(["construct", verb, *args, "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err == "error: " + message.format(verb=verb) + "\n"
    assert main(["construct", verb, "--labels", "a,b", "-o", out]) == 0
    assert formats.load(out)[1].labels == ("a", "b")


@pytest.mark.parametrize("verb", ["free", "cofree"])
def test_generators_above_the_cap_exit_2_before_any_table_is_built(tmp_path, capsys, monkeypatch, verb):
    # a regression fails here instead of building the table
    monkeypatch.setattr(f"hyperkit.cli.{verb}", lambda *args: pytest.fail(f"{verb} was called"))
    out = str(tmp_path / "out.json")
    over = GENERATORS_CAP + 1
    for args, message in (
        (["--gens", str(over)], f"--gens: {over} is above the limit of {GENERATORS_CAP}"),
        (["--gens", "99999"], f"--gens: 99999 is above the limit of {GENERATORS_CAP}"),
        (
            ["--labels", ",".join(f"g{i}" for i in range(over))],
            f"--labels: {over} labels, above the limit of {GENERATORS_CAP}",
        ),
    ):
        assert main(["construct", verb, *args, "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not os.path.exists(out)
        assert captured.err == f"error: {message}\n"
    monkeypatch.undo()
    assert main(["construct", verb, "--gens", str(GENERATORS_CAP), "-o", out]) == 0
    assert formats.load(out)[1].n == GENERATORS_CAP


@pytest.mark.parametrize(
    "argv, left, right, labels",
    [
        (
            ["construct", "product"],
            ("a", "a|b"),
            ("b|c", "c"),
            ("a|b|c", "a|c", "a|b|b|c", "a|b|c'"),
        ),
        (
            ["construct", "tensor", "--op", "boxdot"],
            ("a", "a|b"),
            ("b|c", "c"),
            ("a|b|c", "a|c", "a|b|b|c", "a|b|c'"),
        ),
        (
            ["construct", "hom"],
            ("x", "y"),
            ("a", "a,a"),
            ("(a,a)", "(a,a,a)", "(a,a,a)'", "(a,a,a,a)"),
        ),
    ],
    ids=["product", "tensor-boxdot", "hom"],
)
def test_construct_primes_composite_labels_that_coincide(tmp_path, argv, left, right, labels):
    from hyperkit.univ import cofree

    # the hom verb's domain is free (empty products), so every map is a hom
    first = free(Tag.HMAG, left) if argv[1] == "hom" else cofree(left)
    a = write_obj(tmp_path, "a.json", hypermagma_to_dict(first))
    b = write_obj(tmp_path, "b.json", hypermagma_to_dict(cofree(right)))
    out = str(tmp_path / "out.json")
    assert main([*argv, a, b, "-o", out]) == 0
    _, T = formats.load(out)
    assert T.labels == labels


# Each construct verb as the README documents it: the input files of one
# valid call, the options that call needs, and every option the verb takes.
# product and coproduct read one or more files, every other verb an exact
# number; from-ring reads its one file through --quotient-units.
VERB_SIGNATURES = {
    "product": (["K"], [], []),
    "coproduct": (["K"], [], ["--tag"]),
    "equalizer": (["f", "g"], [], ["--tag"]),
    "coequalizer": (["f", "g"], [], ["--tag"]),
    "unitize": (["K"], [], ["--at"]),
    "tensor": (["K", "K"], [], ["--op"]),
    "hom": (["K", "K"], [], ["--tag"]),
    "free": ([], [], ["--tag", "--gens", "--labels"]),
    "cofree": ([], [], ["--gens", "--labels"]),
    "from-group": (["S3"], [], ["--construction", "--subgroup", "--action"]),
    "from-ring": ([], ["--quotient-units", "F9"], ["--quotient-units", "--subgroup"]),
    "from-matroid": (["Fano"], [], ["--simplify"]),
    "from-lattice": (["chain"], [], []),
    "builtin": ([], ["--name", "krasner"], ["--name"]),
}

# every construct option, with a value it accepts
OPTION_VALUES = {
    "--tag": ["msc"],
    "--op": ["wedge"],
    "--construction": ["conj"],
    "--subgroup": ["units"],
    "--action": ["e"],
    "--at": ["1"],
    "--gens": ["1"],
    "--labels": ["a"],
    "--name": ["z2"],
    "--simplify": [],
    "--quotient-units": ["F9"],
}


def _signature_files(tmp_path):
    Z, K = z2(), krasner()
    chain = {"kind": "lattice", "carrier": ["0", "1"], "top": "1", "meet": [["0", "0"], ["0", "1"]]}
    return {
        "K": krasner_file(tmp_path),
        "f": write_obj(tmp_path, "f.json", morphism_to_dict(Morphism(Z, K, (0, 1)))),
        "g": write_obj(tmp_path, "g.json", morphism_to_dict(Morphism(Z, K, (0, 0)))),
        "S3": write_obj(tmp_path, "s3.json", group_to_dict(symmetric_group(3))),
        "F9": write_obj(tmp_path, "f9.json", ring_to_dict(make_gf9())),
        "Fano": write_obj(tmp_path, "fano.json", matroid_to_dict(fano_matroid())),
        "chain": write_obj(tmp_path, "chain.json", chain),
    }


def _documented_call_paths(tmp_path, capsys, verb):
    """Write the signature files, check that the documented call of `verb`
    exits 0, and return the paths by placeholder."""
    paths = _signature_files(tmp_path)
    files, needed, _ = VERB_SIGNATURES[verb]
    assert main(_construct_argv(verb, paths, needed + files, str(tmp_path / "ok.json"))) == 0
    capsys.readouterr()
    return paths


def _construct_argv(verb, paths, args, out):
    return ["construct", verb, *[paths.get(a, a) for a in args], "-o", out]


def _assert_one_line_usage_error(tmp_path, capsys, verb, paths, args):
    out = str(tmp_path / "out.json")
    argv = _construct_argv(verb, paths, args, out)
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    assert captured.err.startswith("error: hyperkit") and captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize(
    "verb", [v for v, (files, needed, _) in VERB_SIGNATURES.items() if files or v == "from-ring"]
)
def test_construct_with_a_file_too_few_exits_2_with_one_line(tmp_path, capsys, verb):
    paths = _documented_call_paths(tmp_path, capsys, verb)
    files, needed, _ = VERB_SIGNATURES[verb]
    # from-ring's one input file is the value of --quotient-units
    args = files if verb == "from-ring" else needed + files[:-1]
    _assert_one_line_usage_error(tmp_path, capsys, verb, paths, args)


@pytest.mark.parametrize("verb", [v for v in VERB_SIGNATURES if v not in ("product", "coproduct")])
def test_construct_with_a_file_too_many_exits_2_with_one_line(tmp_path, capsys, verb):
    paths = _documented_call_paths(tmp_path, capsys, verb)
    files, needed, _ = VERB_SIGNATURES[verb]
    _assert_one_line_usage_error(tmp_path, capsys, verb, paths, needed + files + ["K"])


@pytest.mark.parametrize("verb", list(VERB_SIGNATURES))
def test_construct_with_an_option_the_verb_does_not_take_exits_2_with_one_line(
    tmp_path, capsys, verb
):
    paths = _documented_call_paths(tmp_path, capsys, verb)
    files, needed, takes = VERB_SIGNATURES[verb]
    foreign = [o for o in OPTION_VALUES if o not in takes]
    assert len(foreign) == len(OPTION_VALUES) - len(takes)
    for option in foreign:
        args = [option, *OPTION_VALUES[option], *needed, *files]
        _assert_one_line_usage_error(tmp_path, capsys, verb, paths, args)


@pytest.mark.parametrize(
    "verb, args, tail, surplus",
    [("unitize", ["K", "K", "--at", "1"], [], "K"), ("product", ["K"], ["extra"], "extra")],
    ids=["fixed-count", "after-output"],
)
def test_surplus_argument_error_names_the_verb(tmp_path, capsys, verb, args, tail, surplus):
    paths = _signature_files(tmp_path)
    out = str(tmp_path / "out.json")
    assert main(_construct_argv(verb, paths, args, out) + tail) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    surplus = paths.get(surplus, surplus)
    assert captured.err == f"error: hyperkit construct {verb}: unrecognized arguments: {surplus}\n"


@pytest.mark.parametrize(
    "construction, args, message",
    [
        ("conj", ["--subgroup", "e"], "does not take --subgroup"),
        ("conj", ["--action", "e"], "does not take --action"),
        ("dcoset", [], "requires --subgroup"),
        ("dcoset", ["--subgroup", "e", "--action", "e"], "does not take --action"),
        ("orbit", [], "requires --action"),
        ("orbit", ["--action", "e", "--subgroup", "e"], "does not take --subgroup"),
    ],
)
def test_from_group_construction_reads_only_its_option(tmp_path, capsys, construction, args, message):
    paths = _signature_files(tmp_path)
    argv = ["--construction", construction, *args, "S3"]
    out = str(tmp_path / "out.json")
    assert main(_construct_argv("from-group", paths, argv, out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    prefix = f"error: hyperkit construct from-group: --construction {construction}"
    assert captured.err == f"{prefix} {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["check", "{K}"], ["construct", "product", "{K}", "-o", "{out}"], ["construct", "hom", "{K}", "{K}", "-o", "{out}"]],
    ids=["check", "construct-product", "construct-hom"],
)
def test_malformed_search_cap_exits_2_for_every_command(tmp_path, capsys, monkeypatch, argv):
    files = {"{K}": krasner_file(tmp_path), "{out}": str(tmp_path / "out.json")}
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", "abc")
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(files["{out}"])
    assert captured.err.count("\n") == 1 and "HYPERKIT_SEARCH_CAP" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"], ["construct", "tensor", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: hyperkit")


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this same package."""
    src = str(Path(formats.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("HYPERKIT_SEARCH_CAP", None)
    env.update(extra)
    return env


class _CountingEnviron(dict):
    """A copy of the environment that counts the reads of HYPERKIT_SEARCH_CAP."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "HYPERKIT_SEARCH_CAP"
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == "HYPERKIT_SEARCH_CAP"
        return super().__getitem__(key)


def test_one_command_reads_the_search_cap_once(monkeypatch, capsys):
    # hom-health makes memo hits with nonzero node counts, which read the
    # cap on every hit when no command holds it
    environ = _CountingEnviron(os.environ, HYPERKIT_SEARCH_CAP="10000000")
    monkeypatch.setattr(os, "environ", environ)
    assert main(["paper-suite", "--only", "hom-health"]) == 0
    assert capsys.readouterr().out.startswith("PASS hom-health")
    assert environ.reads == 1
    # outside a command, each search reads it again
    enumerate_morphisms(klein(), gf9_add(), Tag.CMSC)
    assert environ.reads == 2


def test_cap_lowered_between_commands_fails_as_in_a_cold_process(tmp_path, capsys, monkeypatch):
    """The second command's cap is below the nodes its memoised hom-set
    spent in the first: it fails with the line a fresh interpreter prints,
    and a library call after it reads the environment again."""
    monkeypatch.chdir(tmp_path)
    for name in ("klein", "gf9-quotient"):
        assert main(["construct", "builtin", "--name", name, "-o", f"{name}.json"]) == 0
    argv = ["construct", "hom", "klein.json", "gf9-quotient.json", "--tag", "cmsc", "-o", "h.json"]
    monkeypatch.delenv("HYPERKIT_SEARCH_CAP", raising=False)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", "3")
    assert main(argv) == 1
    warm = capsys.readouterr()
    cold = subprocess.run(
        [sys.executable, "-m", "hyperkit", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=_fresh_env(HYPERKIT_SEARCH_CAP="3"),
    )
    assert cold.returncode == 1
    assert (warm.out, warm.err) == (cold.stdout, cold.stderr) == (
        "",
        "SearchCapExceeded: enumerate_morphisms(|M|=4, |N|=5, cmsc): node cap exceeded after 3 nodes\n",
    )
    monkeypatch.delenv("HYPERKIT_SEARCH_CAP")
    assert len(enumerate_morphisms(klein(), gf9_add(), Tag.CMSC)) > 0


def test_library_call_after_a_command_sees_a_changed_cap(tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERKIT_SEARCH_CAP", raising=False)
    kp = krasner_file(tmp_path)
    assert main(["construct", "hom", kp, kp, "-o", str(tmp_path / "h.json")]) == 0
    monkeypatch.setenv("HYPERKIT_SEARCH_CAP", "3")
    with pytest.raises(SearchCapExceeded, match=r"after 3 nodes$"):
        enumerate_morphisms(klein(), gf9_add(), Tag.CMSC)


def test_check_does_not_import_the_suite(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hyperkit", "check", krasner_file(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=_fresh_env(),
    )
    assert proc.returncode == 0 and proc.stdout.startswith("classification:")
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "hyperkit.cli" in imported and "hyperkit.suite" not in imported


def test_cli_import_loads_no_array_module():
    """The byte lanes are packed from one bytes object, so no import of the
    package loads the `array` extension module."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hyperkit.cli; print('array' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_fresh_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# A valid object file of every kind, and of every matroid notation, for the
# mutation test below.
VALID_FILES = {
    "hypermagma": hypermagma_to_dict(gf9_add()),
    "group": group_to_dict(symmetric_group(3)),
    "ring": ring_to_dict(make_gf9()),
    "matroid-flats": matroid_to_dict(adjoin_point(fano_matroid())),
    "matroid-independent": {"kind": "matroid", "ground": ["a", "b"], "independent": [[], ["a"], ["b"]]},
    "matroid-rank": {
        "kind": "matroid",
        "ground": ["a", "b"],
        "rank": [[[], 0], [["a"], 1], [["b"], 1], [["a", "b"], 1]],
    },
    "lattice": {
        "kind": "lattice",
        "carrier": ["0", "a", "1"],
        "top": "1",
        "meet": [["0", "0", "0"], ["0", "a", "a"], ["0", "a", "1"]],
    },
    "morphism": morphism_to_dict(Morphism(z2(), krasner(), (0, 1))),
}

# JSON values a mutation writes: labels of the files above among them, so
# that some mutants stay well-formed and fail only an axiom
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, width=16)
    | st.sampled_from(["0", "1", "a", "e", "", "i", "b\nc"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "carrier", "table", "identity", "x"]), inner, max_size=2),
    max_leaves=5,
)


def _slots(node, out):
    """Every (container, key) of a JSON tree, outside in."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(VALID_FILES)), st.data())
def test_mutated_object_files_fail_only_as_format_errors(kind, data):
    d = copy.deepcopy(VALID_FILES[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        node, key = data.draw(st.sampled_from(_slots(d, [])))
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "replace":
            node[key] = data.draw(JSON_VALUES)
        elif op == "delete":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, data.draw(JSON_VALUES))
        else:
            fields = ["identity", "top", "pointed", "flats", "rank", "x"]
            node[data.draw(st.sampled_from(fields))] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obj.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(d, indent=2) + "\n")
        loaded = not isinstance(_same_load_as_entry_loop(path), str)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    # a file that loads is checked, except a morphism, which is no object
    if loaded and kind != "morphism":
        assert (code, err.getvalue()) == (0, ""), d
    else:
        assert code == 2, d
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, d
