"""Command line surface: exit codes, determinism, catalog reproduction."""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hodge_degen import cli
from hodge_degen.hodge import HodgeNumbers, model_phs
from hodge_degen.lmhs import LmhsDatum
from hodge_degen.classify import ht_construct

from console import console, pkg_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ht_file(tmp_path):
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    p = tmp_path / "ht.json"
    p.write_text(json.dumps(L.to_json(), sort_keys=True))
    return str(p)


# ------------------------------------------------------------ validate

def test_validate_good_file(capsys, ht_file):
    code, out, _ = run(capsys, "validate", ht_file)
    assert code == 0
    assert json.loads(out)["ok"]


def test_validate_sign_flip_fails(capsys, ht_file, tmp_path):
    obj = json.loads(open(ht_file).read())
    obj["Q"] = [[str(-_frac(e)) for e in row] for row in _rows(obj["Q"])]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert not rep["polarized_primitives"]


def _rows(Q):
    return Q


def _frac(s):
    from fractions import Fraction
    return Fraction(s)


def test_validate_malformed_scalar(capsys, tmp_path):
    obj = {"dim": 1, "weight": 0, "Q": [["1//2"]], "F": {"0": []}, "N": [["0"]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2


@pytest.mark.parametrize("key", ["dim", "weight", "Q", "F", "N"])
def test_validate_missing_key(capsys, ht_file, tmp_path, key):
    obj = json.loads(open(ht_file).read())
    del obj[key]
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out) == {"error": "missing key %r" % key}


@pytest.mark.parametrize("edit, witness", [
    (lambda o: o.update(F=[["1"]]), "'F' must be an object"),
    (lambda o: o.update(F=3), "'F' must be an object"),
    (lambda o: o["Q"][0].__setitem__(0, "1/0"), "zero denominator in scalar '1/0'"),
    (lambda o: o.update(weight="3"), "'weight' must be a non-negative integer, got '3'"),
    (lambda o: o.update(W=[]), "'W' must be an object"),
    (lambda o: o.update(dim=5), "Q is 4x4, but dim is 5"),
    (lambda o: o["F"].__setitem__("1", [["1", "0", "0"]]),
     "F^1: basis width 3 != ambient dim 4"),
    (lambda o: o["W"].__setitem__("2", [["1", "0"]]),
     "W_2: basis width 2 != ambient dim 4"),
    (lambda o: o["F"]["2"][0].__setitem__(0, "x"), "F^2: bad scalar string: 'x'"),
    (lambda o: o.update(weight=1000), "weight 1000 is more than 2*len(F) + dim = 10"),
], ids=["F-list", "F-number", "zero-denominator", "weight-string", "W-list", "dim",
        "F-width", "W-width", "F-scalar", "weight-past-bound"])
def test_validate_malformed_values(capsys, ht_file, tmp_path, edit, witness):
    obj = json.loads(open(ht_file).read())
    edit(obj)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2
    assert witness in json.loads(out)["error"]


@pytest.mark.parametrize("bad, error", [
    ("x", "bad scalar string: 'x'"),
    (1, "scalar must be a string such as \"1/2+3*i\", got 1"),
    (None, "scalar must be a string such as \"1/2+3*i\", got None"),
    (["1"], "scalar must be a string such as \"1/2+3*i\", got ['1']"),
    ({"1": "0"}, "scalar must be a string such as \"1/2+3*i\", got {'1': '0'}"),
    ("\u0661", "bad scalar string: '\u0661'"),
])
def test_validate_bad_scalar_exits_2_with_one_line(capsys, ht_file, tmp_path, bad, error):
    # the strings of a datum are parsed once each; a bad entry, string or
    # not, still names its step and exits 2 with one line
    obj = json.loads(open(ht_file).read())
    obj["F"]["2"][0][0] = obj["F"]["2"][0][2] = bad
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, err) == (2, "")
    assert out.count("\n") == 1 and json.loads(out) == {"error": "F^2: " + error}


@pytest.mark.parametrize("with_n", [False, True], ids=["pure", "lmhs"])
def test_validate_reads_an_empty_f0_as_the_whole_space(capsys, tmp_path, with_n):
    hn = HodgeNumbers(2, (1, 2, 1))
    obj = (ht_construct(2, hn) if with_n else model_phs(hn)).to_json()
    p = tmp_path / "d.json"
    runs = []
    for f0 in (obj["F"]["0"], []):
        obj["F"]["0"] = f0
        p.write_text(json.dumps(obj))
        runs.append(run(capsys, "validate", str(p)))
    assert runs[0][0] == 0 and runs[1] == runs[0]


# The weight-1 degeneration of ht_construct(1, (1, 1)): F^1 = <e_0>,
# N e_0 = e_1, W_0 = W_1 = <e_1>, W_2 = V.
WEIGHT_1 = {"dim": 2, "weight": 1, "Q": [["0", "1"], ["-1", "0"]],
            "F": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "0"]]},
            "N": [["0", "0"], ["1", "0"]],
            "W": {"0": [["0", "1"]], "1": [["0", "1"]], "2": [["1", "0"], ["0", "1"]]}}


@pytest.mark.parametrize("part, keys, error", [
    ("F", ("7",), "F step '7' is not one of 0..1"),
    ("F", ("-1",), "F step '-1' is not one of 0..1"),
    ("F", ("x",), "F step 'x' is not an integer"),
    ("F", ("01",), "F step '01' is not written as '1'"),
    ("F", (" 1",), "F step ' 1' is not written as '1'"),
    ("F", ("1_0",), "F step '1_0' is not written as '10'"),
    ("W", ("1", "01"), "W level '01' is not written as '1'"),
    ("W", ("01", "1"), "W level '01' is not written as '1'"),
    ("W", (" 1",), "W level ' 1' is not written as '1'"),
    ("W", ("+1",), "W level '+1' is not written as '1'"),
], ids=["F-past-n", "F-negative", "F-word", "F-leading-zero", "F-space", "F-underscore",
        "W-1-01", "W-01-1", "W-space", "W-plus"])
def test_validate_rejects_a_key_that_is_not_a_plain_index(capsys, tmp_path, part, keys, error):
    # a key the parser would have read loosely, or not at all: the same file
    # exits 2 with one line naming the key, whatever the order of its keys
    for with_n in (True, False) if part == "F" else (True,):
        obj = json.loads(json.dumps(WEIGHT_1))
        if not with_n:
            del obj["N"], obj["W"]
        rows = obj[part].pop("1") if part == "W" else [["1", "0"]]
        for key in keys:
            # "01" names W_1 with rows other than W_1's, so the last key would win
            obj[part][key] = [["1", "0"]] if key == "01" and part == "W" else rows
        p = tmp_path / "key.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "validate", str(p))
        assert (code, err) == (2, "")
        assert out.count("\n") == 1 and json.loads(out) == {"error": error}


def test_validate_accepts_every_plain_index(capsys, tmp_path):
    # the keys of WEIGHT_1 are plain, and F may leave steps out
    for obj in (WEIGHT_1, dict(WEIGHT_1, F={"1": [["1", "0"]]})):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "validate", str(p))
        assert (code, json.loads(out)["ok"]) == (0, True)


def test_validate_non_object_file(capsys, tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2
    assert "must be a JSON object" in json.loads(out)["error"]


# One malformation of the Hodge-Tate datum of test_validate_good_file per
# example: a key of the wrong type, a ragged matrix, a bad scalar or a wrong
# dimension.  Each must give exit 2 and one line {"error": ...}.
_HT_DATUM = ht_construct(2, HodgeNumbers(2, (1, 2, 1))).to_json()
_NOT_COUNT = st.one_of(st.text(max_size=3), st.floats(), st.booleans(), st.none(),
                       st.lists(st.integers(0, 3), max_size=2),
                       st.integers(max_value=-1))
_NOT_OBJECT = st.one_of(st.lists(st.integers(), max_size=2), st.integers(),
                        st.text(max_size=3), st.booleans(), st.none())
_NOT_MATRIX = st.one_of(st.integers(), st.text(max_size=3), st.none(),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                        st.lists(st.sampled_from(["0", "1"]), min_size=1, max_size=3))
_BAD_SCALAR = st.one_of(
    st.sampled_from(["1/0", "0/0", "1/0*i", "2/0+i", "x", "", " ", "1//2", "1.5",
                     "2i", "i*2", "--1", "1/2/3", "1e3", "nan"]),
    st.integers(), st.floats(), st.none(), st.booleans(),
    st.lists(st.just("1"), max_size=2))


def _matrices(obj):
    """(getter path, matrix) for every matrix of the datum."""
    out = [(("Q",), obj["Q"]), (("N",), obj["N"])]
    out += [(("F", k), rows) for k, rows in sorted(obj["F"].items()) if rows]
    out += [(("W", k), rows) for k, rows in sorted(obj["W"].items()) if rows]
    return out


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@st.composite
def malformed_datum(draw):
    obj = json.loads(json.dumps(_HT_DATUM))
    kind = draw(st.sampled_from(["count", "object", "matrix", "ragged", "scalar",
                                 "dim", "width", "shape"]))
    paths = [path for path, _ in _matrices(obj)]
    if kind == "count":
        obj[draw(st.sampled_from(["dim", "weight"]))] = draw(_NOT_COUNT)
    elif kind == "object":
        obj[draw(st.sampled_from(["F", "W"]))] = draw(_NOT_OBJECT)
    elif kind == "matrix":
        _set(obj, draw(st.sampled_from(paths)), draw(_NOT_MATRIX))
    elif kind in ("ragged", "scalar"):
        path = draw(st.sampled_from(paths))
        rows = dict(_matrices(obj))[path]
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "ragged" and len(rows) > 1:
            rows[i].pop()
        elif kind == "ragged":
            rows.append(rows[0][:-1])
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_BAD_SCALAR)
    elif kind == "dim":
        obj["dim"] = draw(st.integers(0, 9).filter(lambda d: d != 4))
    elif kind == "width":
        # every row of one matrix one entry short or one too long
        rows = dict(_matrices(obj))[draw(st.sampled_from(paths))]
        longer = draw(st.booleans())
        for row in rows:
            if longer:
                row.append("0")
            else:
                row.pop()
    else:
        # Q or N with a row too few or too many
        rows = obj[draw(st.sampled_from(["Q", "N"]))]
        if draw(st.booleans()):
            rows.append(["0"] * 4)
        else:
            rows.pop()
    return obj


@settings(max_examples=120, deadline=None)
@given(malformed_datum())
def test_validate_fuzz_malformed_datum_exits_2(tmp_path_factory, obj):
    p = tmp_path_factory.mktemp("fuzz") / "datum.json"
    p.write_text(json.dumps(obj))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["validate", str(p)])
    lines = out.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert list(report) == ["error"] and report["error"]


def test_validate_wrong_given_weight_filtration(capsys, ht_file, tmp_path):
    obj = json.loads(open(ht_file).read())
    obj["W"] = {str(int(k) + 1): rows for k, rows in obj["W"].items()}
    p = tmp_path / "shifted.json"
    p.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 1
    rep = json.loads(out)
    assert rep["weight_filtration"] is False and rep["ok"] is False
    # W_0 .. W_4 about the center 2, moved to W_1 .. W_5: W_4 falls short
    assert rep["weight_filtration_witness"] == "W_4 is not the whole space"


def test_validate_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2


# ------------------------------------------------------------ classify

def test_classify_minimal_weight3(capsys):
    code, out, _ = run(capsys, "classify", "3", "1,1,1,1")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["types"]) == 2
    assert {t["kind"] for t in rep["types"]} == {"I"}


def test_classify_minimal_trivial(capsys):
    code, out, _ = run(capsys, "classify", "1", "1,1")
    assert code == 0
    assert len(json.loads(out)["types"]) == 1


def test_classify_ht_gate_fail(capsys):
    code, out, _ = run(capsys, "classify", "2", "2,1,2", "--mode", "hodge-tate")
    assert code == 1
    assert json.loads(out)["gate"] is False


def test_classify_ht_with_witness(capsys, tmp_path):
    out_path = str(tmp_path / "w.json")
    code, out, _ = run(capsys, "classify", "2", "1,2,1",
                       "--mode", "hodge-tate", "--out", out_path)
    assert code == 0
    L = LmhsDatum.from_json(json.loads(open(out_path).read()))
    assert L.hodge.dim == 4


def test_classify_ht_empty_structure(capsys):
    # the gate passes with every multiplicity zero, but there is nothing to build
    code, out, err = run(capsys, "classify", "2", "0,0,0", "--mode", "hodge-tate")
    assert code == 1 and err == ""
    rep = json.loads(out)
    assert rep["gate"] is True and rep["error"] == "empty structure"


@pytest.mark.parametrize("mode", ["minimal", "hodge-tate"])
def test_classify_unwritable_out(capsys, tmp_path, mode):
    path = str(tmp_path / "missing" / "w")
    code, out, err = run(capsys, "classify", "2", "1,2,1", "--mode", mode, "--out", path)
    assert code == 2 and err == ""
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert "No such file or directory" in error and path in error


def test_classify_bad_h(capsys):
    code, _, _ = run(capsys, "classify", "2", "1,x,1")
    assert code == 2


@pytest.mark.parametrize("argv, error", [
    (["-2", "1"], "the weight must be non-negative, got -2"),
    (["2", "1,,1"], "h must be comma-separated non-negative integers, got '1,,1'"),
])
def test_classify_bad_weight_or_h_says_why(capsys, argv, error):
    code, out, err = run(capsys, "classify", *argv)
    assert code == 2 and err == "" and out.count("\n") == 1
    assert json.loads(out) == {"error": error}


def test_classify_witness_files_validate(capsys, tmp_path):
    # every symmetric h of weight n <= 4 with entries <= 2: `classify --out`
    # writes the minimal witnesses, `--mode hodge-tate --out` the Hodge-Tate
    # one or, where h fails the gate, exits 1 and writes none; every file
    # written then validates
    hs = []
    for n in range(1, 5):
        half = (n + 1) // 2
        for combo in itertools.product(range(3), repeat=half + (n + 1) % 2):
            h = list(combo) + list(reversed(combo[:half]))
            if sum(h):
                hs.append((str(n), ",".join(map(str, h))))
    assert len(hs) == 44
    for n, h in hs:
        tag = str(tmp_path / ("n%s-h%s" % (n, h.replace(",", "-"))))
        assert cli.main(["classify", n, h, "--out", tag + ".min"]) == 0
        code = cli.main(["classify", n, h, "--mode", "hodge-tate", "--out", tag + ".ht.json"])
        assert code == 0 or (code == 1 and not os.path.exists(tag + ".ht.json")), (n, h)
    capsys.readouterr()
    files = sorted(tmp_path.glob("*.witness*.json")) + sorted(tmp_path.glob("*.ht.json"))
    assert len(files) == 61
    for path in files:
        code, out, _ = run(capsys, "validate", str(path))
        assert (code, json.loads(out)["ok"]) == (0, True), path.name


def test_classify_closed_orbit(capsys):
    code, out, _ = run(capsys, "classify", "2", "1,1,1",
                       "--mode", "closed-orbit")
    assert code == 0
    rep = json.loads(out)
    assert rep["period_check"]["consistent_with_closed_orbit"]
    assert rep["adjoint_check"]["ok"]


@pytest.mark.parametrize("edit, error", [
    (lambda o: [o], "a datum must be a JSON object, got [{"),
    (lambda o: {k: v for k, v in o.items() if k != "N"}, "missing key 'N'"),
    (lambda o: {k: v for k, v in o.items() if k not in ("N", "W")}, "missing key 'N'"),
], ids=["list", "no-N", "no-N-no-W"])
def test_classify_closed_orbit_bad_input(capsys, ht_file, tmp_path, edit, error):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(edit(json.loads(open(ht_file).read()))))
    code, out, _ = run(capsys, "classify", "2", "1,2,1", "--mode", "closed-orbit",
                       "--input", str(p))
    assert code == 2
    assert json.loads(out)["error"].startswith(error)


def _weight3_ht_file(tmp_path, negate_Q=False):
    obj = ht_construct(3, HodgeNumbers(3, (1, 1, 1, 1))).to_json()
    if negate_Q:
        obj["Q"] = [[str(-_frac(e)) for e in row] for row in _rows(obj["Q"])]
    p = tmp_path / "ht3.json"
    p.write_text(json.dumps(obj, sort_keys=True))
    return str(p)


def test_classify_closed_orbit_input_is_validated(capsys, tmp_path):
    # Q negated: validate reports polarized_primitives false, so the closed
    # orbit check must not run on it
    path = _weight3_ht_file(tmp_path, negate_Q=True)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1 and not json.loads(out)["polarized_primitives"]
    code, out, _ = run(capsys, "classify", "3", "1,1,1,1", "--mode", "closed-orbit",
                       "--input", path)
    assert code == 2
    assert out.count("\n") == 1
    assert "clause polarized_primitives fails" in json.loads(out)["error"]
    # the same datum with Q as built passes
    code, out, _ = run(capsys, "classify", "3", "1,1,1,1", "--mode", "closed-orbit",
                       "--input", _weight3_ht_file(tmp_path))
    assert code == 0
    rep = json.loads(out)
    assert (rep["weight"], rep["h"]) == (3, [1, 1, 1, 1])
    assert rep["period_check"]["consistent_with_closed_orbit"]


def test_classify_closed_orbit_input_must_match_n_h(capsys, tmp_path):
    path = _weight3_ht_file(tmp_path)
    code, out, _ = run(capsys, "classify", "2", "1,2,1", "--mode", "closed-orbit",
                       "--input", path)
    assert code == 2
    assert json.loads(out)["error"] == (
        "the datum has weight 3 and h 1,1,1,1; the command line gives "
        "weight 2 and h 1,2,1")


@pytest.mark.parametrize("argv, option", [
    (["--mode", "closed-orbit", "--input", ""], "input"),
    (["--mode", "minimal", "--input", ""], "input"),
    (["--mode", "minimal", "--out", ""], "out"),
    (["--mode", "hodge-tate", "--out", ""], "out"),
    (["--mode", "closed-orbit", "--out", ""], "out"),
])
def test_classify_empty_path_exits_2_naming_the_option(capsys, tmp_path, monkeypatch, argv, option):
    # an empty path is not an absent option: no witness is built from it,
    # and none is written (to the working directory or to stdout)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "classify", "2", "1,2,1", *argv)
    assert (code, err) == (2, "") and out.count("\n") == 1
    assert json.loads(out) == {"error": "--%s needs a file path, got an empty one" % option}
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ diagram

def test_diagram_ht_ascii(capsys):
    code, out, _ = run(capsys, "diagram", "ht-n2-111")
    assert code == 0
    assert out.count("*") == 3  # three diagonal nodes
    assert "@" not in out


def test_diagram_svg_rings(capsys):
    code, out, _ = run(capsys, "diagram", "F4-row1", "--format", "svg")
    assert code == 0
    assert out.count('fill="none"') == 3  # circled nodes at dims 2


def test_diagram_from_file_and_determinism(capsys, ht_file):
    code1, out1, _ = run(capsys, "diagram", ht_file, "--format", "svg")
    code2, out2, _ = run(capsys, "diagram", ht_file, "--format", "svg")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count('fill="none"') == 1  # h^{1,1} = 2


def test_diagram_empty_spec_axes_only(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"nodes": []}))
    code, out, _ = run(capsys, "diagram", str(p))
    assert code == 0
    assert set(out) <= set(". \n")


@pytest.mark.parametrize("spec, named", [
    ({"nodes": [[1.5, 0, 1], [0, 1, True]]}, "node [1.5, 0, 1]"),
    ({"nodes": [[0, 1, True]]}, "node [0, 1, True]"),
    ({"nodes": [[0, 0, "1"]]}, "node [0, 0, '1']"),
    ({"nodes": [[0, 0]]}, "node [0, 0]"),
    ({"nodes": [[0, 0, 1]], "p_range": [0, "1"]}, "p_range [0, '1']"),
    ({"nodes": [[0, 0, 1]], "q_range": [0]}, "q_range [0]"),
    ({"nodes": [[0, 0, 1]], "arrows": [[0.5, 1]]}, "arrow [0.5, 1]"),
    ({"nodes": [[0, 0, 1], [1, 1, 1]], "p_range": [3, 4]}, "p_range [3, 4]"),
    ({"nodes": [[0, 0, 1]], "q_range": [1, 0]}, "q_range [1, 0]"),
    ({"nodes": [[1, 1, 1]], "arrows": [[1, 1]], "q_range": [1, 1]}, "q_range [1, 1]"),
    ("nodes and more", "a datum must be a JSON object, got 'nodes and more'"),
], ids=["float-and-bool", "bool", "str", "short-node", "str-range", "short-range",
        "float-arrow", "range-misses-nodes", "lo-above-hi", "range-misses-arrow-end",
        "json-string"])
def test_diagram_spec_takes_integers_only(capsys, tmp_path, spec, named):
    # int() used to coerce each of these, or the range dropped the nodes
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "diagram", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("bad input: ") and err.count("\n") == 1 and named in err


def test_diagram_unwritable_out(capsys, tmp_path):
    path = str(tmp_path / "missing" / "d.txt")
    code, out, err = run(capsys, "diagram", "ht-n2-111", "--out", path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("cannot write output:") and path in err


def test_diagram_empty_out_exits_2_naming_the_option(capsys, tmp_path, monkeypatch):
    # an empty --out is not stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "diagram", "ht-n2-111", "--out", "")
    assert (code, out) == (2, "")
    assert err == "bad input: --out needs a file path, got an empty one\n"
    assert list(tmp_path.iterdir()) == []


def test_diagram_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "diagram", "ht-n2-111", "--format", "json")
    assert code == 0
    assert json.loads(out)["nodes"] == [[0, 0, 1], [1, 1, 1], [2, 2, 1]]
    # the spec written with --out, read back as input, renders the same
    path = str(tmp_path / "spec.json")
    argv = ("diagram", "F4-row1", "--part", "adjoint")
    assert run(capsys, *argv, "--format", "json", "--out", path) == (0, "", "")
    want = run(capsys, *argv)
    assert want[0] == 0 and "@" in want[1]
    assert run(capsys, "diagram", path) == want


def test_diagram_unknown_input(capsys):
    code, _, err = run(capsys, "diagram", "definitely-not-a-thing")
    assert code == 2
    assert "catalog names" in err


def test_diagram_entry_without_diagram_block(capsys):
    code, out, err = run(capsys, "diagram", "G2-split-closed")
    assert code == 2 and out == ""
    assert "G2-split-closed" in err and "no diagram block" in err
    assert "dim_R_orbit" in err and "closed" in err
    assert "catalog names" not in err


def test_diagram_missing_part(capsys):
    code, out, err = run(capsys, "diagram", "ht-n2-111", "--part", "adjoint")
    assert code == 2 and out == ""
    assert "ht-n2-111" in err and "no diagram block 'adjoint'" in err
    assert err.rstrip().endswith("its blocks: V")


# ------------------------------------------------------------ catalog

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    names = out.split()
    assert "G2-row1" in names and "F4-row4" in names


def test_catalog_groups_match(capsys):
    # a group is checked in file order
    for group in ("G2", "F4"):
        code, out, _ = run(capsys, "catalog", group)
        assert code == 0
        assert out.splitlines() == ["%s-row%d: match" % (group, i) for i in range(1, 5)]


def test_catalog_alias(capsys):
    code, out, _ = run(capsys, "catalog", "G2-split-codim1-long")
    assert code == 0
    assert "match" in out


def test_catalog_unknown(capsys):
    code, _, err = run(capsys, "catalog", "nope")
    assert code == 2
    assert "available" in err


def test_catalog_closes_its_files():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        names = [entry["name"] for entry in cli.find_entries(None, False)]
        for name in names:
            cli.find_entries(name, False)
        gc.collect()
    assert len(names) == 17
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_catalog_detects_corruption(capsys, tmp_path, monkeypatch):
    src = cli.catalog_dir()
    for fn in os.listdir(src):
        obj = json.load(open(os.path.join(src, fn)))
        if obj["name"] == "G2-row1":
            obj["expected"]["V"]["nodes"][0][2] = 99
        (tmp_path / fn).write_text(json.dumps(obj))
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    code, out, _ = run(capsys, "catalog", "G2-row1")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("edit, witness", [
    (lambda p: p.update(L=["1/2", 1]), "bad payload: alpha(L) not an integer on (-3, -2)"),
    (lambda p: p.update(type="X"), "bad payload: unknown type 'X'"),
    (lambda p: p.update(involution="bogus"), "bad payload: unknown involution 'bogus'"),
    (lambda p: p.pop("L"), "payload is missing key 'L'"),
], ids=["non-integral-L", "unknown-type", "unknown-involution", "missing-L"])
def test_catalog_bad_payload(capsys, tmp_path, monkeypatch, edit, witness):
    src = Path(cli.catalog_dir())
    for path in src.glob("*.json"):
        obj = json.loads(path.read_text())
        if obj["name"] == "G2-split-closed":
            edit(obj["payload"])
        (tmp_path / path.name).write_text(json.dumps(obj))
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    code, out, err = run(capsys, "catalog", "G2-split-closed")
    assert code == 2 and out == ""
    assert "'G2-split-closed'" in err and witness in err


@pytest.mark.parametrize("edit, witness", [
    ({"involution": "cayley:0,0"}, "cayley root (0, 0) is not a root of A2"),
    ({"involution": "cayley:2,0"}, "cayley root (2, 0) is not a root of A2"),
    ({"involution": "cayley:1"}, "cayley root (1,) on A2 needs 2 coordinates, got 1"),
    ({"involution": "cayley:1,0,0"},
     "cayley root (1, 0, 0) on A2 needs 2 coordinates, got 3"),
    ({"involution": "cayley:a,1"}, "cayley root 'a,1' is not a list of integers"),
    ({"L": [1]}, "grading element on A2 needs 2 values, got 1"),
    ({"rank": "2"}, "rank must be an integer, got '2'"),
    ({"rank": 0}, "A needs rank >= 1"),
    ({"L": 5}, 'grading element must be a list of rationals (integers, or strings '
               'such as "1/2"), got 5'),
    ({"L": "12"}, 'grading element must be a list of rationals (integers, or strings '
                  'such as "1/2"), got \'12\''),
    ({"type": ["A"]}, "unhashable type: 'list'"),
], ids=["zero-root", "not-a-root", "short-root", "long-root", "unparsed-root",
        "short-L", "string-rank", "rank-0", "number-L", "string-L", "list-type"])
def test_catalog_bad_root_payload(capsys, tmp_path, monkeypatch, edit, witness):
    # an A2 orbit entry in a catalog of its own; every edit used to get
    # through as a traceback or as a wrong "match"
    payload = {"type": "A", "rank": 2, "L": [1, 1], "involution": "compact"}
    payload.update(edit)
    entry = {"name": "A2-test", "kind": "mumford-tate", "payload": payload,
             "expected": {"closed": False, "dim_C_dual": 3, "dim_KR_orbit": 1,
                          "dim_R_orbit": 6}}
    (tmp_path / "a2-test.json").write_text(json.dumps(entry))
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    code, out, err = run(capsys, "catalog", "A2-test")
    assert code == 2 and out == ""
    assert err == "catalog entry 'A2-test': bad payload: %s\n" % witness


def _catalog_files():
    return sorted(fn for fn in os.listdir(cli.catalog_dir()) if fn.endswith(".json"))


def _up_to(last):
    files = _catalog_files()
    return files[:files.index(last) + 1]


# The files each lookup reads, in order.  A name reads the one file of the
# catalog convention, and `catalog` of a group its rows; an alias reads the
# catalog up to the match, and `catalog` alone or an unknown name all of it.
READS = {
    ("catalog",): _catalog_files,
    ("catalog", "G2"): lambda: ["g2-row%d.json" % i for i in range(1, 5)],
    ("catalog", "G2-split-codim1-long"): lambda: _up_to("g2-row2.json"),
    ("diagram", "G2-split-codim1-long"): lambda: _up_to("g2-row2.json"),
    ("catalog", "nope"): _catalog_files,
    ("diagram", "nope"): _catalog_files,
    ("diagram", "G2-row1"): lambda: ["g2-row1.json"],
    ("catalog", "ht-n2-111"): lambda: ["ht-n2-111.json"],
}


@pytest.mark.parametrize("argv", [list(k) for k in READS])
def test_catalog_reads_each_file_once(capsys, monkeypatch, argv):
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    run(capsys, *argv)
    assert {os.path.dirname(p) for p in opened} == {cli.catalog_dir()}
    assert [os.path.basename(p) for p in opened] == READS[tuple(argv)]()


def test_catalog_files_follow_the_name_convention():
    # entry NAME lives in <name lowercased>.json, names are unique ignoring
    # case, and no alias is the name of an entry: so the one file a name
    # gives holds the entry that the whole catalog would
    entries = {fn: json.loads(Path(cli.catalog_dir(), fn).read_text())
               for fn in _catalog_files()}
    assert len(entries) == 17
    assert all(fn == e["name"].lower() + ".json" for fn, e in entries.items())
    names = {e["name"].lower() for e in entries.values()}
    assert len(names) == len(entries)
    aliases = [a.lower() for e in entries.values() for a in e.get("aliases", [])]
    assert aliases and not names & set(aliases)


def _copy_catalog(dest, rename=lambda fn: fn):
    for fn in _catalog_files():
        shutil.copy(os.path.join(cli.catalog_dir(), fn), dest / rename(fn))


ENTRY = {"name": "x", "kind": "period-domain", "payload": {}, "expected": {}}


def _entry_file(text=None, drop=None, **edit):
    """A catalog of one file, x.json: `text`, or ENTRY edited."""
    entry = {k: v for k, v in dict(ENTRY, **edit).items() if k != drop}
    return lambda d: (d / "x.json").write_text(json.dumps(entry) if text is None else text)


@pytest.mark.parametrize("build, argv, named", [
    (None, ["catalog"], ""),
    (None, ["catalog", "x"], ""),
    (None, ["diagram", "x"], ""),
    (_entry_file("{"), ["catalog"], "x.json"),
    (_entry_file("[1]"), ["catalog", "x"], "x.json"),
    (_entry_file(drop="name"), ["catalog"], "x.json: key 'name'"),
    (_entry_file(name=3), ["catalog", "x"], "x.json: key 'name'"),
    (_entry_file(kind="hodge"), ["catalog", "x"], "x.json: key 'kind'"),
    (_entry_file(drop="kind"), ["catalog", "x"], "x.json: key 'kind'"),
    (_entry_file(payload=[]), ["catalog", "x"], "x.json: key 'payload'"),
    (_entry_file(expected=[]), ["catalog", "x"], "x.json: key 'expected'"),
    (_entry_file(expected=[]), ["diagram", "x"], "x.json: key 'expected'"),
    (_entry_file(aliases="y"), ["catalog", "y"], "x.json: key 'aliases'"),
    (_entry_file(aliases=[1]), ["catalog"], "x.json: key 'aliases'"),
    (lambda d: _copy_catalog(d, lambda fn: "renamed.json" if fn == "g2-row1.json" else fn),
     ["catalog", "G2-row1"], "renamed.json: entry 'G2-row1' belongs in g2-row1.json"),
    (lambda d: _copy_catalog(d, lambda fn: fn[:-len(".json")].upper() + ".json"),
     ["diagram", "g2-row1"], "C2-COMPACT-OPEN.json: entry 'C2-compact-open' belongs in"),
], ids=["no-directory", "no-directory-name", "no-directory-diagram", "not-json",
        "not-an-object", "no-name", "name-not-a-string", "unknown-kind", "no-kind",
        "payload-not-an-object", "expected-not-an-object", "expected-not-an-object-diagram",
        "aliases-not-a-list", "alias-not-a-string", "renamed", "upper-case"])
def test_catalog_fault_exits_2_naming_the_file(capsys, tmp_path, monkeypatch, build, argv,
                                               named):
    # each used to end in a traceback, a wrong message or, for a file that
    # breaks the name convention, a read of the whole catalog
    d = tmp_path / "missing"
    if build:
        d = tmp_path / "catalog"
        d.mkdir()
        build(d)
    monkeypatch.setenv(cli.CATALOG_ENV, str(d))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(d / named) in err


def test_catalog_fault_gives_no_traceback_in_a_fresh_process(tmp_path, monkeypatch):
    (tmp_path / "x.json").write_text("[1]")
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    res = console("catalog", "x", cwd=tmp_path)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "catalog file %s: the entry is not a JSON object\n" % (tmp_path / "x.json")


def test_catalog_lookup_by_own_file_takes_precedence(capsys, tmp_path, monkeypatch):
    # an entry G2 in g2.json beside the rows g2-row*.json: `catalog G2` still
    # checks the group, the entry and its rows; and an earlier file carrying
    # G2-row1 as an alias does not answer for G2-row1, its own file does
    _copy_catalog(tmp_path)
    entry = json.loads((tmp_path / "g2-row1.json").read_text())
    (tmp_path / "g2.json").write_text(json.dumps(dict(entry, name="G2")))
    (tmp_path / "a-alias.json").write_text(json.dumps(
        dict(entry, name="A-alias", aliases=["G2-row1"], payload={})))
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    code, out, _ = run(capsys, "catalog", "G2")
    assert code == 0
    # file order: g2-row1.json ... g2-row4.json, then g2.json
    assert out.splitlines() == ["G2-row%d: match" % i for i in range(1, 5)] + ["G2: match"]
    assert [e["name"] for e in cli.find_entries("G2-row1", False)] == ["G2-row1"]
    assert [e["name"] for e in cli.find_entries("g2", False)] == ["G2"]


def test_catalog_empty_name_exits_2_as_unknown(capsys):
    # an empty name used to list every entry and exit 0, as no name does
    code, out, err = run(capsys, "catalog", "")
    assert (code, out) == (2, "")
    assert err.startswith("unknown catalog entry ''; available: C2-compact-open, ")
    assert err.count("\n") == 1


def test_catalog_period_domain_payload_names_its_clause(capsys, tmp_path, monkeypatch):
    # ht-n2-111 with Q negated: the catalog names the failing clause and its
    # witness, in the words `classify --input` gives for the same datum
    _copy_catalog(tmp_path)
    path = tmp_path / "ht-n2-111.json"
    entry = json.loads(path.read_text())
    payload = entry["payload"]
    payload["Q"] = [[str(-Fraction(x)) for x in row] for row in payload["Q"]]
    path.write_text(json.dumps(entry))
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    fault = ("the datum is not a limiting mixed Hodge structure: clause polarized_primitives "
             "fails: leading minor 1 of i^(p-q) Q_2 on I^{2,2} not positive")
    assert run(capsys, "catalog", "ht-n2-111") == (
        2, "", "catalog entry 'ht-n2-111': bad payload: %s\n" % fault)
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "classify", "2", "1,1,1", "--mode", "closed-orbit",
                       "--input", str(datum))
    assert (code, json.loads(out)) == (2, {"error": fault})


# --------------------------------------------------- faults named on input

@pytest.mark.parametrize("argv, named", [
    (["classify", "2", "1,1,1", "--input", "{missing}"], ["--input"]),
    (["classify", "2", "1,1,1", "--mode", "hodge-tate", "--input", "{missing}"], ["--input"]),
    (["classify", "2", "1,1,1", "--mode", "closed-orbit", "--out", "{out}"], ["--out"]),
    (["diagram", "{datum}", "--part", "adjoint"], ["--part adjoint"]),
    (["diagram", {"nodes": [[0, 0, 1]]}, "--part", "adjoint"], ["--part adjoint"]),
    (["diagram", {"nodes": 5}], ["nodes 5"]),
    (["diagram", {"nodes": [[0, 0, 1]], "arrows": 5}], ["arrows 5"]),
    (["diagram", {"nodes": [[0, 0, 0]]}], ["node [0, 0, 0]"]),
    (["catalog"], ["catalog directory {missing} is missing", cli.CATALOG_ENV]),
    (["diagram", "G2"], ["catalog directory {missing} is missing", cli.CATALOG_ENV]),
], ids=["input-minimal", "input-hodge-tate", "out-closed-orbit", "part-datum-file",
        "part-spec-file", "nodes-not-a-list", "arrows-not-a-list", "zero-dim-node",
        "no-catalog-directory", "no-catalog-directory-diagram"])
def test_input_fault_exits_2_naming_it(capsys, tmp_path, monkeypatch, ht_file, argv, named):
    # each used to exit 0 with the flag ignored, or exit 2 with a message
    # that did not name the flag, the field, the node or the catalog
    paths = {"missing": str(tmp_path / "missing"), "out": str(tmp_path / "out.json"),
             "datum": ht_file}
    spec = tmp_path / "spec.json"
    args = []
    for a in argv:
        if isinstance(a, dict):
            spec.write_text(json.dumps(a))
            a = str(spec)
        args.append(a.format(**paths))
    monkeypatch.setenv(cli.CATALOG_ENV, paths["missing"])
    code, out, err = run(capsys, *args)
    lines = (out + err).splitlines()
    assert code == 2 and len(lines) == 1
    assert all(s.format(**paths) in lines[0] for s in named)
    if argv[0] == "classify":
        assert list(json.loads(out)) == ["error"]
    else:
        assert out == ""
    assert not os.path.exists(paths["out"])


# Deeper than the JSON decoder's recursion limit on every supported Python;
# json.dumps cannot write it, so it is written as text
DEEP = "[" * 100000


@pytest.mark.parametrize("argv, named", [
    (["validate", "{deep}"], ""),
    (["classify", "1", "1,1", "--mode", "closed-orbit", "--input", "{deep}"], ""),
    (["diagram", "{deep}"], "bad input: "),
    (["catalog"], "catalog file {deep}: "),
], ids=["validate", "classify-input", "diagram", "catalog"])
def test_deeply_nested_file_exits_2_naming_it(capsys, tmp_path, monkeypatch, argv, named):
    # each used to end in a RecursionError traceback with exit 1
    deep = tmp_path / "x.json"
    deep.write_text(DEEP)
    monkeypatch.setenv(cli.CATALOG_ENV, str(tmp_path))
    code, out, err = run(capsys, *[a.format(deep=deep) for a in argv])
    fault = "the JSON is nested too deeply to decode"
    assert code == 2
    if argv[0] in ("validate", "classify"):
        assert (out, err) == (json.dumps({"error": fault}) + "\n", "")
    else:
        assert (out, err) == ("", named.format(deep=deep) + fault + "\n")


def test_deeply_nested_file_gives_no_traceback_in_a_fresh_process(tmp_path):
    (tmp_path / "x.json").write_text(DEEP)
    res = console("validate", "x.json", cwd=tmp_path)
    assert "Traceback" not in res.stderr
    assert (res.returncode, res.stdout) == (
        2, '{"error": "the JSON is nested too deeply to decode"}\n')


# ------------------------------------------------------------ corpus

def test_verify_corpus_limited(capsys):
    code, out, _ = run(capsys, "verify-corpus", "--limit", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["cases"] == 5


def test_verify_corpus_zero(capsys):
    code, out, _ = run(capsys, "verify-corpus", "--limit", "0")
    assert code == 0
    assert json.loads(out)["cases"] == 0


@pytest.mark.parametrize("limit", ["-1", "-81"])
def test_verify_corpus_negative_limit(capsys, limit):
    code, out, _ = run(capsys, "verify-corpus", "--limit", limit)
    assert code == 2
    assert "--limit" in json.loads(out)["error"]


def test_verify_corpus_samples(capsys, monkeypatch):
    seen = []
    sample = cli.disc_sample

    def recorded(L, ys):
        seen.append(tuple(ys))
        return sample(L, ys)

    monkeypatch.setattr(cli, "disc_sample", recorded)
    code, out, _ = run(capsys, "verify-corpus", "--limit", "2", "--samples", "3")
    assert code == 0 and json.loads(out) == {"cases": 2, "ok": True}
    assert seen == [(Fraction(3),), (Fraction(3),)]


@pytest.mark.parametrize("bad", ["x", "1,x", "0", "-1", "1/0"])
def test_verify_corpus_bad_samples(capsys, bad):
    code, out, _ = run(capsys, "verify-corpus", "--limit", "1", "--samples", bad)
    assert code == 2
    assert "--samples" in json.loads(out)["error"]


def test_main_builds_its_parser_once(capsys, monkeypatch, ht_file):
    # two subcommands in one process: one top-level ArgumentParser
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "hodge-degen":  # not a subcommand's parser
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()  # as in a fresh process
    assert run(capsys, "validate", ht_file)[0] == 0
    assert run(capsys, "catalog", "ht-n2-111")[0] == 0
    assert len(built) == 1


def test_main_runs_the_cmd_function_the_module_holds_now(capsys, monkeypatch, ht_file):
    # a cmd_* function replaced after the parser was built, as a tracer
    # wraps it, is the one main calls
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.path) or 7)
    assert run(capsys, "validate", ht_file)[0] == 7
    assert calls == [ht_file]


@pytest.mark.parametrize("argv", [["catalog"],
                                  ["diagram", "F4-row1", "--part", "adjoint",
                                   "--format", "svg"]])
def test_closed_stdout_exits_1_without_traceback(argv):
    # stdout is a pipe whose reader has already gone
    r, w = os.pipe()
    os.close(r)
    code = "import sys; from hodge_degen.cli import main; sys.exit(main(%r))" % argv
    try:
        res = subprocess.run([sys.executable, "-c", code], stdout=w,
                             stderr=subprocess.PIPE, text=True, env=pkg_env())
    finally:
        os.close(w)
    assert (res.returncode, res.stderr) == (1, "")


def test_entry_point_installed(tmp_path):
    # the installed script, or in an uninstalled checkout the declared
    # target, in a fresh process whose working directory holds no catalog
    res = console("catalog", "ht-n2-111", cwd=tmp_path)
    assert res.returncode == 0
    assert "match" in res.stdout
