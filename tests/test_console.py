"""CLI scenarios through the `hodge-degen` console script (tests/console.py):
the installed script when there is one, otherwise its `[project.scripts]`
target in a fresh process, so that tier-1 runs what an installed package
runs."""

import json

from hodge_degen.gq import MatrixGQ
from hodge_degen.hodge import HodgeNumbers, model_phs

from console import console


def test_every_catalog_entry_matches_through_the_console_script(tmp_path):
    # every entry the listing names, the orbit entries included
    listing = console("catalog", cwd=tmp_path)
    assert listing.returncode == 0
    names = listing.stdout.split()
    assert len(names) == 17
    for name in names:
        res = console("catalog", name, cwd=tmp_path)
        assert (res.returncode, res.stdout) == (0, "%s: match\n" % name)


def _one_error_line(res):
    """Whether `res` exited 2 with one line of output, a JSON error."""
    lines = res.stdout.splitlines()
    return res.returncode == 2 and len(lines) == 1 and lines[0].startswith('{"error": ')


def test_classify_and_its_bad_weight_or_h(tmp_path):
    res = console("classify", "2", "1,1,1", cwd=tmp_path)
    assert (res.returncode, res.stdout) == (0, (
        '{"h": [1, 1, 1], "mode": "minimal", "types": [{"kind": "II", "nodes": '
        '[[0, 0, 1], [1, 1, 1], [2, 2, 1]], "p_o": 0, "q_o": 2}], "weight": 2}\n'))
    for argv in (["-2", "1"], ["2", "1,,1"]):
        assert _one_error_line(console("classify", *argv, cwd=tmp_path)), argv


def test_edited_witness_files_fail_clauses_a_and_d(tmp_path):
    # the first witness of classify 3 1,2,2,1 with W_3 replaced by W_4, and
    # with Q negated
    assert console("classify", "3", "1,2,2,1", "--out", "m.json", cwd=tmp_path).returncode == 0
    obj = json.loads((tmp_path / "m.json.witness0.json").read_text())
    (tmp_path / "w3.json").write_text(json.dumps(dict(obj, W=dict(obj["W"], **{"3": obj["W"]["4"]}))))
    (tmp_path / "neg-q.json").write_text(
        json.dumps(dict(obj, Q=MatrixGQ.from_json(obj["Q"]).scale(-1).to_json())))
    res = console("validate", "w3.json", cwd=tmp_path)
    assert res.returncode == 1
    assert '"weight_filtration_witness": "N W_3 not inside W_1"' in res.stdout
    res = console("validate", "neg-q.json", cwd=tmp_path)
    assert res.returncode == 1
    assert '"polarized_primitives": false' in res.stdout
    assert '"polarized_primitives_witness": ' in res.stdout


def test_kind_ii_witness_is_consistent_with_the_closed_orbit(tmp_path):
    # the minimal witness of h = (2,1,2), which is not Hodge-Tate
    assert console("classify", "2", "2,1,2", "--out", "k.json", cwd=tmp_path).returncode == 0
    res = console("classify", "2", "2,1,2", "--mode", "closed-orbit",
                  "--input", "k.json.witness0.json", cwd=tmp_path)
    assert res.returncode == 0
    assert '"branch": "non-hodge-tate"' in res.stdout
    assert '"consistent_with_closed_orbit": true' in res.stdout


def test_pure_hodge_datum_files_reach_validate_phs(tmp_path):
    d = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    obj = d.to_json()
    (tmp_path / "phs.json").write_text(json.dumps(obj))
    obj["Q"] = d.polarization.Q.scale(-1).to_json()
    (tmp_path / "phs-neg.json").write_text(json.dumps(obj))
    # weight 1, F^1 = span(1, 1) is real: V^{1,0} = V^{0,1} is one line
    (tmp_path / "line.json").write_text(json.dumps(
        {"dim": 2, "weight": 1, "Q": [["0", "1"], ["-1", "0"]], "F": {"1": [["1", "1"]]}}))
    res = console("validate", "phs.json", cwd=tmp_path)
    assert (res.returncode, res.stdout) == (
        0, '{"hr1": true, "hr2": true, "ok": true, "spans": true}\n')
    res = console("validate", "phs-neg.json", cwd=tmp_path)
    assert res.returncode == 1
    assert '"hr2": false' in res.stdout and '"hr2_witness": ' in res.stdout
    res = console("validate", "line.json", cwd=tmp_path)
    assert res.returncode == 1
    assert '"hr1": false' in res.stdout and '"spans": false' in res.stdout


def test_f_and_w_keys_that_are_not_plain_indices_exit_2(tmp_path):
    # the weight-1 degeneration: F^1 = <e_0>, N e_0 = e_1, W_0 = W_1 = <e_1>
    base = {"dim": 2, "weight": 1, "Q": [["0", "1"], ["-1", "0"]],
            "F": {"0": [["1", "0"], ["0", "1"]], "1": [["1", "0"]]},
            "N": [["0", "0"], ["1", "0"]],
            "W": {"0": [["0", "1"]], "1": [["0", "1"]], "2": [["1", "0"], ["0", "1"]]}}
    (tmp_path / "f7.json").write_text(json.dumps(dict(base, F=dict(base["F"], **{"7": []}))))
    (tmp_path / "w01.json").write_text(
        json.dumps(dict(base, W=dict(base["W"], **{"01": [["1", "0"]]}))))
    for name, key in (("f7.json", "F step '7'"), ("w01.json", "W level '01'")):
        res = console("validate", name, cwd=tmp_path)
        assert _one_error_line(res) and key in res.stdout, name


def test_verify_corpus_checks_all_82_cases(tmp_path):
    res = console("verify-corpus", cwd=tmp_path)
    assert (res.returncode, res.stdout) == (0, '{"cases": 82, "ok": true}\n')
