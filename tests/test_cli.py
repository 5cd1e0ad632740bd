import json
import pathlib
import subprocess
import sys

import pytest

from gradedhecke.cli import main
from gradedhecke.verification import ALL_SUITES, SuiteResult


def run_cli(*argv):
    return main(list(argv))


def test_eval_braid(capsys):
    assert run_cli("eval", "--preset", "A1", "--k", "1", "x * N[s]") == 0
    assert capsys.readouterr().out.strip() == "N[e]*(2*r) + N[s]*(-x)"


def test_eval_square(capsys):
    assert run_cli("eval", "--preset", "A1", "N[s]*N[s]") == 0
    assert capsys.readouterr().out.strip() == "N[e]*(1)"


def test_eval_involution(capsys):
    assert run_cli("eval", "--preset", "A1", "IM(N[s]*x)") == 0
    assert capsys.readouterr().out.strip() == "N[s]*(x)"


def test_eval_parse_error(capsys):
    assert run_cli("eval", "--preset", "A1", "x + * r") == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_verify_passes(capsys):
    code = run_cli("verify", "--preset", "A1", "--k", "1",
                   "--suites", "associativity,center,cocycle", "--cases", "15")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 3


def test_verify_b2_no_gamma(capsys):
    code = run_cli("verify", "--preset", "B2", "--gamma", "none", "--k", "2,1",
                   "--suites", "group-embedding,parameters", "--cases", "10")
    assert code == 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing(algebra, rng, cases=None):
        return SuiteResult("stub", False, "forced failure")

    monkeypatch.setitem(ALL_SUITES, "stub", failing)
    code = run_cli("verify", "--preset", "A1", "--suites", "stub")
    out = capsys.readouterr().out
    assert code == 1 and "[FAIL] stub" in out


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_verify_rejects_fewer_than_one_case(cases, capsys):
    assert run_cli("verify", "--preset", "A1", "--suites", "associativity",
                   "--cases", cases) == 2
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "cases must be at least 1" in captured.err


def test_verify_modules_in_crossed_product_mode(capsys):
    assert run_cli("verify", "--preset", "A1", "--k", "0", "--mode", "k0",
                   "--suites", "modules") == 0
    assert capsys.readouterr().out.strip() == "[PASS] modules: 6 induced modules"


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "--preset", "A1", "--suites", "nope") == 2


def test_malformed_cocycle_file(tmp_path, capsys):
    # an order-3 twisting group with a non-associative table
    config = {
        "types": [["D", 4]],
        "gamma": [[2, 1, 3, 0]],
        "k": ["1"],
        "cyclotomic_order": 3,
        "cocycle": [["1", "1", "1"], ["1", "z", "1"], ["1", "1", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = run_cli("verify", "--algebra-file", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert "cocycle" in err and "triple" in err


def test_cocycle_file_override(tmp_path, capsys):
    good = tmp_path / "minus.json"
    good.write_text(json.dumps([["1", "1"], ["1", "-1"]]))
    code = run_cli("eval", "--preset", "A2flip", "--cocycle-file", str(good),
                   "N[g1]*N[g1]")
    assert code == 0
    assert capsys.readouterr().out.strip() == "N[e]*(-1)"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["1", "-1"], ["1", "1"]]))  # breaks normalization
    code = run_cli("eval", "--preset", "A2flip", "--cocycle-file", str(bad),
                   "N[g1]")
    err = capsys.readouterr().err
    assert code == 2 and "cocycle" in err


def test_params_fixture(tmp_path, capsys):
    fixture = tmp_path / "sl3.json"
    fixture.write_text(json.dumps({"builder": "sl", "size": 3,
                                   "levi_blocks": [2, 1]}))
    assert run_cli("params", str(fixture), "--v", '{"E12": 1}') == 0
    out = capsys.readouterr().out
    assert "-> 3" in out and "invariance: ok" in out
    assert run_cli("params", str(fixture)) == 0
    out = capsys.readouterr().out
    assert "-> 2" in out


def test_params_check_f4(tmp_path, capsys):
    fixture = tmp_path / "sl3.json"
    fixture.write_text(json.dumps({"builder": "sl", "size": 3,
                                   "levi_blocks": [2, 1]}))
    assert run_cli("params", str(fixture), "--v", '{"E12": 1}', "--check-f4") == 0
    out = capsys.readouterr().out
    assert "admissible: True" in out


def test_classify_module_file(tmp_path, capsys):
    module = {"dim": 1, "r": 1,
              "x": [[[-1]]],
              "N": {"s1": [[-1]]}}
    path = tmp_path / "steinberg.json"
    path.write_text(json.dumps(module))
    assert run_cli("classify", "--preset", "A1", "--k", "1",
                   "--module-file", str(path)) == 0
    out = capsys.readouterr().out
    assert "relations hold" in out and "weight ('-1',) multiplicity 1" in out
    # a broken module is rejected
    bad = {"dim": 1, "r": 1, "x": [[[5]]], "N": {"s1": [[-1]]}}
    path.write_text(json.dumps(bad))
    assert run_cli("classify", "--preset", "A1", "--k", "1",
                   "--module-file", str(path)) == 2


def test_shipped_fixtures(capsys):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    assert run_cli("params", str(root / "sl3_levi.json"), "--v", '{"E12": 1}') == 0
    assert "-> 3" in capsys.readouterr().out
    assert run_cli("params", str(root / "sp4_torus.json")) == 0
    assert "order 8" in capsys.readouterr().out
    # z is central, so ad(z) vanishes and every parameter is the minimum 2
    assert run_cli("params", str(root / "heisenberg_graded.json"),
                   "--v", '{"z": 1}') == 0
    assert "-> 2" in capsys.readouterr().out
    # e is nilpotent but lies outside the Levi: rejected
    assert run_cli("params", str(root / "heisenberg_graded.json"),
                   "--v", '{"e": 1}') == 2
    assert "Levi" in capsys.readouterr().err


def test_params_bad_grading(tmp_path, capsys):
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps({
        "basis": ["h", "e", "f"],
        "brackets": {"0,1": {"2": 1}},
        "weights": [[0], [2], [-2]],
        "levi": [True, False, False],
        "nilradical": [False, True, False],
    }))
    assert run_cli("params", str(fixture)) == 2
    err = capsys.readouterr().err
    assert "grading violated" in err and "h" in err and "e" in err and "f" in err


def test_classify_output(capsys):
    assert run_cli("classify", "--preset", "A1", "--k", "1") == 0
    out = capsys.readouterr().out
    assert "Steinberg -> sgn" in out
    assert "pi_0 -> triv" in out
    assert "tempered, essentially-discrete-series" in out


def test_ext_json(capsys):
    assert run_cli("ext", "--preset", "A1") == 0
    assert json.loads(capsys.readouterr().out) == {"0": 1, "1": 2, "2": 1}


@pytest.fixture
def cyclotomic_b2(tmp_path):
    path = tmp_path / "b2_cyc.json"
    path.write_text(json.dumps({"types": [["B", 2]], "k": ["z", "1"],
                                "cyclotomic_order": 3}))
    return str(path)


def test_verify_skips_modules_for_cyclotomic_parameters(cyclotomic_b2, capsys):
    code = run_cli("verify", "--algebra-file", cyclotomic_b2,
                   "--suites", "modules,homology", "--cases", "1")
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] modules: skipped: cyclotomic parameters" in out
    assert "[PASS] homology: Koszul, dual dims; Ext skipped: cyclotomic parameters" in out


def test_verify_homology_detail_names_what_ran(capsys):
    assert run_cli("verify", "--preset", "B2", "--mode", "r1",
                   "--suites", "homology", "--cases", "1") == 0
    assert capsys.readouterr().out.strip() == "[PASS] homology: Koszul, Ext dims"


def test_ext_rejects_cyclotomic_parameters(cyclotomic_b2, capsys):
    assert run_cli("ext", "--algebra-file", cyclotomic_b2, "--weight", "1,3") == 2
    err = capsys.readouterr().err
    assert "cyclotomic order 3" in err


def test_export_contains_braid_coefficient(capsys):
    assert run_cli("export", "--preset", "A1", "--k", "1", "structure",
                   "--degree-cap", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    basis = payload["table"]["basis"]
    x_index = basis.index(["e", [1, 0]])
    s_index = basis.index(["s1", [0, 0]])
    entry = next(e for e in payload["table"]["products"]
                 if e["i"] == x_index and e["j"] == s_index)
    assert ["e", [0, 1], "2"] in entry["terms"]   # the 2 k r coefficient
    assert ["s1", [1, 0], "-1"] in entry["terms"]


def test_export_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run_cli("export", "--preset", "A2flip-tw", "structure",
                       "--degree-cap", "1", "--seed", "7",
                       "--out", str(target)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_deterministic_subprocess():
    cmd = [sys.executable, "-m", "gradedhecke.cli", "export", "--preset", "A1",
           "ext", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second and first


def test_classification_export(capsys):
    assert run_cli("export", "--preset", "A1", "--k", "1", "classification") == 0
    payload = json.loads(capsys.readouterr().out)
    by_label = {m["label"]: m for m in payload["modules"]}
    assert by_label["Steinberg"]["tempered"]
    assert payload["matching"] == {"Steinberg": "sgn", "pi_0": "triv"}


# --- bad input exits 2 with a one-line message ----------------------------------------

def _one_line_error(capsys):
    err = capsys.readouterr().err.strip()
    assert err and "\n" not in err and "Traceback" not in err
    return err


def test_export_rejects_negative_degree_cap(capsys):
    assert run_cli("export", "--preset", "B2", "structure", "--degree-cap", "-1") == 2
    assert "degree cap" in _one_line_error(capsys)


def test_ext_rejects_weight_of_wrong_arity(capsys):
    assert run_cli("ext", "--preset", "B2", "--weight", "1") == 2
    assert "2 coordinates" in _one_line_error(capsys)


def test_ext_rejects_zero_denominator_weight(capsys):
    assert run_cli("ext", "--preset", "B2", "--weight", "1,1/0") == 2
    assert "zero denominator" in _one_line_error(capsys)


def test_eval_rejects_zero_denominator_parameter(capsys):
    assert run_cli("eval", "--preset", "A1", "--k", "1/0", "x") == 2
    assert "zero denominator" in _one_line_error(capsys)


@pytest.mark.parametrize("v, message", [('{"E99": 1}', "E99"),
                                        ('{"E12": "1/0"}', "zero denominator")])
def test_params_rejects_bad_nilpotent(v, message, capsys):
    import pathlib

    fixture = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "sl3_levi.json"
    assert run_cli("params", str(fixture), "--v", v) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("config", [{"root_system": "X9"}, {"types": [["A", 1]]}, [1, 2]])
def test_verify_rejects_incomplete_algebra_file(config, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run_cli("verify", "--algebra-file", str(path)) == 2
    _one_line_error(capsys)


_SL3_LEVI = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "sl3_levi.json")
_CLASSIFY_FILE = ["classify", "--preset", "A1", "--module-file", "FILE"]


@pytest.mark.parametrize("argv, content", [
    pytest.param(["eval", "--preset", "A1", "1/0"], None, id="expression-zero-denominator"),
    pytest.param(["eval", "--preset", "A1", "--cocycle-file", "FILE", "x"], 5,
                 id="cocycle-scalar"),
    pytest.param(["eval", "--preset", "A1", "--cocycle-file", "FILE", "x"], [5],
                 id="cocycle-scalar-row"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [["A", 2]], "k": 5},
                 id="algebra-k-scalar"),
    pytest.param(["params", _SL3_LEVI, "--v", "5"], None, id="v-scalar"),
    pytest.param(["params", _SL3_LEVI, "--v", '{"E12": null}'], None, id="v-null-coordinate"),
    pytest.param(["params", "FILE"], [1], id="lie-fixture-list"),
    pytest.param(_CLASSIFY_FILE, {"x": 5, "N": {}}, id="module-x-scalar"),
    pytest.param(_CLASSIFY_FILE, [1], id="module-list"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[1]]], "N": {"s1": [[1]]}, "r": "1/0"},
                 id="module-r-zero-denominator"),
    pytest.param(_CLASSIFY_FILE, {"x": [], "N": {}}, id="module-without-matrices"),
])
def test_malformed_input_exits_2_with_one_line(argv, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    assert run_cli(*[str(path) if a == "FILE" else a for a in argv]) == 2
    _one_line_error(capsys)
