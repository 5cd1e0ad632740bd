import hashlib
import itertools
import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gradedhecke.cli import _parser, _structure_json, main
from gradedhecke.expressions import POWER_DEGREE_CAP
from gradedhecke.presets import algebra_from_config, build_preset
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


def test_parser_serves_again_after_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--preset", "no-such-preset", "x")
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli("eval", "--preset", "A1", "--k", "1", "x * N[s]") == 0
    assert capsys.readouterr().out.strip() == "N[e]*(2*r) + N[s]*(-x)"
    assert _parser() is _parser()


def test_command_is_looked_up_after_the_parser_is_built(monkeypatch):
    import gradedhecke.cli as cli

    _parser()
    monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
    assert run_cli("eval", "--preset", "A1", "x") == 7


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


def test_classify_module_file_in_r1_mode_must_have_r_one(tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"x": [[["-2"]]], "N": {"s1": [["-1"]]}, "r": "2"}))
    assert run_cli("classify", "--preset", "A1", "--module-file", str(path)) == 2
    assert "rescale k" in capsys.readouterr().err


def test_classify_module_file_checks_the_group_law_on_a3(tmp_path, capsys):
    """A3 has 24 elements; x = (1, -1, 1), N = (1, -1, 1) breaks the braid
    relation s1 s2 s1 = s2 s1 s2 of the group, and the trivial module holds."""
    algebra = tmp_path / "a3.json"
    algebra.write_text(json.dumps({"types": [["A", 3]], "k": ["1"]}))
    module = tmp_path / "module.json"
    signs = [1, -1, 1]
    module.write_text(json.dumps({"x": [[[c]] for c in signs],
                                  "N": {f"s{i + 1}": [[c]] for i, c in enumerate(signs)}}))
    argv = ["classify", "--algebra-file", str(algebra), "--module-file", str(module)]
    assert run_cli(*argv) == 2
    assert "group law fails" in capsys.readouterr().err
    module.write_text(json.dumps({"x": [[[1]]] * 3, "N": {f"s{i}": [[1]] for i in (1, 2, 3)}}))
    assert run_cli(*argv) == 0
    assert "relations hold" in capsys.readouterr().out


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


def _pairwise_table(algebra, degree_cap):
    """The structure table with one `multiply` per pair of basis elements."""
    from gradedhecke.cli import _word_label
    from gradedhecke.polynomials import Polynomial
    from gradedhecke.scalars import scalar_str

    nv = algebra.nvars
    max_var = nv if algebra.mode != "r1" else nv - 1
    monomials = sorted(tuple(e) + (0,) * (nv - max_var)
                       for e in itertools.product(range(degree_cap + 1), repeat=max_var)
                       if sum(e) <= degree_cap)
    basis = [(w, e) for w in algebra.group.elements for e in monomials]
    elements = [algebra.from_terms({w: Polynomial(nv, {e: Fraction(1)})}) for w, e in basis]
    entries = []
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            prod = a * b
            terms = [[_word_label(algebra, algebra.group.elements[wi]), list(expo),
                      scalar_str(prod.terms[wi].terms[expo])]
                     for wi in sorted(prod.terms) for expo in sorted(prod.terms[wi].terms)]
            entries.append({"i": i, "j": j, "terms": terms})
    return {"basis": [[_word_label(algebra, w), list(e)] for w, e in basis],
            "products": entries}


def _with_cocycle(algebra, rows):
    from gradedhecke.hecke import HeckeAlgebra
    from gradedhecke.weylgroups import Cocycle

    cocycle = Cocycle(algebra.group, [[Fraction(v) for v in row] for row in rows],
                      normalize=False)
    return HeckeAlgebra(algebra.group, algebra.k, cocycle, mode=algebra.mode)


@pytest.mark.parametrize("make, degree_cap", [
    pytest.param(lambda: build_preset("A2flip-tw"), 2, id="A2flip-tw"),
    pytest.param(lambda: build_preset("G2", mode="r1"), 2, id="G2-r1"),
    pytest.param(lambda: build_preset("A1", k=["0"], mode="k0"), 3, id="A1-k0"),
    pytest.param(lambda: algebra_from_config({"types": [["B", 2]], "k": ["z", "1"],
                                              "cyclotomic_order": 3}), 1, id="B2-cyc3"),
    pytest.param(lambda: _with_cocycle(build_preset("A2flip-tw"), [[1, 1], [1, 2]]), 1,
                 id="A2flip-tw-cocycle-2"),
    pytest.param(lambda: _with_cocycle(build_preset("A2flip-tw"), [[1, 1], [1, 0]]), 1,
                 id="A2flip-tw-cocycle-0"),
])
def test_structure_table_matches_pairwise_products(make, degree_cap):
    """The writer's text is the canonical JSON of the pairwise table."""
    algebra = make()
    assert _structure_json(algebra, degree_cap) == json.dumps(
        _pairwise_table(algebra, degree_cap), sort_keys=True, separators=(",", ":"))


# sha256 of `export --preset P structure --degree-cap 1 --seed 11`, as recorded
# in bench/reference_digests.json
STRUCTURE_EXPORT_SHA256 = {
    "A2flip-tw": "9d448f0a11971f78d41fd707920ea91cec92c770eeba24150723988a22bd9eb1",
    "B2": "5ba3b44f369fc22f15e87bfe559e4492739bea4733c37309dec3812e53be2d50",
    "G2": "4b97de70baa879d9972277886b5d184ade7c2768f7a4749c8538db8fd569e515",
}


@pytest.mark.parametrize("preset", sorted(STRUCTURE_EXPORT_SHA256))
def test_structure_export_bytes_are_pinned(preset, tmp_path, capsys):
    argv = ["export", "--preset", preset, "structure", "--degree-cap", "1", "--seed", "11"]
    out = tmp_path / "structure.json"
    assert run_cli(*argv, "--out", str(out)) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == STRUCTURE_EXPORT_SHA256[preset]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.encode() == data


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


def test_ext_rejects_empty_weight(capsys):
    assert run_cli("ext", "--preset", "A1", "--weight", "") == 2
    assert "''" in _one_line_error(capsys)


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
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [5], "k": ["1"]},
                 id="algebra-types-entry-scalar"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "gamma": [5], "k": ["1"]}, id="algebra-gamma-entry-scalar"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "gamma": [[None, 0]], "k": ["1"]},
                 id="algebra-gamma-position-null"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "gamma": [[True, 0]], "k": ["1"]},
                 id="algebra-gamma-position-bool"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [["A", None]], "k": ["1"]},
                 id="algebra-rank-null"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "central": [1], "k": ["1"]}, id="algebra-central-list"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "cyclotomic_order": "x", "k": ["1"]},
                 id="algebra-order-string"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "cyclotomic_order": 0, "k": ["z"]}, id="algebra-order-zero"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [["A", 2.5]], "k": ["1"]},
                 id="algebra-rank-fractional"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [["A", True]], "k": ["1"]},
                 id="algebra-rank-bool"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "central": 1.5, "k": ["1"]}, id="algebra-central-fractional"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "central": -1, "k": ["1"]}, id="algebra-central-negative"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "cyclotomic_order": True, "k": ["1"]},
                 id="algebra-order-bool"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"], {"types": [["A", 12]], "k": ["1"]},
                 id="algebra-group-size-cap"),
    pytest.param(["export", "--preset", "A2flip-tw", "--cocycle-file", "FILE", "structure"],
                 [["1", "1"], ["1", "0"]], id="cocycle-file-zero-value"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "gamma": [[1, 0]], "k": ["1"],
                  "cocycle": [["1", "1"], ["1", "0"]]}, id="algebra-cocycle-zero-value"),
    pytest.param(["eval", "--algebra-file", "FILE", "x1"],
                 {"types": [["A", 2]], "gamma": [[1, 0]], "k": ["1"],
                  "cocycle": [["0", "1"], ["1", "1"]]}, id="algebra-cocycle-zero-at-identity"),
    pytest.param(["params", _SL3_LEVI, "--v", "5"], None, id="v-scalar"),
    pytest.param(["params", _SL3_LEVI, "--v", '{"E12": null}'], None, id="v-null-coordinate"),
    pytest.param(["params", "FILE"], [1], id="lie-fixture-list"),
    pytest.param(_CLASSIFY_FILE, {"x": 5, "N": {}}, id="module-x-scalar"),
    pytest.param(_CLASSIFY_FILE, [1], id="module-list"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[1]]], "N": {"s1": [[1]]}, "r": "1/0"},
                 id="module-r-zero-denominator"),
    pytest.param(_CLASSIFY_FILE, {"x": [], "N": {}}, id="module-without-matrices"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[1]]], "N": {"s1": [[1, 0], [0, 1]]}},
                 id="module-generator-wrong-size"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[1], [2]]], "N": {"s1": [[-1]]}},
                 id="module-x-not-square"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[-1]]], "N": {"s1": [[-1]], "q7": [[5]]}},
                 id="module-unknown-generator"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[-1]]], "N": {"s1": [[-1]], "g1": [[1]]}},
                 id="module-gamma-generator-without-gamma"),
    pytest.param(_CLASSIFY_FILE, {"x": [[[-1]]], "N": {}}, id="module-missing-generator"),
])
def test_malformed_input_exits_2_with_one_line(argv, content, tmp_path, capsys):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(json.dumps(content))
    assert run_cli(*[str(path) if a == "FILE" else a for a in argv]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("content, message", [
    ({"x": [[[1]]], "N": {"s1": [[1, 0], [0, 1]]}}, "s1 must be 1 x 1"),
    ({"x": [[[1], [2]]], "N": {"s1": [[-1]]}}, "x1 must be 2 x 2"),
    ({"x": [[[-1]]], "N": {"s1": [[-1]], "q7": [[5]]}}, "no generator 'q7'"),
    ({"x": [[[-1]]], "N": {"s1": [[-1]], "g1": [[1]]}}, "no generator 'g1'"),
    ({"x": [[[-1]]], "N": {}}, "no matrix for the generator s1"),
])
def test_module_file_shape_errors_name_the_generator(content, message, tmp_path, capsys):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(content))
    assert run_cli("classify", "--preset", "A1", "--module-file", str(path)) == 2
    assert message in _one_line_error(capsys)


def test_integer_strings_and_integral_numbers_still_parse(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"types": [["A", "2"]], "central": 1.0, "k": ["1"]}))
    assert run_cli("eval", "--algebra-file", str(path), "x1 * N[s1]") == 0
    from_file = capsys.readouterr().out
    path.write_text(json.dumps({"types": [["A", 2]], "central": 1, "k": ["1"]}))
    assert run_cli("eval", "--algebra-file", str(path), "x1 * N[s1]") == 0
    assert capsys.readouterr().out == from_file



def test_fuzzed_algebra_files_exit_0_or_2_without_traceback(tmp_path, capsys):
    """Small valid and malformed algebra files never give a traceback."""
    from hypothesis import given, settings, strategies as st

    junk = st.sampled_from([None, True, False, -1, 0, 5, 2.5, -0.5, "", "A", "z", [0], [1, 2]])
    pair = st.tuples(st.sampled_from("ABCDEFG"), st.integers(0, 4)).map(list)
    types = st.one_of(st.lists(pair, max_size=2), st.lists(st.one_of(pair, junk), max_size=2))
    positions = st.one_of(st.lists(st.integers(-1, 5), max_size=5),
                          st.integers(1, 4).flatmap(lambda n: st.permutations(range(n))))
    gamma = st.one_of(st.lists(positions, max_size=2),
                      st.lists(st.one_of(positions, junk), max_size=2), junk)
    central = st.one_of(st.integers(0, 2), junk)
    k = st.lists(st.sampled_from(["1", "2", "1/2"]), max_size=3)
    path = tmp_path / "algebra.json"

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({"types": types, "k": k},
                                 optional={"gamma": gamma, "central": central}))
    def run(config):
        path.write_text(json.dumps(config))
        code = run_cli("eval", "--algebra-file", str(path), "x1")
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (config, err)

    run()


def test_fuzzed_eval_exit_0_or_2_without_traceback(capsys):
    """Presets, `--k` values and element expressions never give a traceback."""
    from hypothesis import given, settings, strategies as st

    from gradedhecke.presets import PRESETS

    number = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["1/3", "-5/2", "4/6"]))
    bad_number = st.sampled_from(["1/0", "0/0", "-1/0", "", "abc", "z", "1.5", "1//2", "1/",
                                  "/2", "--1"])
    good_k = st.lists(number, min_size=1, max_size=2)
    k = st.one_of(good_k, good_k, st.lists(st.one_of(number, bad_number), min_size=1,
                                           max_size=3)).map(",".join)
    atom = st.sampled_from(["x", "x1", "x2", "r", "N[e]", "N[s]", "N[s1]", "N[s2]",
                            "N[s2*s1]", "N[s1*s2*s1]", "N[g1]", "N[s1*g1]", "1/2", "3",
                            "(-5/2)", "0", "IM(x1*N[s1])", "sgn(N[s1]*x2)", "(x1 - N[s2])"])
    junk = st.sampled_from(["N[", "]", "(", ")", "*", "+", "-", "x3", "x9", "s1", "N[s9]",
                            "N[g5]", "IM(", "sgn", "foo", "@", "7/0", "1/", "N[s1**s2]", "",
                            "x1 x2"])

    exponent = st.one_of(st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(
        ["0", "1", "2", "3", "4097", "99999999", "1/2", "-1", "x", ""]))
    atom = st.one_of(atom, atom, st.tuples(atom, exponent).map(" ^ ".join))

    def joined(part):
        return st.lists(part, min_size=1, max_size=3).flatmap(
            lambda parts: st.sampled_from([" + ".join(parts), " - ".join(parts),
                                           "*".join(parts)]))

    good_expression = joined(joined(atom))
    expression = st.one_of(good_expression, good_expression,
                           joined(joined(st.one_of(atom, junk))))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(PRESETS)), k, expression)
    def run(preset, k_text, text):
        try:
            code = run_cli("eval", "--preset", preset, "--k=" + k_text, text)
        except SystemExit as exit:  # argparse, e.g. on an expression that starts with '-'
            code = exit.code
        captured = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in captured.err, (preset, k_text, text)
        if code == 0:
            assert captured.out.count("\n") == 1

    run()


def test_power_past_the_degree_cap_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert run_cli("eval", "--preset", "A1", "--k", "1", "x ^ 99999999") == 2
    assert time.perf_counter() - start < 1
    assert "power too large" in _one_line_error(capsys)
    # the cap is on the exponent times the base's degree, a constant counting as 1
    for text in ("x ^ 4097", "(x * r) ^ 2049", "N[s] ^ 4097", "2 ^ 4097", "0 ^ 4097",
                 "x ^ " + "9" * 5000):
        assert run_cli("eval", "--preset", "A1", text) == 2, text
        assert f"passes {POWER_DEGREE_CAP}" in _one_line_error(capsys)
    assert run_cli("eval", "--preset", "A1", "(x * r) ^ 2048") == 0
    assert capsys.readouterr().out == "N[e]*(x^2048*r^2048)\n"


def test_large_power_prints_as_before(capsys):
    assert run_cli("eval", "--preset", "A1", "--k", "1", "x ^ 2000") == 0
    assert capsys.readouterr().out == "N[e]*(x^2000)\n"


@pytest.mark.parametrize("preset, base, m", [
    ("A1", "(x + N[s])", 5), ("A1", "(2*x - r*N[s] + 1/3)", 6),
    ("B2", "(x1 + N[s1] - 1/2*r*N[s2])", 4), ("A2flip-tw", "(x1 + N[g1] - N[s2])", 3),
    ("G2", "N[s1*s2]", 7), ("A1", "(x + N[s])", 0)])
def test_power_by_squaring_matches_repeated_products(preset, base, m, capsys):
    assert run_cli("eval", "--preset", preset, f"{base} ^ {m}") == 0
    squared = capsys.readouterr().out
    assert run_cli("eval", "--preset", preset, "*".join([base] * m) if m else "1") == 0
    assert squared == capsys.readouterr().out


def test_fuzzed_ext_weights_exit_0_or_2_without_traceback(capsys):
    """`ext --weight` strings never give a traceback, and an error is one line.

    Most strings give the preset its number of coordinates, so that many get
    past parsing to induction and Ext, singular points included; the rest
    have the wrong length, junk, zero denominators or cyclotomic entries.
    """
    from hypothesis import given, settings, strategies as st

    dims = {"A1": 1, "A2": 2, "B2": 2, "A1xA1swap": 2}
    number = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["1/2", "-5/2", "4/6"]))
    junk = st.sampled_from(["", " ", "1/0", "0/0", "z", "2*z", "x", "1.5", "1e3", "nan",
                            "inf", "1//2", "/2", "--1", "+1", "(1)", "9" * 30])

    @st.composite
    def case(draw):
        preset = draw(st.sampled_from(sorted(dims)))
        n = draw(st.sampled_from([dims[preset]] * 6 + [0, dims[preset] + 1]))
        entry = draw(st.sampled_from([number, number, number, st.one_of(number, junk)]))
        return preset, ",".join(draw(st.lists(entry, min_size=n, max_size=n)))

    @settings(max_examples=60, deadline=None)
    @given(case())
    def run(args):
        preset, text = args
        code = run_cli("ext", "--preset", preset, "--weight=" + text)
        captured = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in captured.err, args
        if code == 2:
            err = captured.err.strip()
            assert err and "\n" not in err, err
        else:
            assert captured.out.count("\n") == 1

    run()


def test_fuzzed_cocycle_files_exit_0_or_2_without_traceback(tmp_path, capsys):
    """`--cocycle-file` tables never give a traceback, and an error is one line.

    Half the tables are normalized and of the twisting group's size, over
    rational presets and a cyclotomic algebra file, with their one free
    value a root of unity, zero, a non-root or junk; the rest have any
    shape.
    """
    from hypothesis import given, settings, strategies as st

    cyclotomic = tmp_path / "cyclotomic.json"
    cyclotomic.write_text(json.dumps({"types": [["A", 2]], "gamma": [[1, 0]], "k": ["1"],
                                      "cyclotomic_order": 4}))
    # source -> (command line, order of the twisting group)
    sources = {"A2flip": (["--preset", "A2flip"], 2),
               "A2flip-tw": (["--preset", "A2flip-tw"], 2),
               "A1xA1swap": (["--preset", "A1xA1swap"], 2),
               "B2": (["--preset", "B2"], 1),
               "order 4": (["--algebra-file", str(cyclotomic)], 2)}
    value = st.sampled_from(["1", "-1", "z", "z^2", "-z", "1/2", "0", "2", 1, -1])
    junk = st.sampled_from([0, 2, None, True, 0.5, "", "1/0", "q", [], {}, [1]])
    entry = st.one_of(value, junk)

    @st.composite
    def case(draw):
        source = draw(st.sampled_from(sorted(sources)))
        n = sources[source][1]
        if draw(st.booleans()):
            rows = [["1"] * n] + [["1"] + [draw(st.one_of(value, value, entry))
                                           for _ in range(n - 1)] for _ in range(n - 1)]
        else:
            row = st.lists(entry, max_size=3)
            rows = draw(st.one_of(st.lists(row, max_size=3),
                                  st.lists(st.one_of(row, entry), max_size=3), entry))
        return source, rows

    path = tmp_path / "cocycle.json"

    @settings(max_examples=80, deadline=None)
    @given(case())
    def run(args):
        source, rows = args
        path.write_text(json.dumps(rows))
        argv, n = sources[source]
        code = run_cli("eval", *argv, "--cocycle-file", str(path),
                       "N[g1] * x1 * N[g1]" if n == 2 else "x1 * N[s1]")
        captured = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in captured.err, args
        if code == 2:
            err = captured.err.strip()
            assert err and "\n" not in err, err

    run()


def test_fuzzed_module_files_exit_0_or_2_without_traceback(tmp_path, capsys):
    """Module files with mixed shapes, junk and fractional scalars and stray generators.

    Most files name the preset's generators, give it its number of x
    matrices and make every matrix square of one drawn size, so that many
    get past parsing to the shape and relation checks.  Every run must exit
    0 or 2 with no traceback, and an error is one line.
    """
    from hypothesis import given, settings, strategies as st

    # preset -> (x matrices, generator names)
    presets = {"A1": (1, ["s1"]), "A2": (2, ["s1", "s2"]), "B2": (2, ["s1", "s2"]),
               "A1xA1swap": (2, ["s1", "s2", "g1"])}
    junk = st.sampled_from([None, True, "", "a", "1/0", [], {}, "z", [[None]]])
    clean = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    dirty = st.one_of(clean, st.sampled_from(["1/2", "-3/2", 0.5, 2.0]), junk)
    stray = st.sampled_from(["s3", "g1", "g2", "s0", "g0", "q7", "s", "", "S1"])

    @st.composite
    def module_file(draw):
        preset = draw(st.sampled_from(sorted(presets)))
        dim, names = presets[preset]
        n = draw(st.integers(0, 3))
        scalar = draw(st.sampled_from([clean, clean, clean, dirty]))

        def table():
            shape = draw(st.sampled_from(["square"] * 8 + ["resized", "ragged", "junk"]))
            if shape == "junk":
                return draw(junk)
            rows = n if shape == "square" else draw(st.sampled_from([n + 1, max(n - 1, 0)]))
            cols = [draw(st.sampled_from([n, n + 1])) if shape == "ragged" else n
                    for _ in range(rows)]
            return [[draw(scalar) for _ in range(c)] for c in cols]

        count = draw(st.sampled_from([dim] * 5 + [0, dim + 1]))
        gens = {name: table() for name in names if draw(st.integers(0, 9))}
        gens.update({draw(stray): table() for _ in range(draw(st.sampled_from([0, 0, 0, 1])))})
        content = {"x": [table() for _ in range(count)], "N": gens}
        if not draw(st.integers(0, 9)):
            content[draw(st.sampled_from(["x", "N"]))] = draw(junk)
        if draw(st.booleans()):
            content["r"] = draw(dirty)
        return preset, content

    path = tmp_path / "module.json"

    @settings(max_examples=150, deadline=None)
    @given(module_file())
    def run(case):
        preset, content = case
        path.write_text(json.dumps(content))
        code = run_cli("classify", "--preset", preset, "--module-file", str(path))
        captured = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in captured.err, case
        if code == 2:
            err = captured.err.strip()
            assert err and "\n" not in err, err

    run()


@pytest.mark.parametrize("v", ['{"E12": 0.1}', '{"E12": true}', '[0, 0.5]'])
def test_params_rejects_inexact_nilpotent(v, capsys):
    assert run_cli("params", _SL3_LEVI, "--v", v) == 2
    assert "not exact" in _one_line_error(capsys)


@pytest.mark.parametrize("field, bad, message", [
    ("weights", [[0], [2.0], [-2], [0]], "expected an exact scalar"),
    ("weights", [[0], [2], [-2], [False]], "expected an exact scalar"),
    ("brackets", {"0,1": {"1": 2.0}}, "expected an exact scalar"),
    ("brackets", {"0,1": {"1": "1/0"}}, "Fraction(1, 0)"),
    ("weights", 5, "not iterable"),
])
def test_params_rejects_inexact_or_malformed_fixture(field, bad, message, tmp_path, capsys):
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    data = json.loads((root / "heisenberg_graded.json").read_text())
    data[field] = bad
    path = tmp_path / "lie.json"
    path.write_text(json.dumps(data))
    assert run_cli("params", str(path), "--v", '{"z": 1}') == 2
    err = _one_line_error(capsys)
    assert err.startswith("fixture error: ") and message in err


def test_params_rejects_a_builder_fixture_with_scalar_blocks(tmp_path, capsys):
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"builder": "sl", "size": 3, "levi_blocks": 5}))
    assert run_cli("params", str(path)) == 2
    assert _one_line_error(capsys).startswith("fixture error: ")


def test_params_accepts_exact_strings(capsys):
    assert run_cli("params", _SL3_LEVI, "--v", '{"E12": "1/2"}') == 0
    assert "invariance: ok" in capsys.readouterr().out
