import functools
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
from gradedhecke.presets import PRESETS, algebra_from_config, build_preset
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


def _structure_algebra(preset, mode):
    """The preset in generic or r1 mode, or the crossed product of its generic algebra."""
    if mode == "k0":
        return build_preset(preset).crossed_product()
    return build_preset(preset, mode=mode)


# sha256 of `_structure_json` for every preset in every mode at degree caps 0, 1 and 2,
# as the letter-by-letter writer (one `_move_poly` per (monomial, v)) gave them
STRUCTURE_JSON_SHA256 = {
    ("A1", "generic", 0): "a11f5ab5bf989d4d9a2981eee8a4b57dd1244ff3b9682f8261fc7780e440fe38",
    ("A1", "generic", 1): "1c6e8509ca0faa0c5545f6d99b10a7ed5890bcac2db887b5ca05a731636056b4",
    ("A1", "generic", 2): "355f155c9476bf942665b83b6bd51c6135c150e78ba79025531f918a60ec051f",
    ("A1", "r1", 0): "a11f5ab5bf989d4d9a2981eee8a4b57dd1244ff3b9682f8261fc7780e440fe38",
    ("A1", "r1", 1): "743fb5a21a379e81763688b907455d95907c6624b56112e162b6d69aa6fc61b9",
    ("A1", "r1", 2): "03aa3320c4fb81a86386ee61a53c26121d1ef30e2d089fe7cf7e7b947745289b",
    ("A1", "k0", 0): "a11f5ab5bf989d4d9a2981eee8a4b57dd1244ff3b9682f8261fc7780e440fe38",
    ("A1", "k0", 1): "ca164b36cb902c2f6f25368722ed5567de0af76ceadfa37f961b9d6f3c8991b2",
    ("A1", "k0", 2): "8a2fff59b8d682106fdb47e9437a6bac8c9de8614fa4db2209910eb8fff81e28",
    ("A1xA1", "generic", 0): "76e95fc937b8d172407180bac7403cc8e401ef4eee493a8132fbd3016a42b891",
    ("A1xA1", "generic", 1): "5f747c5eb83949c8782ed644f2c7c8e55c00b4937b7e22e4cf92a62e83989e1f",
    ("A1xA1", "generic", 2): "607a55dfb3994f295fd915968c8a2b991d0fddd7224fd2773ae683328841a698",
    ("A1xA1", "r1", 0): "76e95fc937b8d172407180bac7403cc8e401ef4eee493a8132fbd3016a42b891",
    ("A1xA1", "r1", 1): "1994f82e653d8ac81d7ac6d7d6bed0ed556ad40aae17d184151f486e2ae5adf8",
    ("A1xA1", "r1", 2): "49f405dfc099b867b7e9e26b30293653f081f07f6da8af88d8ab57533d5a8728",
    ("A1xA1", "k0", 0): "76e95fc937b8d172407180bac7403cc8e401ef4eee493a8132fbd3016a42b891",
    ("A1xA1", "k0", 1): "1ae5f1bc36d270be92028ae4ccf4f9724e4cdde8b6cbed124154ac2a77f5fb7b",
    ("A1xA1", "k0", 2): "81d57037174e325513ee7637cc212b11d58f2ca28c7c9f4dbaa6b1b70010c96c",
    ("A1xA1swap", "generic", 0): "5f88f2c7ca534f4686f9885cd78d7bea600fd0e78841bff24a00aa792c1b64b4",
    ("A1xA1swap", "generic", 1): "a0fe9e03e408cb98ab0cb4362bcd8251992775ea7228ea0a7c94f5b6a861c7f5",
    ("A1xA1swap", "generic", 2): "918c56ff209104e6ccbcdf9cbc16b9c0ba34aebfda32ce3f3620a8d634064f0d",
    ("A1xA1swap", "r1", 0): "5f88f2c7ca534f4686f9885cd78d7bea600fd0e78841bff24a00aa792c1b64b4",
    ("A1xA1swap", "r1", 1): "c85e7b48359da4ebb37c4a585ef7924304a9f37425796d920faf032e6da6968d",
    ("A1xA1swap", "r1", 2): "7b0914dc7e4c1648dd2ba17cb3b16a1ac3c3150b8448b4c9bb13367e74d003e0",
    ("A1xA1swap", "k0", 0): "5f88f2c7ca534f4686f9885cd78d7bea600fd0e78841bff24a00aa792c1b64b4",
    ("A1xA1swap", "k0", 1): "43ab8cbdd8fcd3cdabacd817ec56e9b02516687620dd1ae448f1de8ad5a3628d",
    ("A1xA1swap", "k0", 2): "c32af7f86a6092004e4b0808c531a84b2e4718b85eaae1ed76b7c83d6346b227",
    ("A2", "generic", 0): "178bbdcd5b60a5898a64b08633ab8fb70c58ec6609dbb0235dd01b0b973a7b50",
    ("A2", "generic", 1): "9337cf6f0e971f29a41325c3e863a29181fc624ecedbfe18e413893277b6b827",
    ("A2", "generic", 2): "69ea06c5404ca754fb02f3b2908fa6685b5511d3cf348086508e41d2ad6ff3b8",
    ("A2", "r1", 0): "178bbdcd5b60a5898a64b08633ab8fb70c58ec6609dbb0235dd01b0b973a7b50",
    ("A2", "r1", 1): "b48dd8f7709fc5a1cef0514cd3595cfe41d5936155d219c9bff27837c95812d3",
    ("A2", "r1", 2): "dbe2fae099e616bcda21a6f5d5142aa2dfab9ae8ec610f489b292eee3eba96e0",
    ("A2", "k0", 0): "178bbdcd5b60a5898a64b08633ab8fb70c58ec6609dbb0235dd01b0b973a7b50",
    ("A2", "k0", 1): "7d219ae976ae2ce82d290dcd2ad5aace41df2716d3ed1aef2af3537d4765e0f5",
    ("A2", "k0", 2): "1ce635ddabd6a0ed2ef33b4780b954917f628aefa16c069e8b6d8ab4d9a85094",
    ("A2flip", "generic", 0): "5b7b2285ab6bf7ae2fd0bb39f539652db2171ebebf11bf590c2e51927a9fcc27",
    ("A2flip", "generic", 1): "d9950a55b8f8974a111c04f33b4c5aed358a6056fec1ee33950b89c1dc41efd4",
    ("A2flip", "generic", 2): "683d02ff3c4141d553cbcdd6619b644771695e733a6c774e8afbd7690ba16041",
    ("A2flip", "r1", 0): "5b7b2285ab6bf7ae2fd0bb39f539652db2171ebebf11bf590c2e51927a9fcc27",
    ("A2flip", "r1", 1): "8b0d271eaef3f5163800c15b677562958ee6f5492e499f44f43843cdd51a7840",
    ("A2flip", "r1", 2): "196087f1223e0b660a36eab5a11bce2350a76c520755028d7036a853634a1f67",
    ("A2flip", "k0", 0): "5b7b2285ab6bf7ae2fd0bb39f539652db2171ebebf11bf590c2e51927a9fcc27",
    ("A2flip", "k0", 1): "e3b10becfb385c17bb95f552afb5890b6e1fc8dbcbdda47d50374f28bf562a33",
    ("A2flip", "k0", 2): "147c677408133492ae7c020ca665f190b3037a0b146402a3832916aab4c8a869",
    ("A2flip-tw", "generic", 0): "c84cc435a02251023f865ab2fe430b2249cfadf10717cf88014ce7876a2a75e6",
    ("A2flip-tw", "generic", 1): "851db5e32e7405b9d8e757d37ace36e32fd7238f87e383ff8d4991a40b2b37cd",
    ("A2flip-tw", "generic", 2): "17cbc16e14305c9e51d9bacf18891235dfd5f6703d7e87e34d6423f0675aa857",
    ("A2flip-tw", "r1", 0): "c84cc435a02251023f865ab2fe430b2249cfadf10717cf88014ce7876a2a75e6",
    ("A2flip-tw", "r1", 1): "69b34a2f0f1fec72abec57e5df47048cfdc5cb89c8357c3bef759095e365b244",
    ("A2flip-tw", "r1", 2): "57ba47df8adc688804fe394df99695b247cf8c396067fbe652a8d8ee8230f3a5",
    ("A2flip-tw", "k0", 0): "c84cc435a02251023f865ab2fe430b2249cfadf10717cf88014ce7876a2a75e6",
    ("A2flip-tw", "k0", 1): "24ff6df62a9fcdfdcd2968e0c423de56eccf02fe78410fe2382c5f0178aa4e0b",
    ("A2flip-tw", "k0", 2): "841b9a828879a10bda5a48f5daba3c4c97c2ef2fc2919b7401beb355402313de",
    ("B2", "generic", 0): "9c37b39a3a3c9f05f489230b75d84e3561e06fc693ddf453d3b55d3bc94b05be",
    ("B2", "generic", 1): "7df10d4e624192dbb7a2d468dd426e2d0291054d56c8a60fa52c25f97399d2f0",
    ("B2", "generic", 2): "2ae0bc592f8e6316fa93e13ce180fa208cf8f5a06d5098e5a542b65b2609af72",
    ("B2", "r1", 0): "9c37b39a3a3c9f05f489230b75d84e3561e06fc693ddf453d3b55d3bc94b05be",
    ("B2", "r1", 1): "6b231b083bfbf6791a90c07f71fef7952a2e4aa0ccec9179e5eed0e8ff47a8c8",
    ("B2", "r1", 2): "976c4927ea2eae50f70a0e42096081a2f35b804fcc42aa5e0211d83064747fdf",
    ("B2", "k0", 0): "9c37b39a3a3c9f05f489230b75d84e3561e06fc693ddf453d3b55d3bc94b05be",
    ("B2", "k0", 1): "de7d52c39725210cbfab440bf6dc46ecebb1a3bc1bbaf04cb17f5641923b2174",
    ("B2", "k0", 2): "b34b9047805301e54b20fc38129e4baf6a19983a4cdc20e537aa4efc4faeba67",
    ("G2", "generic", 0): "5c0d7d8d593e0d26629c82da9a7041def5d84dedc9a9a70e82d0c0c6902aefb1",
    ("G2", "generic", 1): "f080173cb8da52ad2dd293a2350876079ed6f43c406746cc913d6fb54e3de973",
    ("G2", "generic", 2): "168d6ed85c9677cbf1d1a53255672d1e3dc5c616d73403b841c44b19fd7b9680",
    ("G2", "r1", 0): "5c0d7d8d593e0d26629c82da9a7041def5d84dedc9a9a70e82d0c0c6902aefb1",
    ("G2", "r1", 1): "cb8f3b7d9fcc2784fca5066dec0597d74aca9a16ac09116ce1d7ea8b108054be",
    ("G2", "r1", 2): "43dc3121d211e38ad37e9152c7cd9cb3755b38deb6477c4482b663978c278540",
    ("G2", "k0", 0): "5c0d7d8d593e0d26629c82da9a7041def5d84dedc9a9a70e82d0c0c6902aefb1",
    ("G2", "k0", 1): "e854ee9b8166c8fc8df0ea23466d91f1e9f5bc7cc65771f8c747aa8ed12305b7",
    ("G2", "k0", 2): "cffade00057807a17e0415c76555c31c49261ed7b2327a5413f8518ac820e4b8",
}


@pytest.mark.parametrize("preset, mode, degree_cap", sorted(STRUCTURE_JSON_SHA256))
def test_structure_tables_are_pinned(preset, mode, degree_cap):
    text = _structure_json(_structure_algebra(preset, mode), degree_cap)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        STRUCTURE_JSON_SHA256[preset, mode, degree_cap]


def _walk_cases():
    for preset in sorted(PRESETS):
        for mode in ("generic", "r1", "k0"):
            yield pytest.param(functools.partial(_structure_algebra, preset, mode),
                               id=f"{preset}-{mode}")
    yield pytest.param(lambda: build_preset("B2", k=["1/3", "5/2"]), id="B2-k-1/3-5/2")
    yield pytest.param(lambda: build_preset("B2", k=["1/3", "5/2"], mode="r1"),
                       id="B2-k-1/3-5/2-r1")
    yield pytest.param(lambda: algebra_from_config({"types": [["B", 2]], "k": ["z", "1"],
                                                    "cyclotomic_order": 3}), id="B2-cyc3")


@pytest.mark.parametrize("make", _walk_cases())
def test_prefix_walk_reaches_the_letter_by_letter_moves(make):
    """The state the export reaches at v from its prefix's state is the one
    `_move_poly` reaches along v's whole word, for every monomial of degree
    at most 2."""
    from gradedhecke.polynomials import Polynomial

    algebra = make()
    nv = algebra.nvars
    max_var = nv if algebra.mode != "r1" else nv - 1
    for expo in itertools.product(range(3), repeat=max_var):
        if sum(expo) > 2:
            continue
        a = expo + (0,) * (nv - max_var)
        states = algebra._prefix_moves(a)
        assert len(states) == len(algebra.group)
        for v, (den, state) in zip(algebra.group.elements, states):
            want = algebra._move_poly(Polynomial(nv, {a: Fraction(1)}), v)
            assert (den, {t: q for t, q in state.items() if q}) == want, (a, v)


@pytest.mark.parametrize("preset", ["A2flip-tw", "G2", "A1xA1swap"])
def test_structure_export_moves_one_letter_per_group_element(preset, monkeypatch):
    """Each x^a N_v is its prefix's state moved through one generator: one
    `_move_word` call of one letter per monomial and non-identity v, and no
    `_move_poly` or group product."""
    from gradedhecke.weylgroups import ExtendedWeylGroup

    algebra = build_preset(preset)
    letters = []
    move_word = algebra._move_word

    def counted(den, state, word):
        letters.append(len(word))
        return move_word(den, state, word)

    def refused(*args):
        raise AssertionError("the export moved a polynomial along a whole word")

    monkeypatch.setattr(algebra, "_move_word", counted)
    monkeypatch.setattr(algebra, "_move_poly", refused)
    monkeypatch.setattr(ExtendedWeylGroup, "multiply", refused)
    text = _structure_json(algebra, 2)
    monomials = len(json.loads(text)["basis"]) // len(algebra.group)
    assert letters == [1] * (monomials * (len(algebra.group) - 1))


def test_structure_table_past_the_entry_cap_is_refused_before_any_work(monkeypatch, capsys):
    from gradedhecke.cli import STRUCTURE_ENTRY_CAP
    from gradedhecke.hecke import HeckeAlgebra

    assert STRUCTURE_ENTRY_CAP == 200_000

    def refused(*args):
        raise AssertionError("the export straightened before checking its size")

    monkeypatch.setattr(HeckeAlgebra, "_move_word", refused)
    monkeypatch.setattr(HeckeAlgebra, "_step", refused)
    # G2 generic at cap 5: 12 elements times 56 monomials in x1, x2, r, squared
    with pytest.raises(ValueError, match="451584 entries, over the cap of 200000"):
        _structure_json(build_preset("G2"), 5)
    start = time.perf_counter()
    assert run_cli("export", "--preset", "G2", "structure", "--degree-cap", "30") == 2
    assert time.perf_counter() - start < 1
    err = _one_line_error(capsys)
    assert "over the cap of 200000" in err and "degree cap 30" in err
    assert capsys.readouterr().out == ""


# sha256 of `export --preset P --mode M ext` and the `ext --preset P --mode M` line, as
# the elimination on the whole Koszul block complex gave them
EXT_EXPORT_SHA256 = {
    ("A1", "generic"): "9fbd22d41020a5150e1d8a485be30814d668403723d350b02c09360096c4bc3d",
    ("A1", "r1"): "ca2821414517aca87521e58672cccbc260e59203e9bf9695376cc02296c238f4",
    ("A1xA1", "generic"): "b7a8d64d19869ce38808208ffe997274b50cbcb7eb0f172cf9d27e705007ec2f",
    ("A1xA1", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("A1xA1swap", "generic"): "f0dd20415399cd9e6c144ccc4ed7187b31da7960fe1fd6d9eef073d364f28830",
    ("A1xA1swap", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("A2", "generic"): "858b5a74942dce7e3a5f5c10aff255a9cba5639e6de055b1137d4b6db8bae018",
    ("A2", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("A2flip", "generic"): "841652ce12a55ab028cb7226269f86b77253081b7b622a2eebe8a9f6f452605b",
    ("A2flip", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("A2flip-tw", "generic"): "841652ce12a55ab028cb7226269f86b77253081b7b622a2eebe8a9f6f452605b",
    ("A2flip-tw", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("B2", "generic"): "f0dd20415399cd9e6c144ccc4ed7187b31da7960fe1fd6d9eef073d364f28830",
    ("B2", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
    ("G2", "generic"): "841652ce12a55ab028cb7226269f86b77253081b7b622a2eebe8a9f6f452605b",
    ("G2", "r1"): "03907913adee653ffb756d7d2d7971f597191065f41c4b0368368bd37136e432",
}
EXT_LINE_RANK_ONE = '{"0": 1, "1": 2, "2": 1}'
EXT_LINE_RANK_TWO = '{"0": 1, "1": 3, "2": 3, "3": 1}'


@pytest.mark.parametrize("preset, mode", sorted(EXT_EXPORT_SHA256))
def test_ext_outputs_are_pinned(preset, mode, capsys):
    assert run_cli("export", "--preset", preset, "--mode", mode, "ext") == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == EXT_EXPORT_SHA256[preset, mode]
    assert run_cli("ext", "--preset", preset, "--mode", mode) == 0
    want = EXT_LINE_RANK_ONE if preset == "A1" else EXT_LINE_RANK_TWO
    assert capsys.readouterr().out == want + "\n"


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


def _square_and_multiply(base, m):
    out = base.algebra.one()
    while m:
        if m & 1:
            out = out * base
        m >>= 1
        if m:
            base = base * base
    return out


@pytest.mark.parametrize("preset, base, exponents", [
    ("A1", "x + N[s]", (0, 1, 2, 7)),
    ("A1", "x", (0, 1, 13)),
    ("B2", "x1 + x2 + N[s1] + N[s2] + r", (3, 6)),
    ("B2", "x1*N[s1]", (5,)),
    ("G2", "x1 + N[s1] + N[s2]", (1, 5, 8)),
    ("G2", "N[s1*s2]", (6, 7)),
    ("G2", "N[s1*s2]*x1", (3, 16)),
    ("G2", "3/2", (0, 5, 64)),
    ("A2flip-tw", "x1*N[s1] + N[g1] + x2", (2, 5)),
    ("A1xA1swap", "N[g1]*x1 - 1/2*N[s2]", (4,)),
])
def test_power_matches_square_and_multiply(preset, base, exponents):
    from gradedhecke.expressions import _power, parse_element

    algebra = build_preset(preset)
    element = parse_element(algebra, base)
    for m in exponents:
        assert _power(element, m).to_string() == \
            _square_and_multiply(element, m).to_string(), m


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
