import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gradedhecke
from gradedhecke.presets import PRESETS, build_preset
from gradedhecke.verification import ALL_SUITES, SuiteResult, random_element, \
    random_homogeneous_element, run_verification


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_all_suites_pass(name):
    algebra = build_preset(name)
    results = run_verification(algebra, seed=2024)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    assert {r.name for r in results} == set(ALL_SUITES)


def test_deterministic_given_seed():
    algebra = build_preset("B2")
    first = run_verification(algebra, seed=5, suites=["associativity"], cases=20)
    second = run_verification(algebra, seed=5, suites=["associativity"], cases=20)
    assert [r.line() for r in first] == [r.line() for r in second]


def test_r1_mode_suites():
    algebra = build_preset("A1", mode="r1")
    results = run_verification(algebra, seed=3,
                               suites=["associativity", "center", "graded-limit",
                                       "modules"])
    assert all(r.passed for r in results)


def test_suite_seeds_do_not_depend_on_string_hashing():
    script = (
        "from gradedhecke.presets import build_preset\n"
        "from gradedhecke.verification import ALL_SUITES, SuiteResult, run_verification\n"
        "ALL_SUITES['probe'] = lambda algebra, rng, cases=None: "
        "SuiteResult('probe', True, repr(rng.random()))\n"
        "print(run_verification(build_preset('A1'), seed=0, suites=['probe'])[0].line())\n")
    src = str(Path(gradedhecke.__file__).parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      capture_output=True, check=True, text=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith("[PASS] probe: 0.")


def test_type_error_inside_a_suite_propagates(monkeypatch):
    calls = []

    def broken(algebra, rng, cases=4):
        calls.append(cases)
        if cases == 3:
            raise TypeError("defect inside the suite")
        return SuiteResult("stub", True, f"{cases} cases")

    monkeypatch.setitem(ALL_SUITES, "stub", broken)
    with pytest.raises(TypeError, match="defect inside the suite"):
        run_verification(build_preset("A1"), seed=0, cases=3, suites=["stub"])
    assert calls == [3]


def test_homology_suite_reports_an_ext_refusal_as_a_failure(monkeypatch):
    """Ext is the binomial row or a ValueError; the suite turns the error into
    a failed result with the weight as witness."""
    from gradedhecke import verification

    def refuse(algebra, weight):
        raise ValueError("the module is not induced at this weight")

    monkeypatch.setattr(verification, "ext_self_induced", refuse)
    (result,) = run_verification(build_preset("A1", mode="r1"), seed=0, suites=["homology"])
    assert not result.passed
    assert result.detail.startswith("Ext at (")
    assert result.detail.endswith("): the module is not induced at this weight")


def test_random_draws_pinned():
    # the suites and acceptance criterion 1 depend on this exact draw order
    b2 = build_preset("B2")
    rng = random.Random(0)
    assert random_element(b2, rng).to_string() == \
        "N[s2*s1*s2]*(-x1) + N[s1*s2*s1*s2]*(1/2*x2)"
    assert random_homogeneous_element(b2, rng).to_string() == \
        "N[s1*s2]*(-2*r) + N[s2*s1]*(-3/2*x1)"
    b2r1 = build_preset("B2", mode="r1")
    rng = random.Random(2)
    assert random_element(b2r1, rng).to_string() == "N[e]*(-3/2) + N[s1*s2*s1]*(3/2)"
    assert random_homogeneous_element(b2r1, rng).to_string() == \
        "N[e]*(3*x1*x2) + N[s2*s1]*(x1*x2)"
