"""
Acceptance criteria, one test per criterion, each printing a PASS line.

Counts and runtime budgets are pinned here and not configurable:
  1. associativity, 500 homogeneous triples per preset, < 60 s each
  2. the rank-one braid normal form, exactly
  3. centrality of invariants up to degree 4, with a failing witness
  4. isomorphism laws, 200 random elements each
  5. leading terms against the crossed product, 200 pairs
  6. geometric parameters from the matrix Lie algebras
  7. induced-module weights (20 regular points per preset) and the rank-one
     classification with its matching, < 30 s
  8. Ext tables and Koszul-dual dimensions, < 120 s
  9. byte-identical export runs
"""

import json
import random
import time
import zlib
from fractions import Fraction

import pytest

from gradedhecke.cli import main as cli_main
from gradedhecke.expressions import parse_element
from gradedhecke.groupalgebra import TwistedGroupAlgebra
from gradedhecke.homology import ext_self_induced, koszul_dual_dims
from gradedhecke.lie import build_sl, build_sp, compute_parameters, f4_ratio_admissible
from gradedhecke.modules import classify_rank_one, induce_from_character, is_regular, \
    restrict_to_group_algebra, weight_decomposition, weight_multiset_oracle, \
    zeta_rank_one
from gradedhecke.presets import build_preset
from gradedhecke.verification import invariant_polynomials, random_element, \
    random_homogeneous_element

PRESET_LIST = ["A1", "A2", "B2", "G2", "A1xA1", "A2flip", "A2flip-tw"]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_associativity():
    for name in PRESET_LIST:
        algebra = build_preset(name)
        rng = random.Random(1000 + zlib.crc32(name.encode()) % 1000)
        start = time.time()
        for i in range(500):
            a = random_homogeneous_element(algebra, rng)
            b = random_homogeneous_element(algebra, rng)
            c = random_homogeneous_element(algebra, rng)
            assert (a * b) * c == a * (b * c), f"{name} triple {i}"
        elapsed = time.time() - start
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        print(f"  {name}: 500 triples in {elapsed:.1f}s")
    _report(1, "500 exact associativity triples on all seven presets")


def test_criterion_2_braid_fixture():
    algebra = build_preset("A1", k=["1"])
    lhs = parse_element(algebra, "x * N[s]")
    rhs = algebra.r().scale(Fraction(2)) + algebra.N(0) * algebra.x(0).scale(-1)
    assert lhs == rhs
    assert lhs.to_string() == "N[e]*(2*r) + N[s]*(-x)"
    # the coefficient scales with k
    algebra3 = build_preset("A1", k=["3"])
    lhs3 = parse_element(algebra3, "x * N[s]")
    assert lhs3.coefficient(algebra3.group.identity) == \
        algebra3.r().scale(Fraction(6)).coefficient(algebra3.group.identity)
    _report(2, "x * N_s = N_e (2 k r) + N_s (-x) exactly")


def test_criterion_3_center():
    for name in PRESET_LIST:
        algebra = build_preset(name, mode="r1")
        invariants = invariant_polynomials(algebra, max_degree=4)
        assert invariants, name
        for p in invariants:
            ok, witness = algebra.is_central(algebra.poly(p))
            assert ok, f"{name}: invariant fails against {witness.to_string()}"
        ok, witness = algebra.is_central(algebra.x(0))
        assert not ok and witness is not None, name
    _report(3, "degree <= 4 invariants central in r = 1 mode; coordinate "
               "rejected with witness")


def test_criterion_4_isomorphisms():
    cases = 200
    algebra = build_preset("B2", k=["-2", "3"])
    rng = random.Random(44)
    z = Fraction(3)
    eps = next(e for e in algebra.group.epsilon_characters()
               if e.signs == (-1, 1))
    positives = algebra.k.twisted(eps).simple_values()
    assert positives == [Fraction(2), Fraction(3)]
    for _ in range(cases):
        a = random_element(algebra, rng)
        b = random_element(algebra, rng)
        assert algebra.im_involution(algebra.im_involution(a)) == a
        assert algebra.sgn_involution(algebra.sgn_involution(a)) == a
        mza = algebra.scale_iso(z, a)
        assert mza.algebra.scale_iso(1 / z, mza, target=algebra) == a
        pa = algebra.phi_epsilon(eps, a)
        pb = algebra.phi_epsilon(eps, b)
        assert algebra.phi_epsilon(eps, a * b) == pa.algebra.multiply(pa, pb)
    _report(4, "m_z round trips, IM^2 = sgn^2 = id, phi_eps a homomorphism, "
               "sign twist positivizes (-2, 3)")


def test_criterion_5_graded_limit():
    algebra = build_preset("B2", mode="r1")
    target = algebra.crossed_product()
    rng = random.Random(55)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 4000
        a = random_element(algebra, rng)
        b = random_element(algebra, rng)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        if algebra.filtration_degree(ab) != \
                algebra.filtration_degree(a) + algebra.filtration_degree(b):
            continue
        lt = algebra.leading_term(ab)
        assert lt == target.multiply(algebra.leading_term(a),
                                     algebra.leading_term(b))
        checked += 1
    _report(5, f"200 non-cancelling pairs match the crossed product "
               f"({attempts} sampled)")


def test_criterion_6_parameters():
    for build, size, blocks in ((build_sl, 2, [1, 1]), (build_sl, 3, [1, 1, 1]),
                                (build_sp, 4, [1, 1, 1, 1])):
        L = build(size, blocks)
        assert set(compute_parameters(L, {}).values()) == {2}
    levi = build_sl(3, [2, 1])
    assert set(compute_parameters(levi, {"E12": 1}).values()) == {3}
    # the admissible two-length ratio table
    admitted = [(0, 0), (3, 0), (0, 3), (3, 3), (6, 3), (Fraction(3, 2), 3),
                (12, 3), (-3, 3), (-6, 3), (Fraction(-3, 2), 3), (-12, 3)]
    for ks, kl in admitted:
        assert f4_ratio_admissible(ks, kl), (ks, kl)
    for ks, kl in ((1, 3), (5, 3), (9, 3), (7, 2)):
        assert not f4_ratio_admissible(ks, kl), (ks, kl)
    _report(6, "v = 0 gives k = 2 on sl2/sl3/sp4; the Levi example gives 3; "
               "ratio table enforced")


def test_criterion_7_modules():
    start = time.time()
    for name in ["A1", "A2", "B2", "G2", "A1xA1", "A2flip"]:
        algebra = build_preset(name, mode="r1")
        rng = random.Random(700 + len(name))
        for _ in range(20):
            while True:
                lam = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2]))
                            for _ in range(algebra.rs.dim))
                if is_regular(algebra, lam):
                    break
            module = induce_from_character(algebra, lam)
            got = sorted(d.weight for d in weight_decomposition(module)
                         for _ in range(d.multiplicity))
            assert got == weight_multiset_oracle(algebra, lam), (name, lam)

    A1 = build_preset("A1", k=["1"], mode="r1")
    records = {r.label: r for r in classify_rank_one(A1)}
    st, pi0, tv = records["Steinberg"], records["pi_0"], records["trivial"]
    assert st.weights[0].weight == (Fraction(-1),)
    assert st.tempered and st.discrete_series
    assert pi0.weights[0].weight == (Fraction(0),) and pi0.tempered \
        and not pi0.discrete_series
    assert tv.weights[0].weight == (Fraction(1),) and not tv.tempered

    table, zeta, rows = zeta_rank_one(A1)
    # triangular unipotent: in peeling order each row adds one new constituent
    assert rows["Steinberg"] == [0, 1] or rows["Steinberg"] == [1, 0]
    assert rows["pi_0"] == [1, 1]
    assert zeta["Steinberg"].label() == "sgn"
    assert zeta["pi_0"].label() == "triv"

    elapsed = time.time() - start
    assert elapsed < 30, f"module suite took {elapsed:.1f}s"
    _report(7, f"weights, classification and matching in {elapsed:.1f}s")


def test_criterion_8_homology():
    start = time.time()
    for name, expected in (("A1", (1, 2, 1)), ("B2", (1, 3, 3, 1))):
        algebra = build_preset(name, mode="r1")
        rng = random.Random(88)
        top = algebra.rs.dim + 1
        for _ in range(5):
            while True:
                lam = tuple(Fraction(rng.randint(-9, 9))
                            for _ in range(algebra.rs.dim))
                if is_regular(algebra, lam):
                    break
            table = ext_self_induced(algebra, lam)
            assert table.as_tuple() == expected, (name, lam)
            assert table.dims[top] == 1
            assert all(v == 0 for n, v in table.dims.items() if n > top)
    for kval, mode in (("0", "k0"), ("1", "generic"), ("-1", "generic"),
                       ("3", "generic")):
        a1 = build_preset("A1", k=[kval], mode=mode)
        assert koszul_dual_dims(a1) == {0: 2, 1: 4, 2: 2}
        a2 = build_preset("A2", k=[kval], mode=mode)
        assert koszul_dual_dims(a2) == {0: 6, 1: 18, 2: 18, 3: 6}
    elapsed = time.time() - start
    assert elapsed < 120, f"homology suite took {elapsed:.1f}s"
    _report(8, f"Ext tables and dual dimensions in {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for run in range(2):
        path = tmp_path / f"run{run}.json"
        code = cli_main(["export", "--preset", "A2flip-tw", "structure",
                         "--degree-cap", "1", "--seed", "11", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]
    json.loads(outputs[0])  # and it is valid JSON
    _report(9, "byte-identical export across runs")
