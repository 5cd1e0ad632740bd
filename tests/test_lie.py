from fractions import Fraction

import pytest

from gradedhecke.lie import CuspidalSupportDescriptor, RootGradedLieAlgebra, _from_matrices, \
    _nilpotency_degree, build_sl, build_so, build_sp, compute_parameters, \
    f4_ratio_admissible, restricted_root_spaces, support_weyl_data


def test_sl2_root_spaces():
    L = build_sl(2, [1, 1])
    spaces = restricted_root_spaces(L)
    assert len(spaces) == 2
    assert all(len(v) == 1 for v in spaces.values())


def test_sl3_levi_two_dimensional_space():
    L = build_sl(3, [2, 1])
    spaces = restricted_root_spaces(L)
    assert sorted(len(v) for v in spaces.values()) == [2, 2]


def test_sp4_torus_four_positive_spaces():
    L = build_sp(4, [1, 1, 1, 1])
    spaces = restricted_root_spaces(L)
    assert len(spaces) == 8  # four positive and their negatives
    assert all(len(v) == 1 for v in spaces.values())


def test_so5_builder():
    L = build_so(5, [1, 1, 1, 1, 1])
    assert L.n == 10
    assert len(restricted_root_spaces(L)) == 8


def test_zero_nilpotent_gives_two():
    for L in (build_sl(2, [1, 1]), build_sl(3, [1, 1, 1]), build_sp(4, [1, 1, 1, 1])):
        values = compute_parameters(L, {})
        assert set(values.values()) == {2}


def test_sl3_levi_parameter_three():
    L = build_sl(3, [2, 1])
    # oracle: ad(E12) maps E23 -> E13 -> 0 inside the positive restricted
    # space, so the nilpotency degree is 2 and the parameter 3
    v = L.parse_vector({"E12": 1})
    e23 = L.parse_vector({"E23": 1})
    step1 = L.bracket(v, e23)
    assert step1 == L.parse_vector({"E13": 1})
    assert L.bracket(v, step1) == {}
    values = compute_parameters(L, {"E12": 1})
    assert set(values.values()) == {3}


def test_merged_space_parameter():
    # Levi gl1 x sp2 inside sp4: restricted roots {a, 2a}; a root vector of
    # the sp2 block climbs the merged 3-dimensional space in two steps
    L = build_sp(4, [1, 2, 1])
    spaces = restricted_root_spaces(L)
    assert sorted(len(v) for v in spaces.values()) == [3, 3]
    # the strictly-upper root vector of the middle block
    values = compute_parameters(L, {"X23.1": 1})
    assert set(values.values()) == {3}


def test_parameters_require_levi_membership():
    L = build_sl(3, [2, 1])
    with pytest.raises(ValueError):
        compute_parameters(L, {"E13": 1})  # nilpotent but not in the Levi


def test_parameters_require_nilpotent():
    L = build_sl(2, [1, 1])
    with pytest.raises(ValueError):
        compute_parameters(L, {"H1": 1})


def test_nilpotency_degree_bounded():
    L = build_sl(3, [2, 1])
    v = L.parse_vector({"E12": 1})
    for idxs in restricted_root_spaces(L).values():
        m = len(idxs)
        # degree <= dimension of the space, by construction of the check
        values = compute_parameters(L, {"E12": 1})
        assert all(k - 1 <= m + 1 for k in values.values())


def test_nilpotency_degree_and_is_nilpotent_share_one_answer():
    shift = [[Fraction(int(j == i + 1)) for j in range(3)] for i in range(3)]
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert _nilpotency_degree(shift) == 3
    assert _nilpotency_degree(swap) is None
    assert _nilpotency_degree([]) == 0
    L = build_sl(3, [1, 1, 1])
    assert L.is_nilpotent(L.parse_vector({"E12": 1, "E23": 1}))
    assert not L.is_nilpotent(L.parse_vector({"H1": 1}))
    with pytest.raises(ValueError, match="v must be ad-nilpotent"):
        compute_parameters(L, {"H1": 1})


def test_bracket_outside_the_basis_is_rejected():
    e12 = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    e21 = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    with pytest.raises(ValueError, match="bracket left the span of the basis"):
        _from_matrices(2, [("E12", e12), ("E21", e21)], [2])


def test_grading_validation():
    # a bracket that violates weight additivity is rejected with the triple
    with pytest.raises(ValueError, match="grading violated"):
        RootGradedLieAlgebra(
            ["h", "e", "f"],
            {(0, 1): {2: Fraction(1)}},             # [h, e] = f: weights clash
            [(Fraction(0),), (Fraction(2),), (Fraction(-2),)],
            [True, False, False], [False, True, False])


def test_jacobi_validation():
    with pytest.raises(ValueError, match="Jacobi"):
        RootGradedLieAlgebra(
            ["a", "b", "c"],
            {(0, 1): {2: Fraction(1)}, (1, 2): {0: Fraction(1)},
             (0, 2): {2: Fraction(1)}},
            [(Fraction(0),)] * 3,
            [True] * 3, [False] * 3)


def test_support_weyl_data_sp4():
    data = support_weyl_data(CuspidalSupportDescriptor(build_sp(4, [1, 1, 1, 1]), {}))
    assert len(data.group) == 8
    assert not data.gamma_truncated
    assert set(data.parameters.values.values()) == {Fraction(2)}


def test_support_weyl_data_truncates_trivial_gamma():
    L = build_sl(3, [2, 1])
    desc = CuspidalSupportDescriptor(L, {"E12": 1}, gamma_perms=[(0,)])
    data = support_weyl_data(desc)
    assert data.gamma_truncated
    assert len(data.group) == 2
    assert set(data.parameters.values.values()) == {Fraction(3)}


def test_support_weyl_data_connected():
    data = support_weyl_data(CuspidalSupportDescriptor(build_sl(3, [2, 1]), {}))
    assert len(data.group) == 2 and not data.gamma_truncated


def test_f4_table():
    assert f4_ratio_admissible(0, 0)
    assert f4_ratio_admissible(7, 0)             # (c, 0)
    assert f4_ratio_admissible(0, 3)             # (0, c)
    for ratio in (1, 2, Fraction(1, 2), 4, -1, -2, Fraction(-1, 2), -4):
        assert f4_ratio_admissible(Fraction(ratio) * 3, 3)
    assert not f4_ratio_admissible(3, 1)
    assert not f4_ratio_admissible(Fraction(1, 3), 1)
    assert not f4_ratio_admissible(5, 2)


@pytest.mark.parametrize("bad", [0.5, True, 1 + 0j])
def test_structure_constants_and_weights_must_be_exact(bad):
    basis, levi, nil = ["h", "e"], [True, False], [False, True]
    with pytest.raises(TypeError, match="exact scalar"):
        RootGradedLieAlgebra(basis, {(0, 1): {1: bad}}, [(0,), (2,)], levi, nil)
    with pytest.raises(TypeError, match="exact scalar"):
        RootGradedLieAlgebra(basis, {(0, 1): {1: 2}}, [(0,), (bad,)], levi, nil)


def test_exact_strings_still_enter_the_lie_layer():
    L = RootGradedLieAlgebra(["h", "e"], {(0, 1): {1: "2"}, (1, 0): {1: "-2"}},
                             [("0",), ("2",)], [True, False], [False, True])
    assert L.weights == [(Fraction(0),), (Fraction(2),)]
    assert L.bracket_basis(0, 1) == {1: Fraction(2)}
    sl3 = build_sl(3, [2, 1])
    assert sl3.parse_vector({"E12": "1/2", "E21": "0"}) == \
        {sl3.basis_names.index("E12"): Fraction(1, 2)}
    assert f4_ratio_admissible("1/2", 1) and f4_ratio_admissible(Fraction(2), "1")


@pytest.mark.parametrize("bad", [0.1, True, False])
def test_nilpotent_coordinates_must_be_exact(bad):
    with pytest.raises(ValueError, match="not exact"):
        build_sl(3, [2, 1]).parse_vector({"E12": bad})
    with pytest.raises(ValueError, match="not exact"):
        compute_parameters(build_sl(3, [2, 1]), [bad])


@pytest.mark.parametrize("args", [(True, 1), (1, True), (0.5, 1), (1, 2.0)])
def test_f4_ratio_rejects_inexact_parameters(args):
    with pytest.raises(TypeError, match="exact scalar"):
        f4_ratio_admissible(*args)
