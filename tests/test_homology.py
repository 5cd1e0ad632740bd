import random
import zlib
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from gradedhecke.homology import _contraction_grids, _koszul_cohomology_dims, _poly_mat_mul, \
    ext_self_induced, generic_point_exactness, koszul_dual_dims, koszul_resolution, \
    projective_resolution_H0
from gradedhecke.linalg import block_matrix, identity, mat_add, mat_mul, mat_scale, mat_sub, \
    matrix, rank, zero_matrix
from gradedhecke.modules import FiniteDimModule, induce_from_character, is_regular
from gradedhecke.polynomials import Polynomial
from gradedhecke.presets import PRESETS, build_preset
from gradedhecke.rootdata import RootSystem
from gradedhecke.weylgroups import ExtendedWeylGroup, ParameterFunction
from gradedhecke.hecke import HeckeAlgebra


def test_koszul_shapes():
    assert koszul_resolution(1).ranks == [1, 1]
    assert koszul_resolution(2).ranks == [1, 2, 1]
    assert koszul_resolution(3).ranks == [1, 3, 3, 1]


def test_koszul_d_squared_zero():
    for m in (1, 2, 3, 4):
        koszul_resolution(m).validate()  # raises on failure


def test_generic_point_exactness():
    c = koszul_resolution(3)
    assert generic_point_exactness(c, (Fraction(2), Fraction(3), Fraction(7)))
    # at the origin every differential vanishes: nothing is exact
    degenerate = c.evaluate((Fraction(0),) * 3)
    assert degenerate.homology_dims() == c.ranks


def test_evaluated_complex_to_json_prints_fractions():
    complex_ = koszul_resolution(2)
    assert complex_.to_json()["differentials"][0] == [["x1", "r"]]
    evaluated = complex_.evaluate((Fraction(1, 2), Fraction(3)))
    assert evaluated.to_json() == {"ranks": [1, 2, 1],
                                   "differentials": [[["1/2", "3"]], [["-3"], ["1/2"]]]}


def test_ext_dims_a1():
    H = build_preset("A1", mode="r1")
    table = ext_self_induced(H, (Fraction(1),))
    assert table.as_tuple() == (1, 2, 1)
    assert table.to_json() == {"0": 1, "1": 2, "2": 1}


def test_ext_dims_b2():
    H = build_preset("B2", mode="r1")
    table = ext_self_induced(H, (Fraction(1), Fraction(3)))
    assert table.as_tuple() == (1, 3, 3, 1)


def test_ext_matches_binomials_under_sign_twists():
    # isomorphism invariance over mixed-sign parameters
    for kvals in (["1"], ["-1"], ["3"]):
        H = build_preset("A1", k=kvals, mode="r1")
        for lam in ((Fraction(1),), (Fraction(5, 2),)):
            assert ext_self_induced(H, lam).as_tuple() == (1, 2, 1)
    for kvals in (["2", "1"], ["-2", "1"], ["2", "-1"]):
        H = build_preset("B2", k=kvals, mode="r1")
        assert ext_self_induced(H, (Fraction(2), Fraction(5))).as_tuple() == (1, 3, 3, 1)


def test_ext_vanishing_and_nonvanishing():
    # nonzero at n = dim t + 1 and zero beyond: the global-dimension probes
    H = build_preset("A1", mode="r1")
    table = ext_self_induced(H, (Fraction(2),))
    top = H.rs.dim + 1
    assert table.dims[top] == 1
    assert all(v == 0 for n, v in table.dims.items() if n > top)


def cochain_dims_oracle(ops):
    """dim H^t of the Koszul cochain complex on M, built subset by subset.

    delta(v, S) = sum over i not in S of sign * (A_i v, S + i), the sign
    being (-1) to the position of i in S + i.  The operators are
    `linalg.Matrix` values; the oracle works on their Fraction entries.
    """
    ops = [op.fractions() for op in ops]
    n, m = len(ops[0]), len(ops)
    levels = [list(combinations(range(m), t)) for t in range(m + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    deltas = []
    for t in range(m):
        mat = [[Fraction(0)] * (len(levels[t]) * n) for _ in range(len(levels[t + 1]) * n)]
        for jS, S in enumerate(levels[t]):
            for i in range(m):
                if i in S:
                    continue
                T = tuple(sorted(S + (i,)))
                sign = Fraction(-1) ** T.index(i)
                iT = index[t + 1][T]
                for a in range(n):
                    for b in range(n):
                        mat[iT * n + a][jS * n + b] += sign * ops[i][a][b]
        deltas.append(mat)
    for t in range(m - 1):
        assert not any(any(row) for row in mat_mul(matrix(deltas[t + 1]), matrix(deltas[t])))
    ranks = [rank(matrix(d)) for d in deltas] + [0]
    return [len(levels[t]) * n - ranks[t] - (ranks[t - 1] if t else 0)
            for t in range(m + 1)]


def test_koszul_builder_matches_cochain_oracle_on_an_asymmetric_row():
    e12 = matrix([[Fraction(int((a, b) == (0, 1))) for b in range(3)] for a in range(3)])
    e13 = matrix([[Fraction(int((a, b) == (0, 2))) for b in range(3)] for a in range(3)])
    assert cochain_dims_oracle([e12, e13]) == [1, 3, 2]
    assert _koszul_cohomology_dims([e12, e13]) == [1, 3, 2]


def test_koszul_builder_matches_cochain_oracle_on_random_commuting_ops():
    # two commuting families: sums of E_12..E_1n, and polynomials in one matrix
    rng = random.Random(11)
    for case in range(30):
        n = rng.randint(2, 4)
        base = matrix([[Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)]
                       for _ in range(n)])
        ops = []
        for _ in range(rng.randint(1, 3)):
            if case % 2:
                op = zero_matrix(n, n)
                for p in (identity(n), base, mat_mul(base, base)):
                    op = mat_add(op, mat_scale(p, Fraction(rng.randint(-2, 2))))
            else:
                op = matrix([[0] + [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)]]
                            + [[0] * n for _ in range(n - 1)])
            ops.append(op)
        assert _koszul_cohomology_dims(ops) == cochain_dims_oracle(ops)


def _block_differentials(ops):
    """The block differentials of K (x) M, built as `_koszul_cohomology_dims` builds them."""
    n = len(ops[0])
    grids = _contraction_grids([(a, mat_scale(a, -1)) for a in ops], zero_matrix(n, n))
    return [block_matrix(grid) for grid in grids]


@pytest.mark.parametrize("name, lam", [("A1", (3,)), ("B2", (1, 3)), ("G2", (1, 4)),
                                       ("A2flip-tw", (1, 4))])
def test_block_differentials_square_to_zero_on_ext_operators(name, lam):
    """The d . d product the Ext path does not form, as an oracle: on the shifted
    x operators of an induced module it vanishes, and the dimensions match the
    cochain oracle."""
    H = build_preset(name, mode="r1")
    mod = induce_from_character(H, lam)
    n = mod.dim
    ops = [mat_sub(x, mat_scale(identity(n), c)) for x, c in zip(mod.x_matrices, lam)]
    ops.append(zero_matrix(n, n))
    blocks = _block_differentials(ops)
    for a, b in zip(blocks, blocks[1:]):
        assert not any(any(row) for row in mat_mul(a, b))
    assert _koszul_cohomology_dims(ops) == cochain_dims_oracle(ops)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_ext_without_the_zero_r_block_matches_the_full_complex(name):
    """ext_self_induced builds the complex on the d shifted x operators and
    multiplies by (1 + t); the oracle keeps R - r = 0 as an operator block."""
    H = build_preset(name, mode="r1")
    rng = random.Random(zlib.crc32(f"ext-zero-block-{name}".encode()))
    found = 0
    while found < 2:
        lam = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(H.rs.dim))
        if not is_regular(H, lam):
            continue
        found += 1
        mod = induce_from_character(H, lam)
        n = mod.dim
        ops = [mat_sub(x, mat_scale(identity(n), c)) for x, c in zip(mod.x_matrices, lam)]
        full = _koszul_cohomology_dims(ops + [zero_matrix(n, n)])
        table = ext_self_induced(H, lam, module=mod)
        assert [table.dims[t] for t in range(H.rs.dim + 2)] == full
        assert sorted(table.dims) == list(range(H.rs.dim + 2))
        assert full == [comb(H.rs.dim + 1, t) for t in range(H.rs.dim + 2)]


def test_block_d_squared_is_the_commutator():
    """d_0 d_1 on two operators is A_2 A_1 - A_1 A_2: zero exactly when they commute."""
    a = matrix([[0, 1], [0, 0]])
    b = matrix([[0, 0], [1, 0]])
    d0, d1 = _block_differentials([a, b])
    assert mat_mul(d0, d1) == mat_sub(mat_mul(b, a), mat_mul(a, b))
    assert mat_mul(d0, d1) != zero_matrix(2, 2)


def test_ext_rejects_a_module_that_is_not_the_induced_one():
    B2, G2 = build_preset("B2", mode="r1"), build_preset("G2", mode="r1")
    mod = induce_from_character(B2, (1, 3))
    assert ext_self_induced(B2, (1, 3), module=mod).as_tuple() == (1, 3, 3, 1)
    with pytest.raises(ValueError, match="not induced at this weight"):
        ext_self_induced(B2, (2, 5), module=mod)
    with pytest.raises(ValueError, match="incompatible algebra"):
        ext_self_induced(B2, (1, 3), module=induce_from_character(G2, (1, 3)))
    small = FiniteDimModule(B2, [[[1]], [[3]]], {("s", 0): [[1]], ("s", 1): [[1]]},
                            validate=False)
    with pytest.raises(ValueError, match="dimension 1"):
        ext_self_induced(B2, (1, 3), module=small)


def test_ext_requires_regular_weight():
    H = build_preset("A1", mode="r1")
    with pytest.raises(ValueError):
        ext_self_induced(H, (Fraction(0),))


def test_gamma_does_not_change_ext_dims():
    """Crossed products with a twisting group keep the same Ext dimensions."""
    plain = build_preset("A1xA1", k=["1", "1"], mode="r1")
    swapped = build_preset("A1xA1swap", mode="r1")
    lam = (Fraction(1), Fraction(4))
    t_plain = ext_self_induced(plain, lam)
    t_swap = ext_self_induced(swapped, lam)
    assert t_plain.as_tuple() == t_swap.as_tuple() == (1, 3, 3, 1)


def test_koszul_dual_dims():
    H = build_preset("A1")
    assert koszul_dual_dims(H) == {0: 2, 1: 4, 2: 2}
    A2 = build_preset("A2")
    assert koszul_dual_dims(A2) == {0: 6, 1: 18, 2: 18, 3: 6}


def test_koszul_dual_rank_zero():
    rs = RootSystem([], central_dim=0)
    g = ExtendedWeylGroup(rs)
    H = HeckeAlgebra(g, ParameterFunction(g, {}))
    assert koszul_dual_dims(H) == {0: 1, 1: 1}


def test_koszul_dual_independent_of_k_and_cocycle():
    base = None
    for kv, mode in ((["0"], "k0"), (["1"], "generic"), (["-1"], "generic"),
                     (["3"], "generic")):
        H = build_preset("A2flip", k=kv, mode=mode)
        dims = koszul_dual_dims(H)
        base = base or dims
        assert dims == base
    twisted = build_preset("A2flip-tw")
    assert koszul_dual_dims(twisted) == base
    assert base == {n: comb(3, n) * 12 for n in range(4)}


def test_projective_resolution_properties():
    H = build_preset("A1")
    res = projective_resolution_H0(H)
    assert res.ranks == [comb(2, n) for n in range(3)]
    # entries are homogeneous of degree two: the generation-degree witness
    for m in res.differentials:
        for row in m:
            for p in row:
                if p:
                    assert p.is_homogeneous() and p.degree() == 2
    res.validate()
    exported = res.to_json()
    assert exported["ranks"] == [1, 2, 1]
    assert any("x" in entry or "r" in entry
               for mat in exported["differentials"] for row in mat for entry in row)


def test_resolution_augmentation_exact_in_degree_zero():
    """im(d_1) lands in ker(aug) and spans it on PBW basis elements."""
    H = build_preset("A1")
    origin = (Fraction(0),) * H.nvars
    # ker(aug) is spanned by N_w * m for non-constant monomials m; each such
    # element is (N_w * m / var) * var, an explicit image of d_1
    from gradedhecke.polynomials import Polynomial

    for w in H.group.elements:
        for expo in ((1, 0), (0, 1), (2, 0), (1, 1)):
            elt = H.from_terms({w: Polynomial(H.nvars, {expo: Fraction(1)})})
            var = next(i for i, e in enumerate(expo) if e)
            reduced = list(expo)
            reduced[var] -= 1
            preimage = H.from_terms(
                {w: Polynomial(H.nvars, {tuple(reduced): Fraction(1)})})
            assert preimage * H.poly(Polynomial.variable(H.nvars, var)) == elt
            # and the augmentation kills it
            assert all(p.evaluate(origin) == 0 for p in elt.terms.values())


def _dense_poly_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j])
             for j in range(m)] for i in range(n)]


def test_poly_mat_mul_on_polynomial_entries():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    assert _poly_mat_mul([[x, y]], [[y], [-x]]) == [[zero]]
    assert _poly_mat_mul([[zero, x], [y, zero]], [[x, zero], [zero, y]]) == [[zero, x * y],
                                                                             [x * y, zero]]


def test_poly_mat_mul_matches_the_dense_product():
    rng = random.Random(14)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    pool = [zero, zero, zero, x, y, x * y + Polynomial.constant(2, Fraction(1, 2)), -x]
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice(pool) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice(pool) for _ in range(m)] for _ in range(k)]
        got = _poly_mat_mul(a, b)
        assert got == _dense_poly_mat_mul(a, b)
        assert all(isinstance(p, Polynomial) for row in got for p in row)
