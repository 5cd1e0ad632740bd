import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from gradedhecke.linalg import block_matrix, coordinates, identity, mat_mul, mat_pow, \
    mat_scale, mat_sub, min_poly, nullspace, rational_roots, root_multiplicity, solve, \
    trace
from gradedhecke.polynomials import Polynomial
from gradedhecke.scalars import poly_mul


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_coordinates_in_a_basis():
    basis = F([[1, 0, 1], [0, 2, 2]])
    vectors = F([[3, 4, 7], [0, 0, 0], [1, -1, 0]])
    coords = coordinates(basis, vectors)
    assert coords == F([[3, 2], [0, 0], [1, Fraction(-1, 2)]])
    for v, c in zip(vectors, coords):
        assert mat_mul([c], basis)[0] == v


def test_coordinates_agree_with_solve_on_a_dependent_basis():
    basis = F([[1, 1, 0], [2, 2, 0], [0, 1, 1]])
    v = F([[3, 5, 2]])[0]
    cols = [[b[i] for b in basis] for i in range(3)]
    assert coordinates(basis, [v]) == [solve(cols, v)]


def test_coordinates_outside_the_span():
    basis = F([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="outside the span"):
        coordinates(basis, F([[1, 1, 2], [1, 0, 0]]))
    with pytest.raises(ValueError):
        coordinates([], F([[0, 1]]))
    assert coordinates([], F([[0, 0]])) == [[]]


def test_generalized_eigenspace_of_a_jordan_block():
    jordan = F([[2, 1], [0, 2]])
    mp = min_poly(jordan)
    assert mp == F([[4, -4, 1]])[0]
    m, rest = root_multiplicity(mp, Fraction(2))
    assert (m, rest) == (2, [Fraction(1)])
    shifted = mat_sub(jordan, mat_scale(identity(2), Fraction(2)))
    assert len(nullspace(mat_pow(shifted, 1))) == 1
    assert len(nullspace(mat_pow(shifted, m))) == 2


def test_mat_pow_matches_repeated_products():
    a = F([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    power = identity(3)
    for m in range(7):
        assert mat_pow(a, m) == power
        power = mat_mul(power, a)


def test_mat_mul_on_polynomial_entries():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    assert mat_mul([[x, y]], [[y], [-x]]) == [[zero]]
    assert mat_mul([[zero, x], [y, zero]], [[x, zero], [zero, y]]) == [[zero, x * y],
                                                                      [x * y, zero]]


def test_trace_and_block_matrix():
    a, b = F([[1, 2], [3, 4]]), F([[0, 1], [1, 0]])
    big = block_matrix([[a, b], [b, a]])
    assert big[1] == F([[3, 4, 1, 0]])[0]
    assert big[2] == F([[0, 1, 1, 2]])[0]
    assert trace(big) == 2 * trace(a) == 10


def _from_roots(roots, lead=Fraction(1)):
    p = [lead]
    for root in roots:
        p = poly_mul(p, [-root, Fraction(1)])
    return p


def test_rational_roots_finds_roots_with_large_denominators():
    near_zero = Fraction(1, 1000000007)
    assert rational_roots(_from_roots([near_zero, Fraction(1)])) == [near_zero, Fraction(1)]
    close = [Fraction(1, 3), Fraction(10000003, 30000000), Fraction(7)]
    assert rational_roots(_from_roots(close)) == close


def test_rational_roots_skips_irrational_and_repeated_roots():
    # (x^2 - 2)(x^2 + 1)(x + 3/2)^2 (x - 5): only -3/2 and 5 are rational
    p = poly_mul(poly_mul([Fraction(-2), 0, Fraction(1)], [Fraction(1), 0, Fraction(1)]),
                 _from_roots([Fraction(-3, 2), Fraction(-3, 2), Fraction(5)], Fraction(-4)))
    assert rational_roots(p) == [Fraction(-3, 2), Fraction(5)]
    assert rational_roots([Fraction(0), Fraction(0), Fraction(3)]) == [Fraction(0)]
    assert rational_roots([Fraction(5)]) == []


def test_module_path_imports_no_numpy():
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from gradedhecke.groupalgebra import TwistedGroupAlgebra
        from gradedhecke.modules import induce_from_character, weight_decomposition
        from gradedhecke.presets import build_preset
        b2 = build_preset("B2", mode="r1")
        assert weight_decomposition(induce_from_character(b2, (Fraction(1), Fraction(3))))
        TwistedGroupAlgebra(b2.group, b2.cocycle)
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", script], cwd=root, env=env, check=True)
