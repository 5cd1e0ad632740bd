import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from gradedhecke.linalg import block_matrix, coordinates, identity, mat_add, mat_mul, \
    mat_pow, mat_scale, mat_sub, mat_vec, min_poly, nullspace, rational_roots, \
    root_multiplicity, rref, split_space, trace, transpose
from gradedhecke.polynomials import Polynomial
from gradedhecke.scalars import poly_mul


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def solve(matrix, rhs):
    """One solution of A x = b, or None if inconsistent: an oracle for `coordinates`."""
    if not matrix:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


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


def _same_span(a, b):
    rows_a, pivots_a = rref(a)
    rows_b, pivots_b = rref(b)
    return rows_a[:len(pivots_a)] == rows_b[:len(pivots_b)]


def test_split_space_keeps_a_jordan_block_whole():
    pieces = split_space(F([[2, 1], [0, 2]]), identity(2))
    assert [lam for lam, _ in pieces] == [2]
    assert _same_span(pieces[0][1], identity(2))


def test_split_space_puts_irrational_eigenvalues_in_a_last_piece():
    op = F([[1, 0, 0], [0, 0, 2], [0, 1, 0]])  # diag(1, [[0, 2], [1, 0]])
    assert split_space(op, identity(3)) == [
        (Fraction(1), F([[1, 0, 0]])), (None, F([[0, 1, 0], [0, 0, 1]]))]


def test_split_space_removes_the_whole_generalized_eigenspace():
    # a 2x2 Jordan block at 1 beside [[0, 2], [1, 0]]: the image of (op - 1)
    # alone would still meet the Jordan block, the image of (op - 1)^2 does not
    op = F([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
    (lam, rows), (rest, others) = split_space(op, identity(4))
    assert lam == 1 and _same_span(rows, F([[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert rest is None and _same_span(others, F([[0, 0, 1, 0], [0, 0, 0, 1]]))


def test_split_space_without_a_rational_eigenvalue():
    basis = F([[1, 1], [0, 1]])
    pieces = split_space(F([[0, 1], [1, 1]]), basis)
    assert [lam for lam, _ in pieces] == [None]
    assert _same_span(pieces[0][1], basis)


def test_split_space_on_a_one_by_one_matrix():
    assert split_space(F([[5]]), F([[1]])) == [(Fraction(5), F([[1]]))]
    assert split_space(F([[0]]), F([[3]])) == [(Fraction(0), F([[3]]))]


def test_split_space_on_a_proper_invariant_subspace():
    # op fixes e1, but the span of (1, 1, 0) and e3 only sees the eigenvalues 2 and 3
    op = F([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    pieces = split_space(op, F([[1, 1, 0], [0, 0, 1]]))
    assert [lam for lam, _ in pieces] == [2, 3]
    assert _same_span(pieces[0][1], F([[1, 1, 0]]))
    assert _same_span(pieces[1][1], F([[0, 0, 1]]))


def test_split_space_orders_eigenvalues_ascending():
    op = F([[3, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 2)]])
    pieces = split_space(op, identity(3))
    assert [lam for lam, _ in pieces] == [-1, Fraction(1, 2), 3]
    assert [rows for _, rows in pieces] == [F([[0, 1, 0]]), F([[0, 0, 1]]), F([[1, 0, 0]])]


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


def test_root_multiplicity_rejects_the_zero_polynomial():
    # every root divides 0, so the division loop would never end; run it in a
    # subprocess so that a regression fails here instead of hanging the suite
    script = textwrap.dedent("""
        from fractions import Fraction
        from gradedhecke.linalg import root_multiplicity
        for zero in ([Fraction(0)], [], [Fraction(0), Fraction(0)]):
            try:
                root_multiplicity(zero, Fraction(1))
            except ValueError as exc:
                assert "zero polynomial" in str(exc)
            else:
                raise AssertionError("no ValueError")
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", script], cwd=root, env=env, check=True,
                   timeout=30)


# --- dense kernels kept as oracles for the zero-skipping ones ---------------------------

def _dense_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            s = ai[0] * b[0][j]
            for t in range(1, k):
                if ai[t]:
                    s = s + ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def _dense_rref(matrix):
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _dense_nullspace(matrix):
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = _dense_rref(matrix)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def _dense_coordinates(basis, vectors):
    k = len(basis)
    aug = [[b[i] for b in basis] + [v[i] for v in vectors]
           for i in range(len(vectors[0]))]
    rows, pivots = _dense_rref(aug)
    if pivots and pivots[-1] >= k:
        raise ValueError("vector outside the span of the basis")
    out = []
    for j in range(len(vectors)):
        x = [Fraction(0)] * k
        for r, p in enumerate(pivots):
            x[p] = rows[r][k + j]
        out.append(x)
    return out


def _krylov_min_poly(matrix):
    """One nullspace of the flattened powers I, A, ..., A^d per degree d."""
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    power = identity(n)
    flats = [[power[i][j] for i in range(n) for j in range(n)]]
    for _ in range(n):
        power = _dense_mat_mul(power, matrix)
        flats.append([power[i][j] for i in range(n) for j in range(n)])
        ker = _dense_nullspace(transpose(flats))
        if ker:
            rel = ker[0]
            lead = max(i for i, c in enumerate(rel) if c != 0)
            return [c / rel[lead] for c in rel[: lead + 1]]
    raise AssertionError("minimal polynomial must appear by degree n")


def _entry(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _random_matrix(rng, n, m, density):
    return [[_entry(rng) if rng.random() < density else Fraction(0) for _ in range(m)]
            for _ in range(n)]


def _monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[_entry(rng) if j == perm[i] else Fraction(0) for j in range(n)]
            for i in range(n)]


def _upper_triangular(rng, n, density=0.6):
    # a short list of diagonal values, so that eigenvalues repeat
    diag = [_entry(rng) for _ in range(2)]
    return [[rng.choice(diag) if i == j else
             _entry(rng) if i < j and rng.random() < density else Fraction(0)
             for j in range(n)] for i in range(n)]


def _low_rank(rng, n, m, r, density):
    return _dense_mat_mul(_random_matrix(rng, n, r, density),
                          _random_matrix(rng, r, m, density))


DENSITIES = (0.0, 0.1, 1.0)


def _square_cases(seed):
    rng = random.Random(seed)
    cases = [[[_entry(rng)]], [[Fraction(0)]]]
    for n in (2, 3, 5, 8):
        cases += [_random_matrix(rng, n, n, d) for d in DENSITIES]
        cases += [_monomial(rng, n), _upper_triangular(rng, n),
                  _upper_triangular(rng, n, density=0.0), _low_rank(rng, n, n, 2, 0.5)]
    return cases


def _check_elimination(matrix):
    assert rref(matrix) == _dense_rref(matrix)
    assert nullspace(matrix) == _dense_nullspace(matrix)
    combos = [[Fraction(i - j) for j in range(len(matrix))] for i in range(2)]
    vectors = _dense_mat_mul(combos, matrix)
    assert coordinates(matrix, vectors) == _dense_coordinates(matrix, vectors)
    for v in matrix[:3] + [[Fraction(1)] * len(matrix[0])]:
        assert mat_vec(matrix, v) == [row[0] for row in _dense_mat_mul(
            matrix, [[x] for x in v])]


@pytest.mark.parametrize("density", DENSITIES)
def test_mat_mul_matches_the_dense_product(density):
    rng = random.Random(11)
    for _ in range(30):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a, b = _random_matrix(rng, n, k, density), _random_matrix(rng, k, m, density)
        assert mat_mul(a, b) == _dense_mat_mul(a, b)


@pytest.mark.parametrize("density", DENSITIES)
def test_rref_nullspace_and_mat_vec_match_dense_elimination(density):
    rng = random.Random(12)
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        _check_elimination(_random_matrix(rng, n, m, density))
        _check_elimination(_low_rank(rng, n, m, rng.randint(1, 3), max(density, 0.3)))


@pytest.mark.parametrize("seed", range(3))
def test_square_kernels_match_the_oracles(seed):
    """Random, monomial, triangular and low-rank squares, 1x1 through 8x8."""
    rng = random.Random(100 + seed)
    others = _square_cases(seed + 10)
    for a in _square_cases(seed):
        b = rng.choice([c for c in others if len(c) == len(a)])
        assert mat_mul(a, b) == _dense_mat_mul(a, b)
        _check_elimination(a)
        mp = min_poly(a)
        assert mp == _krylov_min_poly(a)
        assert mp[-1] == 1


def test_min_poly_of_structured_matrices():
    assert min_poly(identity(4)) == F([[-1, 1]])[0]
    assert min_poly(mat_scale(identity(3), Fraction(0))) == F([[0, 1]])[0]
    # a 4-cycle permutation matrix: x^4 - 1
    cycle = F([[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)])
    assert min_poly(cycle) == _krylov_min_poly(cycle) == F([[-1, 0, 0, 0, 1]])[0]
    # diag(2, 2, 3): (x - 2)(x - 3), degree below the size
    diag = F([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert min_poly(diag) == _krylov_min_poly(diag) == F([[6, -5, 1]])[0]


def test_coordinates_match_dense_elimination():
    rng = random.Random(13)
    for density in DENSITIES[1:]:
        for _ in range(20):
            k, n = rng.randint(1, 5), rng.randint(1, 7)
            basis = _random_matrix(rng, k, n, density)
            if rng.random() < 0.3:
                basis.append(_dense_mat_mul([[_entry(rng)] * k], basis)[0])
            combos = _random_matrix(rng, 3, len(basis), density)
            vectors = _dense_mat_mul(combos, basis)
            assert coordinates(basis, vectors) == _dense_coordinates(basis, vectors)
            outside = _random_matrix(rng, 1, n, 1.0)
            try:
                expected = _dense_coordinates(basis, outside)
            except ValueError:
                with pytest.raises(ValueError, match="outside the span"):
                    coordinates(basis, outside)
            else:
                assert coordinates(basis, outside) == expected


def test_empty_shapes():
    one = [[Fraction(3)]]
    assert mat_mul(one, one) == [[Fraction(9)]]
    # n x 0 times 0 x 0, 0 x k times anything, n x k times k x 0
    assert mat_mul([[], []], []) == _dense_mat_mul([[], []], []) == [[], []]
    assert mat_mul([], one) == _dense_mat_mul([], one) == []
    assert mat_mul([[]], [[]]) == _dense_mat_mul([[]], [[]]) == [[]]
    assert mat_mul(one + one, [[]]) == [[], []]
    assert mat_vec([[]], []) == [Fraction(0)]
    assert mat_vec([[], []], []) == [Fraction(0), Fraction(0)]
    assert mat_vec([], []) == []
    assert rref([]) == _dense_rref([]) == ([], [])
    assert rref([[], []]) == _dense_rref([[], []]) == ([[], []], [])
    assert nullspace([[], []]) == _dense_nullspace([[], []]) == []
    assert nullspace([]) == []
    assert min_poly([]) == [Fraction(1)]
    assert min_poly(one) == _krylov_min_poly(one) == [Fraction(-3), Fraction(1)]


def test_mat_mul_on_polynomial_entries_matches_the_dense_product():
    rng = random.Random(14)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    pool = [zero, zero, zero, x, y, x * y + Polynomial.constant(2, Fraction(1, 2)), -x]
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice(pool) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice(pool) for _ in range(m)] for _ in range(k)]
        got = mat_mul(a, b)
        assert got == _dense_mat_mul(a, b)
        assert all(isinstance(p, Polynomial) for row in got for p in row)


def test_elementwise_kernels_keep_zero_entries():
    rng = random.Random(15)
    for density in DENSITIES:
        a, b = _random_matrix(rng, 4, 5, density), _random_matrix(rng, 4, 5, density)
        c = _entry(rng)
        assert mat_add(a, b) == [[p + q for p, q in zip(r, s)] for r, s in zip(a, b)]
        assert mat_sub(a, b) == [[p - q for p, q in zip(r, s)] for r, s in zip(a, b)]
        assert mat_scale(a, c) == [[c * p for p in r] for r in a]
        assert all(isinstance(p, Fraction)
                   for m in (mat_add(a, b), mat_sub(a, b), mat_scale(a, c))
                   for row in m for p in row)
