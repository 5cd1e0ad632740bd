import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from gradedhecke.linalg import Matrix, block_matrix, char_poly, coordinates, identity, \
    mat_add, mat_mul, mat_pow, mat_scale, mat_sub, matrix, min_poly, nullspace, rank, \
    rational_roots, restrict, root_multiplicity, rref, split_space, trace, transpose
from gradedhecke.scalars import Cyc, poly_divmod, poly_mul, poly_trim


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def M(rows):
    return matrix(F(rows))


def _lowest_terms(m):
    return isinstance(m, Matrix) and m.den > 0 and \
        gcd(m.den, *(x for row in m for x in row)) == 1


def solve(a, rhs):
    """One solution of A x = b, or None if inconsistent: an oracle for `coordinates`."""
    if not a:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(a[0])
    aug = [list(row) + [b] for row, b in zip(a, rhs)]
    rows, pivots = _fraction_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


def test_matrix_is_integer_rows_over_one_denominator_in_lowest_terms():
    m = M([[Fraction(1, 2), 0], [Fraction(-3, 4), 2]])
    assert list(m) == [[2, 0], [-3, 8]] and m.den == 4
    assert m.fractions() == F([[Fraction(1, 2), 0], [Fraction(-3, 4), 2]])
    assert all(isinstance(x, Fraction) for row in m.fractions() for x in row)
    # the constructor removes a common factor, so equal values compare equal
    assert Matrix([[2, 4], [0, -6]], 2) == Matrix([[1, 2], [0, -3]])
    assert Matrix([[0, 0]], 5) == Matrix([[0, 0]]) and Matrix([[0, 0]], 5).den == 1
    assert Matrix([[1]], 2) != Matrix([[1]], 3)
    # a Matrix never equals a plain list, whose rows would match only the numerators
    assert Matrix([[1]], 2) != [[1]] and not (Matrix([[1]]) == [[1]])
    assert matrix(m) is m
    assert matrix([]) == Matrix() and matrix([[], []]) == Matrix([[], []])
    for bad in ([[0.5]], [[Cyc(4, [Fraction(1)])]], [["1"]]):
        with pytest.raises(TypeError, match="ints or Fractions"):
            matrix(bad)


def test_coordinates_in_a_basis():
    basis = F([[1, 0, 1], [0, 2, 2]])
    vectors = F([[3, 4, 7], [0, 0, 0], [1, -1, 0]])
    coords = coordinates(matrix(basis), matrix(vectors))
    assert coords.fractions() == F([[3, 2], [0, 0], [1, Fraction(-1, 2)]])
    for v, c in zip(vectors, coords.fractions()):
        assert mat_mul(matrix([c]), matrix(basis)).fractions()[0] == v


def test_coordinates_agree_with_solve_on_a_dependent_basis():
    basis = F([[1, 1, 0], [2, 2, 0], [0, 1, 1]])
    v = F([[3, 5, 2]])[0]
    cols = [[b[i] for b in basis] for i in range(3)]
    assert coordinates(matrix(basis), matrix([v])).fractions() == [solve(cols, v)]


def test_coordinates_outside_the_span():
    basis = M([[1, 0, 1], [0, 1, 1]])
    with pytest.raises(ValueError, match="outside the span"):
        coordinates(basis, M([[1, 1, 2], [1, 0, 0]]))
    with pytest.raises(ValueError):
        coordinates(M([]), M([[0, 1]]))
    assert coordinates(M([]), M([[0, 0]])).fractions() == [[]]


def test_generalized_eigenspace_of_a_jordan_block():
    jordan = M([[2, 1], [0, 2]])
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
    return rows_a.fractions()[:len(pivots_a)] == rows_b.fractions()[:len(pivots_b)]


def _pieces(pieces):
    return [(lam, rows.fractions()) for lam, rows in pieces]


def test_split_space_keeps_a_jordan_block_whole():
    pieces = split_space(M([[2, 1], [0, 2]]), identity(2))
    assert [lam for lam, _ in pieces] == [2]
    assert _same_span(pieces[0][1], identity(2))


def test_split_space_puts_irrational_eigenvalues_in_a_last_piece():
    op = M([[1, 0, 0], [0, 0, 2], [0, 1, 0]])  # diag(1, [[0, 2], [1, 0]])
    assert _pieces(split_space(op, identity(3))) == [
        (Fraction(1), F([[1, 0, 0]])), (None, F([[0, 1, 0], [0, 0, 1]]))]


def test_split_space_removes_the_whole_generalized_eigenspace():
    # a 2x2 Jordan block at 1 beside [[0, 2], [1, 0]]: the image of (op - 1)
    # alone would still meet the Jordan block, the image of (op - 1)^2 does not
    op = M([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
    (lam, rows), (rest, others) = split_space(op, identity(4))
    assert lam == 1 and _same_span(rows, M([[1, 0, 0, 0], [0, 1, 0, 0]]))
    assert rest is None and _same_span(others, M([[0, 0, 1, 0], [0, 0, 0, 1]]))


def test_split_space_without_a_rational_eigenvalue():
    basis = M([[1, 1], [0, 1]])
    pieces = split_space(M([[0, 1], [1, 1]]), basis)
    assert [lam for lam, _ in pieces] == [None]
    assert _same_span(pieces[0][1], basis)


def test_split_space_on_a_one_by_one_matrix():
    assert _pieces(split_space(M([[5]]), M([[1]]))) == [(Fraction(5), F([[1]]))]
    assert _pieces(split_space(M([[0]]), M([[3]]))) == [(Fraction(0), F([[3]]))]


def test_split_space_on_a_proper_invariant_subspace():
    # op fixes e1, but the span of (1, 1, 0) and e3 only sees the eigenvalues 2 and 3
    op = M([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    pieces = split_space(op, M([[1, 1, 0], [0, 0, 1]]))
    assert [lam for lam, _ in pieces] == [2, 3]
    assert _same_span(pieces[0][1], M([[1, 1, 0]]))
    assert _same_span(pieces[1][1], M([[0, 0, 1]]))


def test_split_space_orders_eigenvalues_ascending():
    op = M([[3, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 2)]])
    pieces = split_space(op, identity(3))
    assert [lam for lam, _ in pieces] == [-1, Fraction(1, 2), 3]
    assert [rows.fractions() for _, rows in pieces] == [F([[0, 1, 0]]), F([[0, 0, 1]]),
                                                        F([[1, 0, 0]])]


def test_split_space_without_a_basis_splits_the_whole_space():
    """`split_space(op)` gives the pieces of `split_space(op, identity(n))`."""
    rng = random.Random(16)
    cases = [M([[1, 0, 0], [0, 0, 2], [0, 1, 0]]), M([[2, 1], [0, 2]])]
    cases += [matrix(_upper_triangular(rng, n)) for n in (1, 3, 5, 8)]
    cases += [matrix(_random_matrix(rng, n, n, 0.4)) for n in (2, 4)]
    for op in cases:
        whole = split_space(op)
        assert whole == split_space(op, identity(len(op)))
        assert restrict(op) is op and restrict(op, identity(len(op))) == op


def test_mat_pow_matches_repeated_products():
    a = M([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    power = identity(3)
    for m in range(7):
        assert mat_pow(a, m) == power
        power = mat_mul(power, a)


def test_trace_and_block_matrix():
    a, b = M([[1, 2], [3, 4]]), M([[0, 1], [1, 0]])
    big = block_matrix([[a, b], [b, a]])
    assert big.fractions()[1] == F([[3, 4, 1, 0]])[0]
    assert big.fractions()[2] == F([[0, 1, 1, 2]])[0]
    assert trace(big) == 2 * trace(a) == 10
    # blocks over different denominators meet over their lcm, in lowest terms
    half, third = M([[Fraction(1, 2)]]), M([[Fraction(2, 3)]])
    mixed = block_matrix([[half, third], [third, M([[0]])]])
    assert mixed.fractions() == F([[Fraction(1, 2), Fraction(2, 3)], [Fraction(2, 3), 0]])
    assert mixed.den == 6 and _lowest_terms(mixed)


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


# --- Fraction kernels kept as oracles for the integer ones -------------------------------
#
# These are the rational kernels that `linalg` ran on lists of Fraction rows
# before it moved to integer rows over one denominator: zero-skipping, with
# elimination on the nonzero columns of the pivot row only.

def _fraction_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _fraction_transpose(a):
    return [list(col) for col in zip(*a)]


def _fraction_mat_mul(a, b):
    m = len(b[0]) if b else 0
    if not a or not m:
        return [[] for _ in a]
    zero = a[0][0] * b[0][0]
    zero = zero - zero
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        row = [None] * m
        for t, x in enumerate(ai):
            if x:
                for j, y in sparse_b[t]:
                    s = row[j]
                    row[j] = x * y if s is None else s + x * y
        out.append([zero if s is None else s for s in row])
    return out


def _sub_multiple(vec, f, pairs):
    for j, y in pairs:
        x = vec[j]
        vec[j] = x - f * y if x else -(f * y)


def _fraction_rref(a):
    rows = [list(r) for r in a]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = prow[c]
        support = [(j, prow[j] / inv) for j in range(c, ncols) if prow[j]]
        for j, y in support:
            prow[j] = y
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                _sub_multiple(row, f, support)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _fraction_nullspace(a):
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = _fraction_rref(a)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def _fraction_coordinates(basis, vectors):
    if not vectors:
        return []
    k = len(basis)
    aug = [[b[i] for b in basis] + [v[i] for v in vectors]
           for i in range(len(vectors[0]))]
    rows, pivots = _fraction_rref(aug)
    if pivots and pivots[-1] >= k:
        raise ValueError("vector outside the span of the basis")
    out = []
    for j in range(len(vectors)):
        x = [Fraction(0)] * k
        for r, p in enumerate(pivots):
            x[p] = rows[r][k + j]
        out.append(x)
    return out


def _fraction_min_poly(a):
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    echelon = []
    power = _fraction_identity(n)
    for d in range(n + 1):
        if d:
            power = _fraction_mat_mul(power, a)
        vec = [x for row in power for x in row]
        coeffs = [Fraction(0)] * d + [Fraction(1)]
        for p, row, rc in echelon:
            f = vec[p]
            if f:
                _sub_multiple(vec, f, row)
                _sub_multiple(coeffs, f, rc)
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is None:
            return coeffs
        inv = vec[lead]
        echelon.append((lead, [(j, x / inv) for j, x in enumerate(vec) if x],
                        [(k, x / inv) for k, x in enumerate(coeffs) if x]))
    raise AssertionError("minimal polynomial must appear by degree n")


def _fraction_char_poly(a):
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    work = _fraction_identity(n)
    for k in range(1, n + 1):
        work = _fraction_mat_mul(a, work)
        c = -sum((work[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        if k < n:
            work = [row[:] for row in work]
            for i in range(n):
                work[i][i] = work[i][i] + c
    return coeffs


def _fraction_squarefree_part(poly):
    p = poly_trim([Fraction(c) for c in poly])
    if len(p) <= 1:
        return p
    a, b = p, poly_trim([i * c for i, c in enumerate(p)][1:])
    while b:
        a, b = b, poly_divmod(a, b)[1]
    quo, rem = poly_divmod(p, a)
    assert not rem
    return [c / quo[-1] for c in quo]


def _fraction_rational_roots(poly):
    """Rational roots by Sturm bisection, with the Sturm sequence over Q."""
    p = _fraction_squarefree_part(poly)
    if len(p) <= 1:
        return []
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    content = gcd(*ints)
    lead, n = ints[-1] // content, len(ints) - 1
    monic = [c // content * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    sturm = [monic, [i * c for i, c in enumerate(monic)][1:]]
    while len(sturm[-1]) > 1:
        _, rem = poly_divmod([Fraction(c) for c in sturm[-2]], sturm[-1])
        d = lcm(*(c.denominator for c in rem))
        sturm.append([-int(c * d) for c in rem])

    def value(q, t):
        return sum(c * t ** i for i, c in enumerate(q))

    def variations(t):
        signs = [s for s in (value(q, t) for q in sturm) if s]
        return sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))

    roots = []
    bound = 1 + max(abs(c) for c in monic[:-1])
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if value(monic, hi) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


def _fraction_root_multiplicity(poly, root):
    m = 0
    while True:
        quo, rem = poly_divmod(poly, [-root, Fraction(1)])
        if rem:
            return m, poly
        poly = quo
        m += 1


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


def _dense_rref(a):
    rows = [list(r) for r in a]
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


def _dense_nullspace(a):
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = _dense_rref(a)
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


def _krylov_min_poly(a):
    """One nullspace of the flattened powers I, A, ..., A^d per degree d."""
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    power = _fraction_identity(n)
    flats = [[power[i][j] for i in range(n) for j in range(n)]]
    for _ in range(n):
        power = _dense_mat_mul(power, a)
        flats.append([power[i][j] for i in range(n) for j in range(n)])
        ker = _dense_nullspace(_fraction_transpose(flats))
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


def _check_elimination(a):
    m = matrix(a)
    rows, pivots = rref(m)
    assert (rows.fractions(), pivots) == _dense_rref(a)
    assert rank(m) == len(pivots)
    assert nullspace(m).fractions() == _dense_nullspace(a)
    combos = [[Fraction(i - j) for j in range(len(a))] for i in range(2)]
    vectors = _dense_mat_mul(combos, a)
    assert coordinates(m, matrix(vectors)).fractions() == _dense_coordinates(a, vectors)
    # a product by a column, where linalg once had a matrix-vector kernel
    for v in a[:3] + [[Fraction(1)] * len(a[0])]:
        column = [[x] for x in v]
        assert mat_mul(m, matrix(column)).fractions() == _dense_mat_mul(a, column)


@pytest.mark.parametrize("density", DENSITIES)
def test_mat_mul_matches_the_dense_product(density):
    rng = random.Random(11)
    for _ in range(30):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a, b = _random_matrix(rng, n, k, density), _random_matrix(rng, k, m, density)
        assert mat_mul(matrix(a), matrix(b)).fractions() == _dense_mat_mul(a, b)


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
        assert mat_mul(matrix(a), matrix(b)).fractions() == _dense_mat_mul(a, b)
        _check_elimination(a)
        mp = min_poly(matrix(a))
        assert mp == _krylov_min_poly(a)
        assert mp[-1] == 1


def test_min_poly_of_structured_matrices():
    assert min_poly(identity(4)) == F([[-1, 1]])[0]
    assert min_poly(mat_scale(identity(3), Fraction(0))) == F([[0, 1]])[0]
    # a 4-cycle permutation matrix: x^4 - 1
    cycle = F([[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)])
    assert min_poly(matrix(cycle)) == _krylov_min_poly(cycle) == F([[-1, 0, 0, 0, 1]])[0]
    # diag(2, 2, 3): (x - 2)(x - 3), degree below the size
    diag = F([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert min_poly(matrix(diag)) == _krylov_min_poly(diag) == F([[6, -5, 1]])[0]


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
            assert coordinates(matrix(basis), matrix(vectors)).fractions() == \
                _dense_coordinates(basis, vectors)
            outside = _random_matrix(rng, 1, n, 1.0)
            try:
                expected = _dense_coordinates(basis, outside)
            except ValueError:
                with pytest.raises(ValueError, match="outside the span"):
                    coordinates(matrix(basis), matrix(outside))
            else:
                assert coordinates(matrix(basis), matrix(outside)).fractions() == expected


def test_empty_shapes():
    one = M([[3]])
    assert mat_mul(one, one) == M([[9]])
    # n x 0 times 0 x 0, 0 x k times anything, n x k times k x 0
    assert mat_mul(M([[], []]), M([])).fractions() == _dense_mat_mul([[], []], []) == [[], []]
    assert mat_mul(M([]), one).fractions() == _dense_mat_mul([], [[3]]) == []
    assert mat_mul(M([[]]), M([[]])).fractions() == _dense_mat_mul([[]], [[]]) == [[]]
    assert mat_mul(M([[3], [3]]), M([[]])).fractions() == [[], []]
    rows, pivots = rref(M([]))
    assert (rows.fractions(), pivots) == _dense_rref([]) == ([], [])
    rows, pivots = rref(M([[], []]))
    assert (rows.fractions(), pivots) == _dense_rref([[], []]) == ([[], []], [])
    assert rank(M([])) == rank(M([[], []])) == 0
    assert nullspace(M([[], []])).fractions() == _dense_nullspace([[], []]) == []
    assert nullspace(M([])) == Matrix()
    assert min_poly(M([])) == [Fraction(1)]
    assert min_poly(one) == _krylov_min_poly([[Fraction(3)]]) == [Fraction(-3), Fraction(1)]
    assert transpose(M([])) == Matrix() and trace(M([])) == 0


def test_elementwise_kernels_keep_zero_entries():
    rng = random.Random(15)
    for density in DENSITIES:
        a, b = _random_matrix(rng, 4, 5, density), _random_matrix(rng, 4, 5, density)
        c = _entry(rng)
        ma, mb = matrix(a), matrix(b)
        assert mat_add(ma, mb).fractions() == [[p + q for p, q in zip(r, s)]
                                              for r, s in zip(a, b)]
        assert mat_sub(ma, mb).fractions() == [[p - q for p, q in zip(r, s)]
                                              for r, s in zip(a, b)]
        assert mat_scale(ma, c).fractions() == [[c * p for p in r] for r in a]
        assert all(_lowest_terms(m) for m in (mat_add(ma, mb), mat_sub(ma, mb),
                                              mat_scale(ma, c), mat_sub(ma, ma)))


def _signed_case(rng, n, m):
    """Denominators up to 4, negative entries, and some zero rows."""
    rows = _random_matrix(rng, n, m, rng.choice((0.2, 0.6, 1.0)))
    for i in range(n):
        if rng.random() < 0.2:
            rows[i] = [Fraction(0)] * m
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_integer_kernels_match_the_fraction_kernels(seed):
    """Each integer kernel against the rational kernel it replaced."""
    rng = random.Random(200 + seed)
    for _ in range(40):
        n, k, m = rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _signed_case(rng, n, k), _signed_case(rng, k, m)
        product = mat_mul(matrix(a), matrix(b))
        assert product.fractions() == _fraction_mat_mul(a, b) and _lowest_terms(product)
        if not a:
            continue
        rows, pivots = rref(matrix(a))
        assert (rows.fractions(), pivots) == _fraction_rref(a) and _lowest_terms(rows)
        assert rank(matrix(a)) == len(pivots)
        kernel = nullspace(matrix(a))
        assert kernel.fractions() == _fraction_nullspace(a) and _lowest_terms(kernel)
        vectors = _fraction_mat_mul(_signed_case(rng, 2, n), a)
        coords = coordinates(matrix(a), matrix(vectors))
        assert coords.fractions() == _fraction_coordinates(a, vectors)
        square = _signed_case(rng, k, k)
        assert min_poly(matrix(square)) == _fraction_min_poly(square)
        assert char_poly(matrix(square)) == _fraction_char_poly(square)
        assert trace(matrix(square)) == sum((square[i][i] for i in range(k)), Fraction(0))
        assert transpose(matrix(a)).fractions() == _fraction_transpose(a)


@pytest.mark.parametrize("seed", range(3))
def test_integer_roots_match_the_fraction_kernels(seed):
    """Rational roots and multiplicities against the rational kernels they replaced.

    The polynomials are products of rational linear factors, some repeated,
    with x^2 - 2 or x^2 + 1 now and then, times a rational leading
    coefficient of either sign; then the minimal polynomials of random
    matrices with denominators above 1.
    """
    rng = random.Random(300 + seed)
    polys = []
    for _ in range(40):
        roots = [_entry(rng) for _ in range(rng.randint(0, 4))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 2)))
        p = _from_roots(roots, _entry(rng))
        if rng.random() < 0.3:
            p = poly_mul(p, [Fraction(rng.choice((-2, 1))), Fraction(0), Fraction(1)])
        polys.append(p)
    polys += [min_poly(matrix(_signed_case(rng, n, n))) for n in range(1, 6)]
    polys += [min_poly(matrix(_upper_triangular(rng, n))) for n in range(1, 6)]
    for p in polys:
        roots = rational_roots(p)
        assert roots == _fraction_rational_roots(p)
        for root in roots:
            assert root_multiplicity(p, root) == _fraction_root_multiplicity(p, root)
