"""
Exact linear algebra over Q or a cyclotomic field: the one matrix layer.

Matrices are lists of lists of field elements (Fraction or Cyc).  Modules,
the twisted group algebra, homology and the Lie models do all their matrix
work through the functions here.

The kernels skip zero entries: no product or sum is formed on a zero, and a
zero entry of an input comes back as it is.  Products cost O(nnz), which
matters because induced modules have monomial N matrices and triangular x
matrices.  `mat_mul` takes the zero of its result from one product of the
entries, and it and `mat_sub` use only `*`, `+`, `-` and truthiness, so they
also serve matrices of `Polynomial` entries.  `rref` scales and eliminates
on the nonzero columns of the pivot row only; `min_poly` runs Krylov
incrementally, reducing each new power against the echelon rows of the
lower ones.  No floating point is used anywhere: `rational_roots` isolates
roots with Sturm sequences over the integers.

`split_space` is the one eigenspace splitter: it restricts an operator to an
invariant row span and cuts the span into the generalized eigenspaces of its
rational eigenvalues, plus one piece for the rest.  Module weights and the
blocks of the twisted group algebra both come from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import frac, poly_divmod, poly_gcd, poly_trim

__all__ = [
    "mat_mul", "mat_vec", "mat_add", "mat_scale", "mat_sub", "identity",
    "zero_matrix", "transpose", "trace", "block_matrix", "mat_pow", "rref",
    "rank", "nullspace", "coordinates", "min_poly", "char_poly",
    "rational_roots", "root_multiplicity", "squarefree_part", "split_space",
]


def zero_matrix(n, m, zero=Fraction(0)):
    return [[zero] * m for _ in range(n)]


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    m = len(b[0]) if b else 0
    if not a or not m:
        return [[] for _ in a]
    zero = a[0][0] * b[0][0]
    zero = zero - zero
    # the nonzero entries of each row of b, as (column, entry) pairs
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


def mat_vec(a, v):
    if not a:
        return []
    if not v:
        return [Fraction(0)] * len(a)
    zero = a[0][0] * v[0]
    zero = zero - zero
    sparse_v = [(t, y) for t, y in enumerate(v) if y]
    out = []
    for row in a:
        s = None
        for t, y in sparse_v:
            x = row[t]
            if x:
                s = x * y if s is None else s + x * y
        out.append(zero if s is None else s)
    return out


def mat_add(a, b):
    return [[x + y if x and y else x or y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[(x - y if x else -y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x if x else x for x in row] for row in a]


def mat_pow(a, m):
    """a^m for m >= 0 by repeated squaring, with no product by the identity."""
    out = None
    while True:
        if m & 1:
            out = a if out is None else mat_mul(out, a)
        m >>= 1
        if not m:
            return identity(len(a)) if out is None else out
        a = mat_mul(a, a)


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def block_matrix(blocks):
    """Assemble one matrix from a grid of blocks; blocks in a grid row share a height."""
    return [[x for blk in brow for x in blk[a]]
            for brow in blocks for a in range(len(brow[0]))]


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = prow[c]
        # left of c the pivot row is zero: earlier columns are eliminated or empty
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


def _sub_multiple(vec, f, pairs):
    """vec[j] -= f * y for each (j, y) in pairs, with no sum on a zero vec[j]."""
    for j, y in pairs:
        x = vec[j]
        vec[j] = x - f * y if x else -(f * y)


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix):
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def coordinates(basis, vectors):
    """Coordinates of each vector in the span of the rows `basis`, from one rref.

    Returns one coordinate list per vector; a dependent basis gets 0 on its
    redundant rows.  Raises ValueError when a vector lies outside the span.
    """
    if not vectors:
        return []
    k = len(basis)
    aug = [[b[i] for b in basis] + [v[i] for v in vectors]
           for i in range(len(vectors[0]))]
    rows, pivots = rref(aug)
    if pivots and pivots[-1] >= k:
        raise ValueError("vector outside the span of the basis")
    out = []
    for j in range(len(vectors)):
        x = [Fraction(0)] * k
        for r, p in enumerate(pivots):
            x[p] = rows[r][k + j]
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# polynomials of matrices
# ---------------------------------------------------------------------------

def min_poly(matrix) -> list[Fraction]:
    """Minimal polynomial (monic, little-endian) by incremental Krylov.

    Each power A^d, flattened, is reduced against the echelon rows of
    I, A, ..., A^(d-1), carrying its coefficients on those powers; the first
    power that reduces to zero gives the monic relation.
    """
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    # (pivot, row with 1 at the pivot, its coefficients on the powers), both sparse
    echelon = []
    power = identity(n)
    for d in range(n + 1):
        if d:
            power = mat_mul(power, matrix)
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


def char_poly(matrix) -> list[Fraction]:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion."""
    n = len(matrix)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(matrix, work)
        c = -trace(work) / k
        coeffs[n - k] = c
        if k < n:
            work = [row[:] for row in work]
            for i in range(n):
                work[i][i] = work[i][i] + c
    return coeffs


def squarefree_part(poly):
    """poly / gcd(poly, poly'), monic."""
    p = poly_trim([frac(c) for c in poly])
    if len(p) <= 1:
        return p
    dp = [i * c for i, c in enumerate(p)][1:]
    g = poly_gcd(p, dp)
    quo, rem = poly_divmod(p, g)
    assert not rem
    lead = quo[-1]
    return [c / lead for c in quo]


def rational_roots(poly) -> list[Fraction]:
    """All rational roots of a rational polynomial, exactly and in ascending order.

    The squarefree part, cleared to a primitive integer polynomial
    a_n x^n + ... + a_0, becomes monic under y = a_n x, so its rational
    roots are integers y.  These are isolated by bisecting the Cauchy
    interval (-B, B] on integer endpoints with Sturm counts, and each unit
    interval (t - 1, t] that holds a root is tested at t.
    """
    p = squarefree_part(poly)
    if len(p) <= 1:
        return []
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    content = gcd(*ints)
    lead, n = ints[-1] // content, len(ints) - 1
    monic = [c // content * lead ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    sturm = _sturm_sequence(monic)

    def variations(t):
        signs = [s for s in (_poly_eval(q, t) for q in sturm) if s]
        return sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))

    roots: list[Fraction] = []
    bound = 1 + max(abs(c) for c in monic[:-1])
    # v_lo - v_hi roots lie in (lo, hi]; the left half is popped first
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _poly_eval(monic, hi) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


def _sturm_sequence(p):
    """Sturm sequence of a squarefree integer polynomial (little-endian).

    Each member is rescaled by a positive rational to integer coefficients,
    which keeps every sign and lets `_poly_eval` run in integers.
    """
    seq = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(seq[-1]) > 1:
        _, rem = poly_divmod([Fraction(c) for c in seq[-2]], seq[-1])
        den = lcm(*(c.denominator for c in rem))
        seq.append([-int(c * den) for c in rem])
    return seq


def _poly_eval(poly, t):
    acc = 0
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def root_multiplicity(poly, root):
    """(m, q) with poly = (x - root)^m * q and q(root) != 0; little-endian lists.

    Raises ValueError on the zero polynomial, which every root divides.
    """
    if not any(poly):
        raise ValueError("the zero polynomial has no root multiplicity")
    m = 0
    while True:
        quo, rem = poly_divmod(poly, [-root, Fraction(1)])
        if rem:
            return m, poly
        poly = quo
        m += 1


def split_space(op, basis):
    """Split the op-invariant row span `basis` along the rational eigenvalues of op.

    Returns (lam, rows) for each rational eigenvalue lam of op on the span,
    in ascending order, with rows a basis of ker (op - lam)^m there, m the
    multiplicity of lam in the minimal polynomial.  When these do not fill
    the span, one last piece (None, rows) follows: the image of the product
    of the (op - lam)^m, which is the sum of the remaining generalized
    eigenspaces.  op acts on a row v as `mat_vec(op, v)`.
    """
    restricted = transpose(coordinates(basis, [mat_vec(op, v) for v in basis]))
    mp = min_poly(restricted)
    eye = identity(len(basis))
    pieces, powers = [], []
    for lam in rational_roots(mp):
        m, _ = root_multiplicity(mp, lam)
        power = mat_pow(mat_sub(restricted, mat_scale(eye, lam)), m)
        pieces.append((lam, mat_mul(nullspace(power), basis)))
        powers.append(power)
    if sum(len(rows) for _, rows in pieces) < len(basis):
        image = eye
        for power in powers:
            image = mat_mul(image, power)
        rows, pivots = rref(transpose(image))
        pieces.append((None, mat_mul(rows[:len(pivots)], basis)))
    return pieces
