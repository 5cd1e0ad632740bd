"""
Exact linear algebra over Q: the one matrix layer.

A `Matrix` is a list of integer rows over one positive denominator `den`, in
lowest terms, so `==` compares lists of ints.  `matrix` builds one from rows
of ints and `Fraction`s and `Matrix.fractions` reads it back; a `Fraction`
is formed only there.  Modules, the twisted group algebra, homology, the
Lie models and the root data do all their matrix work here, and no function
changes a Matrix that it is given.

Products, sums and scaling run on `int`s and skip zero entries, so a
product costs O(nnz); induced modules have monomial N matrices and
triangular x matrices.  Elimination is fraction-free (Cohen, GTM 138,
ch. 2): integer row combinations, each changed row divided by its content,
and one division by the pivots at the end.  The reduced row echelon form is
unique, so this is the answer rational elimination gives.  `min_poly` runs
Krylov on the integer powers, and `rational_roots` isolates roots with
Sturm sequences over the integers; no floating point is used anywhere.

`split_space` is the one eigenspace splitter: it cuts the whole space, or an
invariant row span, into the generalized eigenspaces of an operator's
rational eigenvalues plus one piece for the rest.  Module weights and the
blocks of the twisted group algebra both come from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import poly_trim

__all__ = [
    "Matrix", "matrix", "mat_mul", "mat_add", "mat_scale", "mat_sub", "identity",
    "transpose", "trace", "block_matrix", "mat_pow", "rref", "rank", "nullspace",
    "coordinates", "restrict", "min_poly", "char_poly", "rational_roots",
    "root_multiplicity", "split_space",
]


class Matrix(list):
    """Integer rows over the positive int `den`; the constructor puts them in lowest terms."""

    __slots__ = ("den",)

    def __init__(self, rows=(), den=1):
        if den != 1:
            g = den
            for row in rows:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                rows = [[x // g for x in row] for row in rows]
                den //= g
        list.__init__(self, rows)
        self.den = den

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den \
            and list.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def fractions(self) -> list[list[Fraction]]:
        """The entries as rows of Fractions."""
        den = self.den
        return [[Fraction(x, den) for x in row] for row in self]

    def __repr__(self):
        return f"Matrix({list.__repr__(self)}, den={self.den})"


def matrix(entries) -> Matrix:
    """The Matrix of rows of ints and Fractions; a Matrix is returned as it is."""
    if isinstance(entries, Matrix):
        return entries
    try:
        den = lcm(*[x.denominator for row in entries for x in row])
        return Matrix([[x.numerator * (den // x.denominator) for x in row]
                       for row in entries], den)
    except AttributeError:
        raise TypeError("matrix entries must be ints or Fractions") from None


def identity(n) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b) -> Matrix:
    m = len(b[0]) if b else 0
    if not a or not m:
        return Matrix([[] for _ in a])
    # the nonzero entries of each row of b, as (column, entry) pairs
    sparse_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        row = [0] * m
        for t, x in enumerate(ai):
            if x:
                for j, y in sparse_b[t]:
                    row[j] += x * y
        out.append(row)
    return Matrix(out, a.den * b.den)


def mat_add(a, b) -> Matrix:
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return Matrix([[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], den)


def mat_sub(a, b) -> Matrix:
    return mat_add(a, mat_scale(b, -1))


def mat_scale(a, c) -> Matrix:
    """c * a for an int or Fraction c."""
    if c == 1:
        return a
    p = c.numerator
    return Matrix([[p * x for x in row] for row in a], a.den * c.denominator)


def mat_pow(a, m) -> Matrix:
    """a^m for m >= 0 by repeated squaring, with no product by the identity."""
    out = None
    while True:
        if m & 1:
            out = a if out is None else mat_mul(out, a)
        m >>= 1
        if not m:
            return identity(len(a)) if out is None else out
        a = mat_mul(a, a)


def transpose(a) -> Matrix:
    return Matrix([list(col) for col in zip(*a)], a.den)


def trace(a) -> Fraction:
    return Fraction(sum(a[i][i] for i in range(len(a))), a.den)


def block_matrix(blocks) -> Matrix:
    """Assemble one matrix from a grid of blocks; blocks in a grid row share a height."""
    den = lcm(*(blk.den for brow in blocks for blk in brow))
    scaled = [[[[den // blk.den * x for x in row] for row in blk] for blk in brow]
              for brow in blocks]
    return Matrix([[x for blk in brow for x in blk[a]]
                   for brow in scaled for a in range(len(brow[0]))], den)


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def _eliminate(rows, full) -> list[int]:
    """Integer Gaussian elimination on a list of int rows, in place; returns the pivots.

    Row r < len(pivots) gets a positive pivot in column pivots[r] with zeros
    below it, and above it too when `full`; the later rows become zero.  A
    combination p * row - f * pivot row is taken after dividing p and f by
    their gcd, and divided by its content after.
    """
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        rows[pivot], rows[r] = rows[r], prow
        p = prow[c]
        # left of c the pivot row is zero: earlier columns are eliminated or empty
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i in range(0 if full else r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if p == 1:
                for j, y in support:
                    row[j] -= f * y
                continue
            g = gcd(p, f)
            q, f = p // g, f // g
            row = [q * x for x in row]
            for j, y in support:
                row[j] -= f * y
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(a):
    """Reduced row echelon form; returns (Matrix of rows, pivot column indices)."""
    rows = [list(r) for r in a]
    if not rows or not rows[0]:
        return Matrix(rows), []
    pivots = _eliminate(rows, True)
    for r in range(len(pivots)):
        g = gcd(*rows[r])
        if g > 1:
            rows[r] = [x // g for x in rows[r]]
    # row r over its pivot entry p_r, all over the lcm of the p_r: primitive
    # rows make this lowest terms
    den = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    for r, c in enumerate(pivots):
        f = den // rows[r][c]
        if f != 1:
            rows[r] = [f * x for x in rows[r]]
    return Matrix(rows, den), pivots


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(_eliminate([list(r) for r in a], False))


def nullspace(a) -> Matrix:
    """Basis of the right kernel as rows, one per free column."""
    if not a:
        return Matrix()
    ncols = len(a[0])
    rows, pivots = rref(a)
    den = rows.den
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return Matrix(basis, den)


def coordinates(basis, vectors) -> Matrix:
    """Coordinates of each row of `vectors` in the span of the rows `basis`, from one rref.

    Returns one coordinate row per vector; a dependent basis gets 0 on its
    redundant rows.  Raises ValueError when a vector lies outside the span.
    """
    if not vectors:
        return Matrix()
    k = len(basis)
    aug = [[b[i] for b in basis] + [v[i] for v in vectors]
           for i in range(len(vectors[0]))]
    rows, pivots = rref(aug)
    if pivots and pivots[-1] >= k:
        raise ValueError("vector outside the span of the basis")
    # the integer rows solve x' (den_b basis) = den_v vectors
    scale = basis.den
    out = []
    for j in range(len(vectors)):
        x = [0] * k
        for r, p in enumerate(pivots):
            x[p] = scale * rows[r][k + j]
        out.append(x)
    return Matrix(out, rows.den * vectors.den)


def restrict(op, basis=None) -> Matrix:
    """op on the op-invariant row span `basis` (the whole space for None), in its coordinates."""
    if basis is None:
        return op
    return transpose(coordinates(basis, mat_mul(basis, transpose(op))))


# ---------------------------------------------------------------------------
# polynomials of matrices
# ---------------------------------------------------------------------------

def min_poly(a) -> list[Fraction]:
    """Minimal polynomial (monic, little-endian) by incremental Krylov.

    Each power of the integer matrix A' = den * A, flattened, is reduced
    against the echelon rows of the lower ones, carrying its integer
    coefficients on them; the first that reduces to zero gives
    sum c_i A'^i = 0, so A satisfies sum c_i den^i x^i / (c_d den^d).
    """
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    ints = Matrix(a)
    # (pivot, its entry, row, coefficients on the powers); rows and coefficients sparse
    echelon = []
    power = identity(n)
    for d in range(n + 1):
        if d:
            power = mat_mul(power, ints)
        vec = [x for row in power for x in row]
        coeffs = [0] * d + [1]
        for lead, p, row, rc in echelon:
            f = vec[lead]
            if f:
                g = gcd(p, f)
                q, f = p // g, f // g
                if q != 1:
                    vec = [q * x for x in vec]
                    coeffs = [q * x for x in coeffs]
                for j, y in row:
                    vec[j] -= f * y
                for j, y in rc:
                    coeffs[j] -= f * y
        lead = next((j for j, x in enumerate(vec) if x), None)
        if lead is None:
            den = a.den
            top = coeffs[d] * den ** d
            return [Fraction(c * den ** i, top) for i, c in enumerate(coeffs)]
        g = gcd(*vec, *coeffs)
        if g > 1:
            vec = [x // g for x in vec]
            coeffs = [x // g for x in coeffs]
        echelon.append((lead, vec[lead], [(j, x) for j, x in enumerate(vec) if x],
                        [(k, x) for k, x in enumerate(coeffs) if x]))
    raise AssertionError("minimal polynomial must appear by degree n")


def char_poly(a) -> list[Fraction]:
    """Characteristic polynomial by the Faddeev-LeVerrier recursion on A' = den * A.

    A' has integer coefficients c_i, and A has c_i den^i / den^n.
    """
    n = len(a)
    ints = Matrix(a)
    coeffs = [0] * n + [1]
    work = identity(n)
    for k in range(1, n + 1):
        work = mat_mul(ints, work)
        c = -sum(work[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k < n:
            work = Matrix([[x + c if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(work)])
    den = a.den
    return [Fraction(c * den ** i, den ** n) for i, c in enumerate(coeffs)]


def rational_roots(poly) -> list[Fraction]:
    """All rational roots of a rational polynomial, exactly and in ascending order.

    The squarefree part of the cleared integer polynomial, a_n x^n + ... +
    a_0, becomes monic under y = a_n x, so its rational roots are integers
    y.  Sturm counts bisect (-B, B] on integer endpoints down to intervals
    that hold one root or have length 1, where `_integer_root` finishes.
    """
    den = lcm(*(c.denominator for c in poly))
    p = _primitive([c.numerator * (den // c.denominator) for c in poly])
    if len(p) <= 1:
        return []
    a, b = p, [i * c for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _remainder(a, b)
    p = _quotient(p, _primitive(a))
    if p[-1] < 0:
        p = [-c for c in p]
    lead, n = p[-1], len(p) - 1
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    sturm = [monic, [i * c for i, c in enumerate(monic)][1:]]
    while len(sturm[-1]) > 1:
        sturm.append([-c for c in _remainder(sturm[-2], sturm[-1])])

    def variations(t):
        signs = [s for s in (_poly_eval(q, t) for q in sturm) if s]
        return sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))

    roots: list[Fraction] = []
    # Fujiwara: every root has |y| <= 2 max |c_i|^(1/(n - i)), here rounded up
    # to a power of two through bit lengths
    bound = 1 + 2 * max((1 << -(-abs(c).bit_length() // (n - i))
                         for i, c in enumerate(monic[:-1]) if c), default=1)
    # v_lo - v_hi roots lie in (lo, hi]; the left half is popped first
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 or hi - lo == 1:
            root = _integer_root(monic, lo, hi)
            if root is not None:
                roots.append(Fraction(root, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


def _integer_root(p, lo, hi):
    """The integer root of p in (lo, hi], which holds one simple root or has length 1."""
    at_hi = _poly_eval(p, hi)
    while at_hi and hi - lo > 1:
        mid = (lo + hi) // 2
        at_mid = _poly_eval(p, mid)
        if not at_mid:
            return mid
        if (at_mid < 0) == (at_hi < 0):
            hi, at_hi = mid, at_mid
        else:
            lo = mid
    return None if at_hi else hi


# integer polynomials are little-endian lists of ints with a nonzero last entry

def _primitive(p):
    """p without trailing zeros, divided by its content."""
    p = poly_trim(list(p))
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _remainder(a, b):
    """The remainder of a by b times a positive integer, made primitive."""
    a = list(a)
    scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        f = sign * a[-1]
        shift = len(a) - len(b)
        a = [scale * c for c in a]
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        poly_trim(a)
    return _primitive(a)


def _quotient(a, b):
    """a / b for integer polynomials, when b divides a with an integer quotient."""
    a = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = a[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            a[k + i] -= c * y
    return quo


def _poly_eval(poly, t):
    acc = 0
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def root_multiplicity(poly, root):
    """(m, q) with poly = (x - root)^m * q and q(root) != 0; little-endian lists.

    For poly = P / D and root = a / b, each division is one of the integer
    P by b x - a, exact by Gauss's lemma.  Raises ValueError on the zero
    polynomial, which every root divides.
    """
    if not any(poly):
        raise ValueError("the zero polynomial has no root multiplicity")
    den = lcm(*(c.denominator for c in poly))
    quo = poly_trim([c.numerator * (den // c.denominator) for c in poly])
    a, b = root.numerator, root.denominator
    m = 0
    while True:
        # P = (b x - a) Q + r, from the top: Q_{k-1} = (P_k + a Q_k) / b, r = P_0 + a Q_0
        q, acc = [], 0
        for c in reversed(quo[1:]):
            acc, rest = divmod(c + a * acc, b)
            if rest:
                break
            q.append(acc)
        else:
            if quo[0] + a * acc == 0:
                quo = q[::-1]
                m += 1
                continue
        return m, [Fraction(c * b ** m, den) for c in quo] if m else poly


def split_space(op, basis=None):
    """Split a row span along the rational eigenvalues of op.

    The span is that of the rows `basis`, which op must leave invariant, or
    the whole space when `basis` is None.  Returns (lam, rows) for each
    rational eigenvalue lam of op on the span, in ascending order, with rows
    a basis of ker (op - lam)^m there, m the multiplicity of lam in the
    minimal polynomial.  When these do not fill the span, one last piece
    (None, rows) follows: the image of the product of the (op - lam)^m,
    which is the sum of the remaining generalized eigenspaces.  op acts on
    a column vector v as op v.
    """
    restricted = restrict(op, basis)
    n = len(restricted)
    mp = min_poly(restricted)
    pieces, image = [], None
    for lam in rational_roots(mp):
        m, _ = root_multiplicity(mp, lam)
        power = mat_pow(mat_sub(restricted, mat_scale(identity(n), lam)), m)
        pieces.append((lam, nullspace(power)))
        image = power if image is None else mat_mul(image, power)
    if sum(len(rows) for _, rows in pieces) < n:
        rows, pivots = rref(transpose(identity(n) if image is None else image))
        pieces.append((None, Matrix(rows[:len(pivots)], rows.den)))
    if basis is None:
        return pieces
    return [(lam, mat_mul(rows, basis)) for lam, rows in pieces]
