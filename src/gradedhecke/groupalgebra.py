"""
Exact decomposition of twisted group algebras C[W x| Gamma, natural].

The centre is computed as an exact nullspace, then split into its primitive
idempotents over Q by repeatedly extracting rational eigenvalues of
multiplication operators.  Each resulting block is a matrix algebra over a
number field; blocks of field degree g > 1 package g Galois-conjugate
complex irreducibles that share every rational multiplicity, which is all
the restriction functor ever needs here.  Block data: idempotent, field
degree g, matrix size d, with trace_regular(e) = g * d^2.

The group-size cap keeps everything comfortably exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import coordinates, mat_mul, min_poly, nullspace, rational_roots, \
    root_multiplicity, rref, trace, transpose
from .scalars import poly_ext_gcd, poly_mul, poly_trim
from .weylgroups import Cocycle, ExtendedWeylGroup, GroupElement

__all__ = ["TwistedGroupAlgebra", "IrreducibleBlock"]

GROUP_ALGEBRA_CAP = 48


@dataclass
class IrreducibleBlock:
    """One rational-primitive block of the twisted group algebra."""

    index: int
    idempotent: list        # coefficients on the N_w basis
    field_degree: int       # g: number of Galois-conjugate complex irreducibles
    dim: int                # d: dimension of each of those irreducibles
    character: dict         # w index -> rational character value (g = 1 only)
    name: str = ""

    def label(self) -> str:
        if self.name:
            return self.name
        return f"chi{self.index}[d={self.dim}]" + ("" if self.field_degree == 1
                                                   else f"(x{self.field_degree})")


class TwistedGroupAlgebra:
    """C[W x| Gamma, natural] with exact block decomposition."""

    def __init__(self, group: ExtendedWeylGroup, cocycle: Cocycle | None = None):
        if len(group) > GROUP_ALGEBRA_CAP:
            raise ValueError(
                f"group of order {len(group)} exceeds the cap {GROUP_ALGEBRA_CAP}")
        self.group = group
        self.cocycle = cocycle or Cocycle(group)
        self.n = len(group)
        self._mult = self._multiplication_table()
        self.center = self._center_basis()
        self._center_products = self._center_structure()
        self.blocks = self._split_blocks()
        self._label_blocks()

    # -- structure ------------------------------------------------------------------
    def _multiplication_table(self):
        """(u, v) -> (index of uv, cocycle value)."""
        g = self.group
        table = []
        for u in g.elements:
            row = []
            for v in g.elements:
                w = g.multiply(u, v)
                row.append((w.index, self.cocycle.value(u, v)))
            table.append(row)
        return table

    def product_vector(self, a, b):
        """Product of two coefficient vectors on the N_w basis."""
        out = [Fraction(0)] * self.n
        for i, ca in enumerate(a):
            if not ca:
                continue
            row = self._mult[i]
            for j, cb in enumerate(b):
                if cb:
                    idx, c = row[j]
                    out[idx] = out[idx] + ca * cb * c
        return out

    def _center_basis(self):
        # z central iff z N_g = N_g z for the group generators g
        gens = [self.group.simple(i) for i in range(self.group.rs.rank)]
        gens += [self.group.gamma_element(gi)
                 for gi in range(1, len(self.group.gamma_elements))]
        rows = []
        for g in gens:
            gi = g.index
            # coefficient of N_w in (z N_g - N_g z) as a linear map of z
            m = [[Fraction(0)] * self.n for _ in range(self.n)]
            for v in range(self.n):
                idx, c = self._mult[v][gi]
                m[idx][v] += c
                idx2, c2 = self._mult[gi][v]
                m[idx2][v] -= c2
            rows.extend(m)
        return nullspace(rows)

    def _center_structure(self):
        """Products of centre basis vectors, expanded back in that basis."""
        basis = self.center
        pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
        prods = coordinates(basis, [self.product_vector(basis[i], basis[j])
                                    for i, j in pairs])
        return dict(zip(pairs, prods))

    def _split_blocks(self):
        m = len(self.center)
        # identity of the algebra in centre coordinates
        one, = coordinates(self.center, [_basis_vector(self.n, self.group.identity.index)])

        idempotents = [one]
        for basis_index in range(m):
            direction = [Fraction(0)] * m
            direction[basis_index] = Fraction(1)
            refined = []
            for e in idempotents:
                refined.extend(self._refine(e, direction))
            idempotents = refined
        blocks = []
        for e in idempotents:
            gdeg = self._block_field_degree(e)
            if gdeg > 3:
                raise ValueError(
                    "a block requires splitting a number field of degree > 3; "
                    "outside the supported twisted-character scope")
            vec = self._center_to_vector(e)
            tr = self.n * vec[self.group.identity.index]
            d2 = Fraction(tr, gdeg)
            d = _exact_sqrt(d2)
            blocks.append((gdeg, d, vec))
        # deterministic order: by (d, g, idempotent vector)
        blocks.sort(key=lambda b: (b[1], b[0], b[2]))
        return [
            IrreducibleBlock(index=i, idempotent=vec, field_degree=g, dim=d,
                             character={})
            for i, (g, d, vec) in enumerate(blocks)]

    def _refine(self, e, direction):
        """Split the idempotent e along rational eigenvalues of mult-by-z."""
        sub = self._sub_basis(e)
        if len(sub) <= 1:
            return [e]
        op = transpose(coordinates(sub, [self._center_multiply(direction, v) for v in sub]))
        mp = min_poly(op)
        roots = rational_roots(mp)
        if not roots:
            return [e]
        # primary decomposition along (x - root)^mult and the co-prime rest
        factors = []
        rest = mp
        for root in roots:
            mult, rest = root_multiplicity(rest, root)
            factors.append(_poly_product([[-root, Fraction(1)]] * mult))
        if len(rest) > 1:
            factors.append(rest)
        if len(factors) <= 1:
            return [e]
        out = []
        for f in factors:
            co = poly_trim(list(_poly_product([g for g in factors if g is not f])))
            g, u, v = poly_ext_gcd(f, co)
            assert len(g) == 1, "primary factors must be coprime"
            # idempotent for this factor: (v * co)(z) applied to e
            proj_poly = poly_mul(v, co)
            out.append(self._apply_center_poly(proj_poly, direction, e))
        return [o for o in out if any(c != 0 for c in o)]

    def _sub_basis(self, e):
        """Basis of Z * e inside the centre coordinates."""
        m = len(self.center)
        vecs = []
        for i in range(m):
            direction = [Fraction(0)] * m
            direction[i] = Fraction(1)
            vecs.append(self._center_multiply(direction, e))
        rows, pivots = _row_space(vecs)
        return rows

    def _center_multiply(self, a, b):
        m = len(self.center)
        out = [Fraction(0)] * m
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    col = self._center_products[i, j]
                    for t in range(m):
                        out[t] += ca * cb * col[t]
        return out

    def _apply_center_poly(self, poly, direction, e):
        """p(z) * e evaluated inside the centre, z = the direction element."""
        acc = [Fraction(0)] * len(self.center)
        power = e
        for c in poly:
            if c:
                acc = [a + c * p for a, p in zip(acc, power)]
            power = self._center_multiply(direction, power)
        return acc

    def _block_field_degree(self, e):
        return len(self._sub_basis(e))

    def _center_to_vector(self, coeffs):
        return mat_mul([coeffs], self.center)[0]

    # -- characters and multiplicities --------------------------------------------------
    def _label_blocks(self):
        for b in self.blocks:
            if b.field_degree != 1:
                continue
            chi = {}
            for w in self.group.elements:
                # trace_reg(N_w e) = d * chi(w); coefficient of N_e carries it
                prod = self.product_vector(_basis_vector(self.n, w.index), b.idempotent)
                val = self.n * prod[self.group.identity.index] / b.dim
                chi[w.index] = val
            b.character = chi
            if all(v == 1 for v in chi.values()):
                b.name = "triv"
            elif all(chi[w.index] == w.sign() for w in self.group.elements):
                b.name = "sgn"
        # sanity: block dimensions fill the algebra
        total = sum(b.field_degree * b.dim ** 2 for b in self.blocks)
        assert total == self.n, f"block dimensions sum to {total}, expected {self.n}"

    def multiplicities(self, matrices: dict[int, list]) -> list[Fraction]:
        """Multiplicity of each block in a module given by N_w matrices.

        `matrices` maps every group element index to its action matrix.  For
        field degree g the reported number is the common multiplicity of the
        g conjugate irreducibles.
        """
        # tr(sum c_w M_w) = sum c_w tr(M_w): one trace per group element
        traces = {wi: trace(m) for wi, m in matrices.items()}
        out = []
        for b in self.blocks:
            tr = sum((c * traces[wi] for wi, c in enumerate(b.idempotent) if c), Fraction(0))
            mult = tr / (b.field_degree * b.dim)
            if mult.denominator != 1 or mult < 0:
                raise ValueError(f"non-integral multiplicity {mult} for block {b.index}")
            out.append(mult)
        return out


def _basis_vector(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _poly_product(ps):
    out = [Fraction(1)]
    for p in ps:
        out = poly_mul(out, p)
    return out


def _row_space(vectors):
    """Independent spanning subset (as rref rows) of a list of vectors."""
    rows, pivots = rref([list(v) for v in vectors])
    rows = [r for r in rows if any(c != 0 for c in r)]
    return rows, pivots


def _exact_sqrt(x: Fraction) -> int:
    if x.denominator != 1 or x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    n = int(x)
    r = math.isqrt(n)
    if r * r == n:
        return r
    raise ValueError(f"{n} is not a perfect square; block shape unexpected")
