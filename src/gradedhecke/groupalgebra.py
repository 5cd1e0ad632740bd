"""
Exact decomposition of twisted group algebras C[W x| Gamma, natural].

The centre Z is computed as an exact nullspace.  Its multiplication
operators, one per centre basis vector, are m x m matrices; starting from
all of Z, `linalg.split_space` cuts every piece along each operator in turn
into the generalized eigenspaces of its rational eigenvalues and one piece
for the rest.  Every final piece is an ideal Z e, and its idempotent e is
the component of 1 in it.  Each such block is a matrix algebra over a
number field of degree g = dim Z e; blocks with g > 1 package g
Galois-conjugate complex irreducibles that share every rational
multiplicity, which is all the restriction functor ever needs here.  Block
data: idempotent, field degree g, matrix size d, with
trace_regular(e) = g * d^2.

The group-size cap keeps everything comfortably exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import coordinates, identity, mat_mul, nullspace, split_space, trace, transpose
from .weylgroups import Cocycle, ExtendedWeylGroup

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
        self.blocks = self._split_blocks(self._center_operators())
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

    def _center_operators(self):
        """Multiplication by each centre basis vector, on centre coordinates."""
        basis = self.center
        m = len(basis)
        prods = coordinates(basis, [self.product_vector(a, b) for a in basis for b in basis])
        # column j of operator i: the coordinates of z_i z_j
        return [transpose(prods[i * m:(i + 1) * m]) for i in range(m)]

    def _split_blocks(self, operators):
        pieces = [identity(len(self.center))]
        for op in operators:
            pieces = [rows for piece in pieces for _, rows in split_space(op, piece)]
        # each piece is an ideal Z e; e is the component of 1 in it
        ideals = [mat_mul(rows, self.center) for rows in pieces]
        one, = coordinates([v for ideal in ideals for v in ideal],
                           [_basis_vector(self.n, self.group.identity.index)])
        blocks = []
        start = 0
        for ideal in ideals:
            gdeg = len(ideal)
            if gdeg > 3:
                raise ValueError(
                    "a block requires splitting a number field of degree > 3; "
                    "outside the supported twisted-character scope")
            vec = mat_mul([one[start:start + gdeg]], ideal)[0]
            start += gdeg
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

    # -- characters and multiplicities --------------------------------------------------
    def _label_blocks(self):
        for b in self.blocks:
            if b.field_degree != 1:
                continue
            chi = {}
            for w in self.group.elements:
                # trace_reg(N_w e) = d * chi(w) is n times the N_1 coefficient
                # of N_w e, which only N_w N_{w^-1} = c(w, w^-1) N_1 reaches
                wi = self.group.inverse(w).index
                coeff = b.idempotent[wi] * self._mult[w.index][wi][1]
                chi[w.index] = self.n * coeff / b.dim
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


def _exact_sqrt(x: Fraction) -> int:
    if x.denominator != 1 or x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    n = int(x)
    r = math.isqrt(n)
    if r * r == n:
        return r
    raise ValueError(f"{n} is not a perfect square; block shape unexpected")
