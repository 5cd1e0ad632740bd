"""
Koszul complexes and Ext computations over the graded algebra.

Three pipelines, all exact:

* `koszul_resolution` - the standard complex on the polynomial algebra in
  the coordinates and r, with contraction differentials; d. d = 0 is
  checked symbolically and exactness probed at exact points.

* `ext_self_induced` - Ext of an induced module against itself at a
  regular weight, computed by restricting the induced module to the
  polynomial part.  The contraction builder of `koszul_resolution` gives
  K (x) M with the blocks +-A_i, A_i the shifted coordinate operators, as
  its entries; Koszul self-duality H^t(Hom(K, M)) = H_{m-t}(K (x) M) turns
  its homology into the cochain cohomology.  The operator of r, R - r, is
  zero on a module at r, and the Koszul complex of (A, 0) is the cone of a
  zero map, so its cohomology is that of K(A) times (1 + t): the zero block
  is never built.  The expected answer is binomial(d + 1, n).

* `koszul_dual_dims` - graded dimensions of Ext against the degree-zero
  part: its free resolution has rank binomial(d + 1, n) in degree n, and
  every differential induced on Hom vanishes for degree reasons, leaving
  binomial(d + 1, n) * |W x| Gamma| in degree n.  The formula is returned
  as it stands; `verification.suite_homology` checks the vanishing through
  the straightening kernel.

Scalar matrices are `linalg.Matrix` values, integer rows over one
denominator, and all their work goes through `linalg`.  The one product of
polynomial-entry matrices, the symbolic d . d = 0 check of
`ChainComplex.validate`, is `_poly_mat_mul` here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .hecke import HeckeAlgebra
from .linalg import Matrix, block_matrix, identity, mat_scale, mat_sub, matrix, rank, \
    zero_matrix
from .modules import FiniteDimModule, _point, induce_from_character, is_regular
from .polynomials import Polynomial
from .scalars import exact_scalar

__all__ = [
    "ChainComplex", "ExtTable", "koszul_resolution",
    "projective_resolution_H0", "koszul_dual_dims", "ext_self_induced",
]


@dataclass
class ChainComplex:
    """Free modules with differentials d: C_n -> C_{n-1}.

    The entries are Polynomials, or, after `evaluate`, scalars held as
    `linalg.Matrix` values, whose homology `homology_dims` reads off ranks.
    """

    ranks: list[int]
    differentials: list            # differentials[n]: C_{n+1} -> C_n as a matrix
    nvars: int

    def validate(self):
        """d . d = 0, checked exactly on polynomial entries."""
        for n in range(len(self.differentials) - 1):
            a = self.differentials[n]          # C_{n+1} -> C_n
            b = self.differentials[n + 1]      # C_{n+2} -> C_{n+1}
            if a and b and any(any(row) for row in _poly_mat_mul(a, b)):
                raise ValueError("d . d != 0 in the complex")

    def evaluate(self, point) -> "ChainComplex":
        """Substitute exact scalars for the variables."""
        diffs = []
        for m in self.differentials:
            diffs.append(matrix([[p.evaluate(point) for p in row] for row in m]))
        return ChainComplex(self.ranks, diffs, nvars=0)

    def homology_dims(self) -> list[int]:
        """Dimensions of homology for a scalar-entry complex."""
        n = len(self.ranks)
        ranks_of_d = []
        for m in self.differentials:
            ranks_of_d.append(rank(m) if m and m[0] else 0)
        out = []
        for i in range(n):
            incoming = ranks_of_d[i] if i < len(ranks_of_d) else 0
            outgoing = ranks_of_d[i - 1] if i >= 1 else 0
            out.append(self.ranks[i] - incoming - outgoing)
        return out

    def to_json(self) -> dict:
        """Inspectable form: ranks plus differential entries as text, a
        `linalg.Matrix` read back as its Fractions."""
        names = [f"x{i + 1}" for i in range(max(self.nvars - 1, 0))] + ["r"]
        diffs = []
        for m in self.differentials:
            rows = m.fractions() if isinstance(m, Matrix) else m
            diffs.append([[p.to_string(names) if isinstance(p, Polynomial) else str(p)
                           for p in row] for row in rows])
        return {"ranks": list(self.ranks), "differentials": diffs}


def _poly_mat_mul(a, b):
    """Product of two nonempty matrices of Polynomial entries, skipping zero entries."""
    zero = a[0][0] - a[0][0]
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), zero) for col in cols]
            for row in a]


@dataclass
class ExtTable:
    dims: dict[int, int]

    def as_tuple(self):
        top = max(self.dims) if self.dims else -1
        return tuple(self.dims.get(n, 0) for n in range(top + 1))

    def to_json(self):
        return {str(n): d for n, d in sorted(self.dims.items())}

    def __repr__(self):
        return f"ExtTable({self.to_json()})"


def _contraction_grids(entries, zero):
    """The contraction differentials d_0 .. d_{m-1} on m generators, as grids.

    Level n is the n-subsets of range(m) in order; d_n sends the subset S of
    level n + 1 to sum_p (-1)^p e_{S[p]} (S without S[p]).  `entries` holds
    (e_v, -e_v) per generator, Polynomials or blocks; other cells are `zero`.
    """
    m = len(entries)
    levels = [list(combinations(range(m), n)) for n in range(m + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    grids = []
    for n in range(m):
        grid = [[zero] * len(levels[n + 1]) for _ in levels[n]]
        for j, subset in enumerate(levels[n + 1]):
            for pos, v in enumerate(subset):
                grid[index[n][subset[:pos] + subset[pos + 1:]]][j] = entries[v][pos % 2]
        grids.append(grid)
    return grids


def koszul_resolution(nvars: int) -> ChainComplex:
    """The standard resolution of the origin over a polynomial algebra.

    `nvars` is the number of variables (for the algebra on t + the line,
    pass dim t + 1).  Ranks are binomial(nvars, n); differentials contract
    with the variables; d . d = 0 is verified.
    """
    variables = [Polynomial.variable(nvars, i) for i in range(nvars)]
    diffs = _contraction_grids([(x, -x) for x in variables], Polynomial.zero(nvars))
    complex_ = ChainComplex([comb(nvars, n) for n in range(nvars + 1)], diffs, nvars)
    complex_.validate()
    return complex_


def generic_point_exactness(complex_: ChainComplex, point) -> bool:
    """Homology vanishes except in degree zero after evaluation."""
    dims = complex_.evaluate(point).homology_dims()
    return all(d == 0 for d in dims[1:])


# ---------------------------------------------------------------------------
# the free resolution of the degree-zero part over H
# ---------------------------------------------------------------------------

def projective_resolution_H0(algebra: HeckeAlgebra) -> ChainComplex:
    """Free H-modules H (x) Lambda^n(t + line) with contraction differentials.

    Entries are the degree-two generators x_i and r, so every differential
    matrix is homogeneous of that degree; d . d = 0 holds because the
    entries commute in H.  These are all the polynomial variables, in
    order, so the complex is the Koszul resolution on them.
    """
    if algebra.mode == "r1":
        raise ValueError("the graded resolution needs the generic algebra")
    return koszul_resolution(algebra.nvars)


def koszul_dual_dims(algebra: HeckeAlgebra) -> dict[int, int]:
    """Graded dimensions of Ext against the degree-zero part.

    Pushes the free resolution of `projective_resolution_H0` through
    Hom(-, H_0), giving Hom(Lambda^n(t + line), H_0) in degree n, of dimension
    binomial(dim t + 1, n) * |W x| Gamma|.  Every induced map is zero: its
    entries act by the degree-two generators x_i and r, and H_0 = H / H H_{>0}
    lies in degree zero, so each of them sends H_0 into its degree-two part,
    which is zero.  The verification suite checks this vanishing through the
    straightening kernel.
    """
    if algebra.mode == "r1":
        raise ValueError("Koszul duality data lives over the generic algebra")
    nvars, order = algebra.nvars, len(algebra.group)
    return {n: comb(nvars, n) * order for n in range(nvars + 1)}


# ---------------------------------------------------------------------------
# Ext of induced modules
# ---------------------------------------------------------------------------

def ext_self_induced(algebra: HeckeAlgebra, weight, r_value=Fraction(1),
                     module: FiniteDimModule | None = None) -> ExtTable:
    """Ext^*(ind(weight), ind(weight)) at a regular weight.

    Adjunction trades the first induced argument for the polynomial algebra,
    so the table is the cohomology of the Koszul cochain complex with the
    shifted coordinate operators and R - r acting on the restricted induced
    module.  R - r is zero there, and the complex of (A, 0) is K(A) (x)
    (M <- M with the zero map), so H^t = H^t(K(A)) + H^{t-1}(K(A)): the
    complex is built on the d coordinate operators alone.  Raises for
    non-regular weights, where that identification breaks, and for a
    `module` that cannot be ind(weight) (see `_check_induced`).
    """
    point = _point(algebra, weight)
    r_value = exact_scalar(r_value)
    if not is_regular(algebra, point):
        raise ValueError(f"weight {weight} is not regular for this group")
    if algebra.mode != "r1":
        raise ValueError("Ext tables are computed in the r = 1 specialization")
    if module is not None:
        _check_induced(algebra, point, module)
    mod = module or induce_from_character(algebra, point, r_value)
    n = mod.dim
    # commuting operators X_i - weight_i; R - r_value is zero, a factor (1 + t)
    ops = [mat_sub(mod.x_matrices[i], mat_scale(identity(n), point[i]))
           for i in range(algebra.rs.dim)]
    dims = _koszul_cohomology_dims(ops)
    return ExtTable(dict(enumerate(a + b for a, b in zip(dims + [0], [0] + dims))))


def _check_induced(algebra: HeckeAlgebra, point, module: FiniteDimModule):
    """Raise ValueError unless `module` is over a compatible algebra, of
    dimension |W x| Gamma|, with e_0 = N_1 (x) 1 of weight `point`."""
    if not algebra.compatible(module.algebra):
        raise ValueError("the module belongs to an incompatible algebra")
    if module.dim != len(algebra.group):
        raise ValueError(f"the module has dimension {module.dim}, "
                         f"an induced module {len(algebra.group)}")
    for j, x in enumerate(module.x_matrices):
        if x[0][0] != point[j] * x.den or any(row[0] for row in x[1:]):
            raise ValueError(f"column 0 of x{j + 1} is not {point[j]} e_0: "
                             "the module is not induced at this weight")


def _koszul_cohomology_dims(ops) -> list[int]:
    """dim H^t(Hom(K, M)) for t = 0..m, for m commuting `linalg.Matrix` operators on M.

    K (x) M has the blocks +-ops[i] as contraction entries; its d . d has the
    entries +-[A_i, A_j], zero as the operators commute (a module's x matrices
    are checked to).  Self-duality reads the cohomology off its homology in reverse.
    """
    m, n = len(ops), len(ops[0])
    blocks = [block_matrix(grid) for grid in
              _contraction_grids([(a, mat_scale(a, -1)) for a in ops], zero_matrix(n, n))]
    complex_ = ChainComplex([comb(m, t) * n for t in range(m + 1)], blocks, nvars=0)
    return complex_.homology_dims()[::-1]
