"""
Finite dimensional modules over the r = 1 specialization.

A module is a dimension, exact matrices for the coordinates x_i and every
group generator, plus the scalar value of r.  All defining relations are
verified as matrix identities at construction: commuting coordinates, the
twisted group law, the Gamma conjugation rule and the braid relation with
its divided-difference correction.

Induction from a character of the polynomial part produces the module with
basis {N_w (x) 1}; its matrices come straight from the straightening kernel,
so every test on induced modules exercises the multiplication too.

All matrix work goes through `linalg`.  Modules are rational: an algebra
with a cyclotomic order is rejected with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groupalgebra import TwistedGroupAlgebra
from .hecke import HeckeAlgebra
from .linalg import char_poly, coordinates, identity, mat_add, mat_eq, mat_mul, mat_pow, \
    mat_scale, mat_sub, mat_vec, min_poly, nullspace, rational_roots, root_multiplicity, \
    transpose, zero_matrix
from .polynomials import Polynomial

__all__ = [
    "FiniteDimModule", "WeightDatum", "induce_from_character",
    "weight_decomposition", "is_tempered", "is_essentially_discrete_series",
    "restrict_to_group_algebra", "classify_rank_one", "zeta_rank_one",
    "RankOneRecord",
]

FULL_VALIDATION_CAP = 16


@dataclass(frozen=True)
class WeightDatum:
    """A joint generalized eigenvalue of the coordinate action."""

    weight: tuple               # exact coordinates, one per ambient dimension
    multiplicity: int

    def __repr__(self):
        return f"WeightDatum({tuple(str(c) for c in self.weight)}, mult={self.multiplicity})"


class FiniteDimModule:
    """Exact matrices for the generators of H(t, W x| Gamma, k, natural)."""

    def __init__(self, algebra: HeckeAlgebra, x_matrices, group_matrices,
                 r_value=Fraction(1), validate=True):
        _require_rational(algebra)
        self.algebra = algebra
        self.dim = len(x_matrices[0]) if x_matrices else len(next(iter(group_matrices.values())))
        self.x = [_as_matrix(m) for m in x_matrices]
        self.r_value = Fraction(r_value)
        # generator matrices: one per simple reflection, one per Gamma generator index
        self.generators = {key: _as_matrix(m) for key, m in group_matrices.items()}
        self._group_cache: dict[int, list] = {}
        if validate:
            problems = self.validate()
            if problems:
                raise ValueError(f"module relations fail: {problems[0]}")

    # -- generator access -------------------------------------------------------------
    def simple_matrix(self, i: int):
        return self.generators[("s", i)]

    def gamma_matrix(self, gi: int):
        if gi == 0:
            return identity(self.dim)
        return self.generators[("g", gi)]

    def group_matrix(self, w) -> list:
        """Matrix of N_w assembled along the cached reduced word."""
        if w.index in self._group_cache:
            return self._group_cache[w.index]
        m = identity(self.dim)
        for i in w.word:
            m = mat_mul(m, self.simple_matrix(i))
        if w.gamma:
            m = mat_mul(m, self.gamma_matrix(w.gamma))
        self._group_cache[w.index] = m
        return m

    def all_group_matrices(self) -> dict[int, list]:
        return {w.index: self.group_matrix(w) for w in self.algebra.group.elements}

    def linear_poly_matrix(self, poly: Polynomial):
        """Action matrix of a linear polynomial in the coordinates and r."""
        out = zero_matrix(self.dim, self.dim)
        for e, c in poly.terms.items():
            deg = sum(e)
            if deg == 0:
                base = identity(self.dim)
            elif deg != 1:
                raise ValueError("only linear polynomials here")
            elif e.index(1) < self.algebra.rs.dim:
                base = self.x[e.index(1)]
            else:
                base = mat_scale(identity(self.dim), self.r_value)
            out = mat_add(out, mat_scale(base, c))
        return out

    # -- validation -----------------------------------------------------------------------
    def validate(self) -> list[str]:
        problems = []
        alg = self.algebra
        rs = alg.rs
        d = rs.dim
        # commuting coordinates
        for i in range(d):
            for j in range(i + 1, d):
                if not mat_eq(mat_mul(self.x[i], self.x[j]), mat_mul(self.x[j], self.x[i])):
                    problems.append(f"x{i + 1} and x{j + 1} do not commute")
        # braid relation  N_s X(xi) - X(^s xi) N_s = k r X(Demazure xi)
        for i in range(rs.rank):
            s = alg.group.simple(i)
            ns = self.simple_matrix(i)
            for j in range(d):
                xi = Polynomial.variable(alg.nvars, j)
                lhs = mat_mul(ns, self.x[j])
                moved = alg.group.act_polynomial(s, xi)
                rhs = mat_mul(self.linear_poly_matrix(moved), ns)
                delta = alg._demazure(i, xi)  # a constant for linear xi
                corr = mat_scale(identity(self.dim),
                                 alg._k_simple[i] * self.r_value * delta.constant_term())
                if not mat_eq(lhs, mat_add(rhs, corr)):
                    problems.append(f"braid relation fails for s{i + 1}, x{j + 1}")
        # Gamma conjugation: N_g X(xi) = X(^g xi) N_g
        for gi in range(1, len(alg.group.gamma_elements)):
            g = alg.group.gamma_element(gi)
            ng = self.gamma_matrix(gi)
            for j in range(d):
                xi = Polynomial.variable(alg.nvars, j)
                lhs = mat_mul(ng, self.x[j])
                rhs = mat_mul(self.linear_poly_matrix(alg.group.act_polynomial(g, xi)), ng)
                if not mat_eq(lhs, rhs):
                    problems.append(f"gamma conjugation fails for g{gi}, x{j + 1}")
        # twisted group law, on generator * element pairs
        gens = [alg.group.simple(i) for i in range(rs.rank)]
        gens += [alg.group.gamma_element(gi)
                 for gi in range(1, len(alg.group.gamma_elements))]
        elements = alg.group.elements if len(alg.group) <= FULL_VALIDATION_CAP \
            else [alg.group.identity] + gens
        for g in gens:
            mg = self.group_matrix(g)
            for v in elements:
                mv = self.group_matrix(v)
                w = alg.group.multiply(g, v)
                c = alg.cocycle.value(g, v)
                target = mat_scale(self.group_matrix(w), c)
                if not mat_eq(mat_mul(mg, mv), target):
                    problems.append(f"group law fails at {g!r} * {v!r}")
                    break
        return problems

    def twist_by_character(self, eps) -> "FiniteDimModule":
        """Pull back along phi_eps: scale every N generator matrix by eps."""
        target = self.algebra.with_k(self.algebra.k.twisted(eps))
        gens = {}
        for (kind, i), m in self.generators.items():
            sign = eps(self.algebra.group.simple(i)) if kind == "s" else 1
            gens[(kind, i)] = mat_scale(m, Fraction(sign))
        return FiniteDimModule(target, [m for m in self.x], gens, self.r_value)

    def __repr__(self):
        return f"FiniteDimModule(dim={self.dim} over {self.algebra.describe()})"


def _as_matrix(m):
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in m]


def _require_rational(algebra: HeckeAlgebra):
    if algebra.cyclotomic_order not in (None, 1):
        raise ValueError(
            "modules need rational parameters; this algebra has cyclotomic "
            f"order {algebra.cyclotomic_order}")


# ---------------------------------------------------------------------------
# induction from characters of the polynomial part
# ---------------------------------------------------------------------------

def induce_from_character(algebra: HeckeAlgebra, weight, r_value=Fraction(1),
                          validate=True) -> FiniteDimModule:
    """The induced module with basis {N_w (x) 1}, via straightening.

    `weight` is a point of t in coordinate values; generators act through
    the normal form of g * N_w evaluated at (weight, r_value).
    """
    group = algebra.group
    rs = algebra.rs
    _require_rational(algebra)
    if len(weight) != rs.dim:
        raise ValueError(f"weight needs {rs.dim} coordinates")
    if algebra.mode == "r1" and Fraction(r_value) != 1:
        raise ValueError("the r1 specialization fixes r = 1; rescale k instead")
    point = [Fraction(c) for c in weight] + [Fraction(r_value)]
    x_mats = [action_matrix(algebra, algebra.x(j), point) for j in range(rs.dim)]
    gens = {}
    for i in range(rs.rank):
        gens[("s", i)] = action_matrix(algebra, algebra.N(group.simple(i)), point)
    for gi in range(1, len(group.gamma_elements)):
        gens[("g", gi)] = action_matrix(algebra, algebra.N(group.gamma_element(gi)), point)
    return FiniteDimModule(algebra, x_mats, gens, Fraction(r_value), validate=validate)


def action_matrix(algebra: HeckeAlgebra, element, point):
    """Left multiplication by `element` on the basis {N_w (x) 1}.

    Column w is the normal form of element * N_w with its polynomial
    coefficients evaluated at `point` (coordinate values, then r).
    """
    n = len(algebra.group)
    cols = []
    for w in algebra.group.elements:
        col = [Fraction(0)] * n
        for ui, p in algebra.multiply(element, algebra.N(w)).terms.items():
            col[ui] = p.evaluate(point)
        cols.append(col)
    return transpose(cols)


def weight_multiset_oracle(algebra: HeckeAlgebra, weight) -> list[tuple]:
    """{w . weight : w in the group}, computed purely from the group action."""
    return sorted(algebra.group.act_point(w, tuple(Fraction(c) for c in weight))
                  for w in algebra.group.elements)


def is_regular(algebra: HeckeAlgebra, weight) -> bool:
    pt = tuple(Fraction(c) for c in weight)
    if len(pt) != algebra.rs.dim:
        raise ValueError(f"weight needs {algebra.rs.dim} coordinates")
    return all(algebra.group.act_point(w, pt) != pt
               for w in algebra.group.elements if not w.is_identity())


# ---------------------------------------------------------------------------
# weight decomposition
# ---------------------------------------------------------------------------

def weight_decomposition(module: FiniteDimModule) -> list[WeightDatum]:
    """Exact generalized joint eigenspace decomposition of the x action.

    Raises ValueError with the offending characteristic polynomial when a
    coordinate matrix has an irrational eigenvalue.
    """
    n = module.dim
    spaces = [(identity(n), ())]  # (basis rows of the subspace, partial weight)
    for xi in module.x:
        new_spaces = []
        for basis, partial in spaces:
            op = transpose(coordinates(basis, [mat_vec(xi, v) for v in basis]))
            mp = min_poly(op)
            eigs = rational_roots(mp)
            dim_found = 0
            pieces = []
            for lam in eigs:
                # the generalized eigenspace is the kernel of (op - lam)^m, m the
                # multiplicity of lam in the minimal polynomial
                m, _ = root_multiplicity(mp, lam)
                shifted = mat_sub(op, mat_scale(identity(len(op)), lam))
                sub = mat_mul(nullspace(mat_pow(shifted, m)), basis)
                dim_found += len(sub)
                pieces.append((sub, partial + (lam,)))
            if dim_found != len(basis):
                cp = char_poly(op)
                raise ValueError(
                    "irrational weight detected; characteristic polynomial "
                    f"coefficients {[str(c) for c in cp]}")
            new_spaces.extend(pieces)
        spaces = new_spaces
    out: dict[tuple, int] = {}
    for basis, weight in spaces:
        full = weight + tuple(Fraction(0) for _ in range(module.algebra.rs.dim - len(weight)))
        out[full] = out.get(full, 0) + len(basis)
    data = [WeightDatum(w, m) for w, m in sorted(out.items()) if m]
    assert sum(d.multiplicity for d in data) == n
    return data


# ---------------------------------------------------------------------------
# temperedness
# ---------------------------------------------------------------------------

def is_tempered(module: FiniteDimModule) -> bool:
    """All weights in the closed antidominant cone with zero central part."""
    rs = module.algebra.rs
    return all(rs.cone_position(d.weight).in_closed_cone
               for d in weight_decomposition(module))


def is_essentially_discrete_series(module: FiniteDimModule) -> bool:
    """All weights strictly antidominant; the central part is unrestricted."""
    rs = module.algebra.rs
    return all(rs.cone_position(d.weight).strictly_negative_part
               for d in weight_decomposition(module))


# ---------------------------------------------------------------------------
# restriction to the twisted group algebra
# ---------------------------------------------------------------------------

def restrict_to_group_algebra(module: FiniteDimModule,
                              table: TwistedGroupAlgebra | None = None):
    """Multiplicity of each irreducible block in the restricted module."""
    table = table or TwistedGroupAlgebra(module.algebra.group, module.algebra.cocycle)
    mults = table.multiplicities(module.all_group_matrices())
    return table, [int(m) for m in mults]


# ---------------------------------------------------------------------------
# rank one: complete classification and the matching bijection
# ---------------------------------------------------------------------------

@dataclass
class RankOneRecord:
    label: str
    module: FiniteDimModule
    weights: list[WeightDatum] = field(default_factory=list)
    tempered: bool = False
    discrete_series: bool = False
    real_weights: bool = True

    def summary(self):
        w = ", ".join(str(d.weight[0]) for d in self.weights)
        flags = []
        if self.tempered:
            flags.append("tempered")
        if self.discrete_series:
            flags.append("essentially-discrete-series")
        return f"{self.label}: dim {self.module.dim}, weights [{w}]" + \
            (" (" + ", ".join(flags) + ")" if flags else "")


def classify_rank_one(algebra: HeckeAlgebra, generic_samples=(Fraction(2), Fraction(5))):
    """All irreducible modules of the rank-one specialization with real weights.

    Requires an A1 root system with trivial Gamma.  Every irreducible is a
    quotient of some induced module ind(lambda); induced modules share the
    central character of lambda, and ind(lambda) = ind(-lambda) on central
    characters, so the one-dimensional constituents at lambda = +/-k plus
    the irreducible two-dimensional ind(lambda) for lambda != +/-k exhaust
    the list.  Reducibility happens exactly at the finitely many points
    where a one-dimensional submodule exists, which the construction below
    finds by exact eigenvector search.
    """
    rs = algebra.rs
    if rs.rank != 1 or len(algebra.group.gamma_elements) != 1:
        raise ValueError("rank-one classification needs A1 with trivial Gamma")
    if algebra.mode != "r1":
        raise ValueError("classification works in the r = 1 specialization")
    k = algebra._k_simple[0]

    records = []
    # one-dimensional characters: N_s -> eta, x -> eta * k
    for eta, name in ((Fraction(-1), "Steinberg"), (Fraction(1), "trivial")):
        xmat = [[eta * k]]
        gens = {("s", 0): [[eta]]}
        mod = FiniteDimModule(algebra, [xmat], gens)
        rec = _record(name, mod)
        records.append(rec)
    # the induced module at 0; irreducible iff k != 0
    ind0 = induce_from_character(algebra, (Fraction(0),))
    if k != 0 and not _has_one_dim_submodule(ind0):
        records.append(_record("pi_0", ind0))
    # generic samples: irreducible two-dimensional principal series
    for lam in generic_samples:
        lam = Fraction(lam)
        if lam in (k, -k, 0):
            continue
        ind = induce_from_character(algebra, (lam,))
        if not _has_one_dim_submodule(ind):
            records.append(_record(f"pi_{lam}", ind))
    return records


def _record(label, module) -> RankOneRecord:
    wd = weight_decomposition(module)
    return RankOneRecord(
        label=label, module=module, weights=wd,
        tempered=is_tempered(module),
        discrete_series=is_essentially_discrete_series(module),
        real_weights=True)


def _has_one_dim_submodule(module: FiniteDimModule) -> bool:
    """Exact search for a common eigenvector of x and the N generators."""
    for datum in weight_decomposition(module):
        # eigenvectors for each x-eigenvalue
        shifted = mat_sub(module.x[0], mat_scale(identity(module.dim), datum.weight[0]))
        for v in nullspace(shifted):
            img = mat_vec(module.simple_matrix(0), v)
            # img proportional to v?
            pivot = next((i for i, c in enumerate(v) if c), None)
            if pivot is None:
                continue
            if all(img[i] * v[pivot] == img[pivot] * v[i] for i in range(module.dim)):
                return True
    return False


def zeta_rank_one(algebra: HeckeAlgebra):
    """The matching of tempered real-weight irreducibles with W-irreducibles.

    Sorts the tempered list by (dimension, weights); peeling then assigns to
    each module the unique not-yet-used constituent of its restriction.  A
    failure to peel is reported as an error, never papered over.
    """
    table = TwistedGroupAlgebra(algebra.group, algebra.cocycle)
    tempered = [r for r in classify_rank_one(algebra) if r.tempered and r.real_weights]
    tempered.sort(key=lambda r: (r.module.dim, [d.weight for d in r.weights]))
    assignments = {}
    used = set()
    rows = {}
    for rec in tempered:
        _, mults = restrict_to_group_algebra(rec.module, table)
        rows[rec.label] = mults
        options = [i for i, m in enumerate(mults) if m > 0 and i not in used]
        if len(options) != 1:
            raise ValueError(
                f"peeling is not unipotent at {rec.label}: options {options}")
        assignments[rec.label] = table.blocks[options[0]]
        used.add(options[0])
    if len(assignments) != len(tempered):
        raise ValueError("matching failed to exhaust the tempered list")
    return table, assignments, rows
