"""
Finite dimensional modules, over the r = 1 specialization or at a value of r.

A module is a dimension, exact matrices for the coordinates x_i and every
group generator, plus the scalar value of r (1 over an r1 algebra).  All
defining relations are verified as matrix identities at construction, at
every group size: commuting coordinates, each generator's exchange with the
coordinates as the algebra's own exchange steps state it, and the twisted
group law through a presentation of W x| Gamma (the Coxeter relations of
the N_{s_i}, Gamma's conjugation of the simple reflections, and Gamma's
own products with their cocycle values).

Induction from a character of the polynomial part produces the module with
basis {N_w (x) 1}, w in the group's order (sorted by length).  Its matrices
are read off that structure, not straightened: every N generator is
monomial and every x matrix upper triangular with the W-orbit of the weight
on its diagonal, so the weights of an induced module are read off the
diagonal.  `action_matrix` still builds any element's matrix through the
straightening kernel; an oracle test compares the induced matrices with it,
so the module tests keep exercising the multiplication.

All matrix work goes through `linalg`, and a module holds its matrices as
`linalg.Matrix` values, integer rows over one denominator: `x_matrices`,
`generator_matrices` and `action(w)`.  `x`, `generators` and `group_matrix`
read them back as rows of Fractions.  Modules are rational: an algebra with
a cyclotomic order is rejected with a ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .groupalgebra import TwistedGroupAlgebra
from .hecke import HeckeAlgebra
from .linalg import Matrix, char_poly, identity, mat_add, mat_mul, mat_scale, mat_sub, \
    matrix, nullspace, restrict, split_space, transpose
from .scalars import exact_scalar, split_scalar

__all__ = [
    "FiniteDimModule", "WeightDatum", "induce_from_character",
    "weight_decomposition", "is_tempered", "is_essentially_discrete_series",
    "restrict_to_group_algebra", "classify_rank_one", "zeta_rank_one",
    "RankOneRecord", "generator_keys",
]

@dataclass(frozen=True)
class WeightDatum:
    """A joint generalized eigenvalue of the coordinate action."""

    weight: tuple               # exact coordinates, one per ambient dimension
    multiplicity: int

    def __repr__(self):
        return f"WeightDatum({tuple(str(c) for c in self.weight)}, mult={self.multiplicity})"


def generator_keys(algebra: HeckeAlgebra) -> dict:
    """Generator names s1, s2, ..., g1, ... to the keys of a module's generator matrices."""
    keys = {f"s{i + 1}": ("s", i) for i in range(algebra.rs.rank)}
    keys.update({f"g{gi}": ("g", gi) for gi in range(1, len(algebra.group.gamma_elements))})
    return keys


class FiniteDimModule:
    """Exact matrices for the generators of H(t, W x| Gamma, k, natural).

    `x_matrices` holds one square matrix per coordinate, and
    `group_matrices` one per key of `generator_keys`, each a list of rows
    of ints and Fractions (or a `linalg.Matrix`).  A missing or unknown
    generator, a wrong count of x matrices and a matrix of the wrong shape
    raise ValueError.
    """

    def __init__(self, algebra: HeckeAlgebra, x_matrices, group_matrices,
                 r_value=Fraction(1), validate=True):
        _require_rational(algebra)
        self.algebra = algebra
        if len(x_matrices) != algebra.rs.dim:
            raise ValueError(f"the module has {len(x_matrices)} x matrices, "
                             f"the algebra needs {algebra.rs.dim}")
        names = {key: name for name, key in generator_keys(algebra).items()}
        for key in group_matrices:
            if key not in names:
                raise ValueError(f"the algebra has no generator {key!r}")
        for key, name in names.items():
            if key not in group_matrices:
                raise ValueError(f"no matrix for the generator {name}")
        first = x_matrices[0] if x_matrices else next(iter(group_matrices.values()), [])
        if not isinstance(first, (list, tuple)):
            raise ValueError("module matrices must be lists of rows")
        self.dim = len(first)
        self.x_matrices = [self._square(m, f"x{i + 1}") for i, m in enumerate(x_matrices)]
        self.generator_matrices = {key: self._square(m, names[key])
                                   for key, m in group_matrices.items()}
        self.r_value = exact_scalar(r_value)
        if algebra.mode == "r1" and self.r_value != 1:
            raise ValueError("the r1 specialization fixes r = 1; rescale k instead")
        self._actions: dict[int, object] = {}
        if validate:
            problems = self.validate()
            if problems:
                raise ValueError(f"module relations fail: {problems[0]}")

    def _square(self, m, name):
        n = self.dim
        if not isinstance(m, (list, tuple)) or len(m) != n \
                or not all(isinstance(row, (list, tuple)) and len(row) == n for row in m):
            raise ValueError(f"the matrix of {name} must be {n} x {n}, the module's dimension")
        return matrix(m)

    # -- the matrices, read as Fractions ----------------------------------------------
    @property
    def x(self) -> list:
        return [m.fractions() for m in self.x_matrices]

    @property
    def generators(self) -> dict:
        return {key: m.fractions() for key, m in self.generator_matrices.items()}

    def group_matrix(self, w) -> list:
        """Matrix of N_w, as rows of Fractions."""
        return self.action(w).fractions()

    def action(self, w):
        """The Matrix of N_w, built once as its cached prefix's matrix times one generator.

        Cached reduced words are prefix-closed, so this is the product of the
        generator matrices along w.word, then the Gamma generator.
        """
        m = self._actions.get(w.index)
        if m is None:
            group = self.algebra.group
            if w.is_identity():
                m = identity(self.dim)
            else:
                if w.gamma:
                    prefix = group.word_element(w.word)
                    gen = self.generator_matrices[("g", w.gamma)]
                else:
                    prefix = group.word_element(w.word[:-1])
                    gen = self.generator_matrices[("s", w.word[-1])]
                m = gen if prefix.is_identity() else mat_mul(self.action(prefix), gen)
            self._actions[w.index] = m
        return m

    # -- validation -----------------------------------------------------------------------
    def validate(self) -> list[str]:
        """The defining relations as matrix identities, one message per failure:
        the x matrices commute; each generator g (s_i, then Gamma) has
        X(x_t) N_g = N_g X(moved_t) + corr_t(r) with the steps of
        `_linear_steps`, which is the braid relation (or Gamma conjugation)
        at xi = ^g x_t; and the group law, on a presentation of W x| Gamma:
        N_{s_i}^2 = 1, the braid relations (the two alternating products of
        length m_ij = (2, 3, 4, 6)[a_ij a_ji]), N_g N_{s_i} = N_{s_j} N_g for
        s_j = g s_i g^-1, and N_g N_h = c(g, h) N_{gh} on Gamma.

        The presentation fails on exactly the modules where N_g action(v) =
        c(g, v) action(gv) fails for some generator g and element v.  The
        algebra validates its cocycle, so it is normalized and its value
        depends on the Gamma parts only: c(s_i, v) = c(g, s_i) = c(s_j, g) =
        1.  The Coxeter relations make the N_{s_i} a representation of W, in
        which, by Matsumoto's theorem, the product along any reduced word is
        the same; with the Gamma relations, action(v) (that product along v's
        word, then N_gamma) is a c-projective representation.  Conversely
        each relation is the group law at one (generator, element) pair, or
        two such laws composed.
        """
        problems = []
        alg, n = self.algebra, self.generator_matrices
        group, rank, x = alg.group, alg.rs.rank, self.x_matrices
        d = len(x)
        for i in range(d):
            for j in range(i + 1, d):
                if mat_mul(x[i], x[j]) != mat_mul(x[j], x[i]):
                    problems.append(f"x{i + 1} and x{j + 1} do not commute")
        one = identity(self.dim)
        for name, (kind, i) in generator_keys(alg).items():
            ng = n[kind, i]
            family = "braid relation" if kind == "s" else "gamma conjugation"
            steps = _linear_steps(alg, i if kind == "s" else rank + i, self.r_value)
            products = [mat_mul(ng, xs) for xs in x]
            for t, (moved, corr) in enumerate(steps):
                rhs = mat_scale(one, corr)
                for s, a in moved:
                    rhs = mat_add(rhs, mat_scale(products[s], a))
                if mat_mul(x[t], ng) != rhs:
                    problems.append(f"{family} fails for {name}, x{t + 1}")
        for i in range(rank):
            if mat_mul(n["s", i], n["s", i]) != one:
                problems.append(f"group law fails at s{i + 1} s{i + 1} = 1")
        for i in range(rank):
            for j in range(i + 1, rank):
                m = (2, 3, 4, 6)[alg.rs.cartan[i][j] * alg.rs.cartan[j][i]]
                left, right = n["s", i], n["s", j]
                for t in range(1, m):
                    left = mat_mul(left, n["s", (i, j)[t % 2]])
                    right = mat_mul(right, n["s", (j, i)[t % 2]])
                if left != right:
                    words = [" ".join(f"s{(a, b)[t % 2] + 1}" for t in range(m))
                             for a, b in ((i, j), (j, i))]
                    problems.append(f"group law fails at {words[0]} = {words[1]}")
        for a in range(1, len(group.gamma_elements)):
            g = group.gamma_element(a)
            for i in range(rank):
                (j,) = group.multiply(group.multiply(g, group.simple(i)), group.inverse(g)).word
                if mat_mul(n["g", a], n["s", i]) != mat_mul(n["s", j], n["g", a]):
                    problems.append(f"group law fails at g{a} s{i + 1} = s{j + 1} g{a}")
            for b in range(1, len(group.gamma_elements)):
                h = group.gamma_element(b)
                ab = group.multiply(g, h).gamma
                target = mat_scale(n["g", ab] if ab else one, alg.cocycle.value(g, h))
                if mat_mul(n["g", a], n["g", b]) != target:
                    problems.append(f"group law fails at g{a} g{b} = c(g{a}, g{b}) "
                                    + (f"g{ab}" if ab else "1"))
        return problems

    def twist_by_character(self, eps) -> "FiniteDimModule":
        """Pull back along phi_eps: scale every N generator matrix by eps."""
        target = self.algebra.with_k(self.algebra.k.twisted(eps))
        gens = {}
        for (kind, i), m in self.generator_matrices.items():
            sign = eps(self.algebra.group.simple(i)) if kind == "s" else 1
            gens[(kind, i)] = mat_scale(m, sign)
        return FiniteDimModule(target, self.x_matrices, gens, self.r_value)

    def __repr__(self):
        return f"FiniteDimModule(dim={self.dim} over {self.algebra.describe()})"


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
    """The induced module with basis {N_w (x) 1}, w in the group's order.

    `weight` is a point of t in coordinate values, and r acts by `r_value`.
    The matrices are read off the module's structure, with no straightening:
    each N generator is monomial, N_g e_w = c(g, w) e_{gw}, and the x
    matrices come from `_x_matrices`.  They equal the `action_matrix` of
    each generator at (weight, r_value), which a test checks.
    """
    _require_rational(algebra)
    point = _point(algebra, weight)
    r = exact_scalar(r_value)
    group = algebra.group
    # left[g][w] = index of g w
    left = {g.index: [group.multiply(g, w).index for w in group.elements]
            for g in group.generators}
    mats = {key: _monomial_matrix(algebra, g, left[g.index])
            for key, g in zip(generator_keys(algebra).values(), group.generators)}
    x_mats = _x_matrices(algebra, point, r, left)
    return FiniteDimModule(algebra, x_mats, mats, r, validate=validate)


def _monomial_matrix(algebra: HeckeAlgebra, g, left) -> Matrix:
    """The Matrix of N_g on {N_w (x) 1}: column w holds c(g, w) in row g w."""
    elements = algebra.group.elements
    values = [split_scalar(algebra.cocycle.value(g, w)) for w in elements]
    den = lcm(*(d for _, d in values))
    rows = [[0] * len(elements) for _ in elements]
    for w, (c, d) in enumerate(values):
        rows[left[w]][w] = c * (den // d)
    return Matrix(rows, den)


def _linear_steps(algebra: HeckeAlgebra, j: int, r) -> list[tuple[list, Fraction]]:
    """Per coordinate t, x_t N_j = N_j moved_t + corr_t as ([(i, coefficient of
    x_i in moved_t)], corr_t at r), read from the algebra's `_steps` memo; j
    is the simple reflection s_j for j < rank, else Gamma element j - rank.

    moved_t = ^{s_j} x_t (or ^{g^-1} x_t) has int coefficients, the group
    acting on the coordinates by integer matrices, and corr_t = k_s r D_s x_t
    is a constant times r (zero for Gamma).
    """
    nvars = algebra.nvars
    out = []
    for t in range(algebra.rs.dim):
        e = tuple(int(i == t) for i in range(nvars))
        d, moved, corr = algebra._steps.get((e, j)) or algebra._step(e, j)
        out.append(([(f.index(1), c // d) for f, c in moved],
                    sum((c * r ** f[-1] for f, c in corr), Fraction(0)) / d))
    return out


def _x_matrices(algebra: HeckeAlgebra, weight, r, left) -> list[Matrix]:
    """The x matrices of the induced module at `weight`, with r acting by `r`.

    Columns are built in the group's order, which is sorted by length:
      * for a pure-Gamma element g, x_j N_g = N_g (^{g^-1} x_j), so
        X(x_j) e_g = (^{g^-1} x_j)(weight) e_g;
      * for w = s u with l(u) = l(w) - 1, x_j N_s = N_s (^s x_j) + k_s r D_s x_j
        and N_s N_u = N_w (a valid cocycle is normalized, so c(s, u) = 1), so
        X(x_j) e_w = N_s X(^s x_j) e_u + (k_s r D_s x_j) e_u.
    ^s x_j, k_s r D_s x_j and ^{g^-1} x_j are the exchange steps of
    `_linear_steps`.  The only fractions are the constants: the weight, the
    corrections at r and the pure-Gamma diagonal values.  Every column is a
    dict of integer numerators over `den`, the lcm of their denominators.
    """
    group, rank, dim = algebra.group, algebra.rs.rank, algebra.rs.dim
    # per simple reflection and coordinate j: ([(t, coefficient of x_t in ^s x_j)],
    # k_s r D_s x_j at r)
    simple = [_linear_steps(algebra, i, r) for i in range(rank)]
    # the diagonal value of each pure-Gamma element, per coordinate
    diagonal = {0: weight}
    for gi in range(1, len(group.gamma_elements)):
        diagonal[gi] = [sum((a * weight[t] for t, a in moved), Fraction(0))
                        for moved, _ in _linear_steps(algebra, rank + gi, r)]
    den = lcm(*(v.denominator for vs in diagonal.values() for v in vs),
              *(corr.denominator for per_j in simple for _, corr in per_j))

    cols = [[None] * len(group) for _ in range(dim)]
    for w in group.elements:
        wi = w.index
        if not w.word:
            for j, v in enumerate(diagonal[w.gamma]):
                cols[j][wi] = {wi: v.numerator * (den // v.denominator)}
            continue
        s_left = left[group.simple(w.word[0]).index]
        ui = s_left[wi]   # u = s w
        for j, (moved, corr) in enumerate(simple[w.word[0]]):
            col: dict[int, int] = {}
            for t, a in moved:
                for row, v in cols[t][ui].items():
                    col[s_left[row]] = col.get(s_left[row], 0) + a * v
            if corr:
                col[ui] = col.get(ui, 0) + corr.numerator * (den // corr.denominator)
            cols[j][wi] = col
    n = len(group)
    out = []
    for per_j in cols:
        rows = [[0] * n for _ in range(n)]
        for w, col in enumerate(per_j):
            for row, v in col.items():
                rows[row][w] = v
        out.append(Matrix(rows, den))
    return out


def action_matrix(algebra: HeckeAlgebra, element, point):
    """Left multiplication by `element` on the basis {N_w (x) 1}.

    Column w is the normal form of element * N_w with its polynomial
    coefficients evaluated at `point` (coordinate values, then r), as rows
    of scalars: Fractions, or `Cyc`s over a cyclotomic algebra.
    """
    n = len(algebra.group)
    rows = [[0] * n for _ in range(n)]
    for w in algebra.group.elements:
        for ui, p in algebra.multiply(element, algebra.N(w)).terms.items():
            rows[ui][w.index] = p.evaluate(point)
    return rows


def _point(algebra: HeckeAlgebra, weight) -> tuple:
    """`weight` as a point of t: one exact coordinate per ambient dimension.

    Each coordinate goes through `exact_scalar`, so a float, bool or complex
    one raises TypeError; a wrong count raises ValueError.  Every public
    function that takes a weight reads it through here.
    """
    point = tuple(exact_scalar(c) for c in weight)
    if len(point) != algebra.rs.dim:
        raise ValueError(f"weight needs {algebra.rs.dim} coordinates")
    return point


def weight_multiset_oracle(algebra: HeckeAlgebra, weight) -> list[tuple]:
    """{w . weight : w in the group}, computed purely from the group action."""
    pt = _point(algebra, weight)
    return sorted(algebra.group.act_point(w, pt) for w in algebra.group.elements)


def is_regular(algebra: HeckeAlgebra, weight) -> bool:
    pt = _point(algebra, weight)
    return all(algebra.group.act_point(w, pt) != pt
               for w in algebra.group.elements if not w.is_identity())


# ---------------------------------------------------------------------------
# weight decomposition
# ---------------------------------------------------------------------------

def weight_decomposition(module: FiniteDimModule) -> list[WeightDatum]:
    """Exact generalized joint eigenspace decomposition of the x action.

    When every x matrix is upper triangular, as on an induced module, the
    joint generalized eigenspaces of the commuting x matrices have the
    dimensions of the counts of the diagonal tuples, so the weights are read
    off the diagonal.  Any other module goes through `_split_weights`.
    """
    xs = module.x_matrices
    if not all(not any(row[:i]) for x in xs for i, row in enumerate(x)):
        return _split_weights(module)
    # each x has one positive den, so the numerator tuples sort as the weights do
    counts = Counter(tuple(x[i][i] for x in xs) for i in range(module.dim))
    return [WeightDatum(tuple(Fraction(v, x.den) for v, x in zip(key, xs)), m)
            for key, m in sorted(counts.items())]


def _split_weights(module: FiniteDimModule) -> list[WeightDatum]:
    """The weights by elimination: split the space along each x matrix in turn.

    Raises ValueError with the offending characteristic polynomial when a
    coordinate matrix has an irrational eigenvalue.
    """
    n = module.dim
    # (basis rows of the subspace, None for the whole space; partial weight)
    spaces = [(None, ())]
    for xi in module.x_matrices:
        new_spaces = []
        for basis, partial in spaces:
            for lam, sub in split_space(xi, basis):
                if lam is None:
                    raise ValueError(
                        "irrational weight detected; characteristic polynomial "
                        f"coefficients {[str(c) for c in char_poly(restrict(xi, basis))]}")
                new_spaces.append((sub, partial + (lam,)))
        spaces = new_spaces
    out: dict[tuple, int] = {}
    for basis, weight in spaces:
        out[weight] = out.get(weight, 0) + (n if basis is None else len(basis))
    data = [WeightDatum(w, m) for w, m in sorted(out.items()) if m]
    assert sum(d.multiplicity for d in data) == n
    return data


# ---------------------------------------------------------------------------
# temperedness
# ---------------------------------------------------------------------------

def is_tempered(module: FiniteDimModule) -> bool:
    """All weights in the closed antidominant cone with zero central part."""
    return _tempered(module.algebra.rs, weight_decomposition(module))


def is_essentially_discrete_series(module: FiniteDimModule) -> bool:
    """All weights strictly antidominant; the central part is unrestricted."""
    return _discrete_series(module.algebra.rs, weight_decomposition(module))


def _tempered(rs, data: list[WeightDatum]) -> bool:
    return all(rs.cone_position(d.weight).in_closed_cone for d in data)


def _discrete_series(rs, data: list[WeightDatum]) -> bool:
    return all(rs.cone_position(d.weight).strictly_negative_part for d in data)


# ---------------------------------------------------------------------------
# restriction to the twisted group algebra
# ---------------------------------------------------------------------------

def restrict_to_group_algebra(module: FiniteDimModule,
                              table: TwistedGroupAlgebra | None = None):
    """Multiplicity of each irreducible block in the restricted module.

    The N_w matrices are built here, by `action`, on first use.
    """
    table = table or TwistedGroupAlgebra(module.algebra.group, module.algebra.cocycle)
    return table, table.multiplicities({w.index: module.action(w)
                                        for w in module.algebra.group.elements})


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


def classify_rank_one(algebra: HeckeAlgebra):
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
        records.append(_record(name, mod, weight_decomposition(mod)))
    # the induced module at 0; irreducible iff k != 0
    if k != 0:
        ind0 = induce_from_character(algebra, (Fraction(0),))
        wd = weight_decomposition(ind0)
        if not _has_one_dim_submodule(ind0, wd):
            records.append(_record("pi_0", ind0, wd))
    # generic samples: irreducible two-dimensional principal series
    for lam in (Fraction(2), Fraction(5)):
        if lam in (k, -k, 0):
            continue
        ind = induce_from_character(algebra, (lam,))
        wd = weight_decomposition(ind)
        if not _has_one_dim_submodule(ind, wd):
            records.append(_record(f"pi_{lam}", ind, wd))
    return records


def _record(label, module, wd: list[WeightDatum]) -> RankOneRecord:
    """The record of a module from its one weight decomposition wd."""
    rs = module.algebra.rs
    return RankOneRecord(
        label=label, module=module, weights=wd,
        tempered=_tempered(rs, wd), discrete_series=_discrete_series(rs, wd),
        real_weights=True)


def _has_one_dim_submodule(module: FiniteDimModule, wd: list[WeightDatum]) -> bool:
    """Exact search for a common eigenvector of x and the N generators, per
    weight of the decomposition wd."""
    ns = module.generator_matrices[("s", 0)]
    for datum in wd:
        # eigenvectors for each x-eigenvalue, as rows, and their images under N_s
        shifted = mat_sub(module.x_matrices[0],
                          mat_scale(identity(module.dim), datum.weight[0]))
        kernel = nullspace(shifted)
        for v, img in zip(kernel, mat_mul(kernel, transpose(ns))):
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
