"""
Root-graded Lie algebras and the ad-nilpotency parameter rule.

A Lie algebra enters as exact structure constants with a torus grading:
every basis vector carries its weight for the centre of the Levi, plus
membership tags for the Levi and the nilradical.  The parameter attached to
a restricted root alpha is

    k(alpha) = 2 + (nilpotency degree of ad(v) on g_alpha + g_2alpha) - 1,

i.e. the smallest power of ad(v) that kills the merged root space, plus one.
Parameters are computed on every indivisible restricted root and checked to
be invariant under the restricted Weyl group; cuspidality of the supporting
local system is an asserted input, never verified here.

Matrix builders are provided for sl_n, so_n and sp_2n in split form; the
Levi is any block-diagonal subalgebra, so exceptional types enter only via
user-supplied structure-constant tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import coordinates, identity, mat_mul, mat_sub, nullspace, rref, transpose
from .rootdata import RootSystem
from .weylgroups import ExtendedWeylGroup, ParameterFunction

__all__ = [
    "RootGradedLieAlgebra", "CuspidalSupportDescriptor", "SupportWeylData",
    "build_sl", "build_so", "build_sp", "compute_parameters",
    "restricted_root_spaces", "support_weyl_data", "f4_ratio_admissible",
]


class RootGradedLieAlgebra:
    """Structure constants with a torus grading and parabolic tags."""

    def __init__(self, basis_names, brackets, weights, in_levi, in_nilradical,
                 validate=True):
        self.basis_names = list(basis_names)
        self.n = len(self.basis_names)
        self.brackets = {tuple(k): {i: Fraction(c) for i, c in v.items() if c}
                         for k, v in brackets.items()}
        self.weights = [tuple(Fraction(c) for c in w) for w in weights]
        self.in_levi = list(in_levi)
        self.in_nilradical = list(in_nilradical)
        if validate:
            problems = self.validate()
            if problems:
                raise ValueError(problems[0])

    # -- bracket ------------------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        if (i, j) in self.brackets:
            return self.brackets[i, j]
        if (j, i) in self.brackets:
            return {k: -c for k, c in self.brackets[j, i].items()}
        return {}

    def bracket(self, a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, ca in a.items():
            if not ca:
                continue
            for j, cb in b.items():
                if not cb:
                    continue
                for t, c in self.bracket_basis(i, j).items():
                    s = out.get(t, Fraction(0)) + ca * cb * c
                    if s:
                        out[t] = s
                    else:
                        out.pop(t, None)
        return out

    def ad_matrix(self, v: dict[int, Fraction]):
        """Matrix of ad(v) on the whole algebra."""
        cols = []
        for j in range(self.n):
            img = self.bracket(v, {j: Fraction(1)})
            cols.append([img.get(i, Fraction(0)) for i in range(self.n)])
        return [[cols[j][i] for j in range(self.n)] for i in range(self.n)]

    def is_nilpotent(self, v: dict[int, Fraction]) -> bool:
        return _nilpotency_degree(self.ad_matrix(v)) is not None

    def in_levi_subalgebra(self, v: dict[int, Fraction]) -> bool:
        return all(self.in_levi[i] for i, c in v.items() if c)

    # -- validation -------------------------------------------------------------------
    def validate(self) -> list[str]:
        problems = []
        n = self.n
        # antisymmetry including [x, x] = 0 on basis vectors
        for i in range(n):
            if self.bracket_basis(i, i):
                problems.append(f"[{self.basis_names[i]}, same] nonzero")
        for (i, j) in list(self.brackets):
            if (j, i) in self.brackets:
                fwd = self.brackets[i, j]
                bwd = self.brackets[j, i]
                if {k: -c for k, c in bwd.items()} != fwd:
                    problems.append(
                        f"brackets of {self.basis_names[i]}, {self.basis_names[j]} not antisymmetric")
        # grading additivity
        for i in range(n):
            for j in range(n):
                target = tuple(a + b for a, b in zip(self.weights[i], self.weights[j]))
                for t, c in self.bracket_basis(i, j).items():
                    if self.weights[t] != target:
                        problems.append(
                            "grading violated: "
                            f"[{self.basis_names[i]}, {self.basis_names[j]}] hits "
                            f"{self.basis_names[t]} of weight {self.weights[t]}, "
                            f"expected {target}")
                        return problems
        # Jacobi on all basis triples
        for i in range(n):
            ei = {i: Fraction(1)}
            for j in range(i + 1, n):
                ej = {j: Fraction(1)}
                bij = self.bracket_basis(i, j)
                for t in range(j + 1, n):
                    et = {t: Fraction(1)}
                    total: dict[int, Fraction] = {}
                    for term in (self.bracket(ei, self.bracket_basis(j, t)),
                                 self.bracket(ej, {k: -c for k, c in self.bracket_basis(i, t).items()}),
                                 self.bracket(et, bij)):
                        for kk, c in term.items():
                            s = total.get(kk, Fraction(0)) + c
                            if s:
                                total[kk] = s
                            else:
                                total.pop(kk, None)
                    if total:
                        problems.append(
                            f"Jacobi fails on ({self.basis_names[i]}, "
                            f"{self.basis_names[j]}, {self.basis_names[t]})")
                        return problems
        return problems

    def parse_vector(self, coords) -> dict[int, Fraction]:
        """Accept {name: coeff} or a dense list."""
        if isinstance(coords, dict):
            idx = {n: i for i, n in enumerate(self.basis_names)}
            unknown = [name for name in coords if name not in idx]
            if unknown:
                raise ValueError(f"unknown basis elements: {', '.join(unknown)}")
            coords = {idx[name]: c for name, c in coords.items()}
        elif isinstance(coords, list):
            coords = dict(enumerate(coords))
        else:
            raise ValueError("v must be {name: coeff} or a list of coefficients")
        try:
            return {i: Fraction(c) for i, c in coords.items() if Fraction(c)}
        except ZeroDivisionError:
            raise ValueError("zero denominator in a coordinate of v") from None
        except TypeError:
            raise ValueError("a coordinate of v is not a number") from None

    def __repr__(self):
        return f"RootGradedLieAlgebra(dim={self.n})"


# ---------------------------------------------------------------------------
# restricted root spaces and parameters
# ---------------------------------------------------------------------------

def restricted_root_spaces(L: RootGradedLieAlgebra) -> dict[tuple, list[int]]:
    """Indivisible restricted root -> basis indices of g_alpha + g_2alpha."""
    tags = set(w for w in L.weights if any(c != 0 for c in w))
    reduced = [w for w in tags
               if tuple(c / 2 for c in w) not in tags]
    out = {}
    for alpha in sorted(reduced):
        double = tuple(2 * c for c in alpha)
        idxs = [i for i, w in enumerate(L.weights) if w == alpha or w == double]
        out[alpha] = idxs
    return out


def compute_parameters(L: RootGradedLieAlgebra, v) -> dict[tuple, int]:
    """k(alpha) on every indivisible restricted root, from ad(v)-nilpotency.

    Raises when v is not a nilpotent element of the Levi, or when the raw
    values fail to be invariant under the restricted Weyl group (reported
    with the conflicting orbit).
    """
    vvec = L.parse_vector(v)
    if not L.in_levi_subalgebra(vvec):
        raise ValueError("v must lie in the Levi subalgebra")
    if not L.is_nilpotent(vvec):
        raise ValueError("v must be ad-nilpotent")
    spaces = restricted_root_spaces(L)
    if not spaces:
        raise ValueError("no restricted roots: the Levi is the whole algebra")
    values = {}
    for alpha, idxs in spaces.items():
        # ad(v) is nilpotent, so is its restriction to an invariant root space
        values[alpha] = _nilpotency_degree(_ad_on_span(L, vvec, idxs)) + 1
    _check_invariance(values)
    return values


def _ad_on_span(L, vvec, idxs):
    pos = {b: t for t, b in enumerate(idxs)}
    cols = []
    for b in idxs:
        img = L.bracket(vvec, {b: Fraction(1)})
        col = [Fraction(0)] * len(idxs)
        for t, c in img.items():
            if t not in pos:
                raise ValueError("ad(v) does not preserve the restricted root space")
            col[pos[t]] = c
        cols.append(col)
    return transpose(cols)


def _nilpotency_degree(m) -> int | None:
    """Smallest e with m^e = 0, or None when m is not nilpotent."""
    power = identity(len(m))
    for e in range(len(m) + 1):
        if all(all(x == 0 for x in row) for row in power):
            return e
        power = mat_mul(power, m)
    return None


def _check_invariance(values: dict[tuple, int]):
    system, coord_map = RootSystem.from_root_vectors(list(values))
    vec_to_k = dict(values)
    for root, vec in coord_map.items():
        for i in range(system.rank):
            img = coord_map[system.reflect_root(i, root)]
            if vec_to_k[img] != vec_to_k[vec]:
                raise ValueError(
                    f"parameter values conflict on the orbit pair {vec} -> {img}: "
                    f"{vec_to_k[vec]} vs {vec_to_k[img]}")


# ---------------------------------------------------------------------------
# cuspidal quasi-support combinatorics
# ---------------------------------------------------------------------------

@dataclass
class CuspidalSupportDescriptor:
    """The combinatorial shadow of a cuspidal quasi-support.

    `gamma_perms` are permutations of the base of the restricted root
    system (in its computed sorted order); cuspidality of the local system
    is asserted, not verified.
    """

    lie_algebra: RootGradedLieAlgebra
    nilpotent: dict | list
    cuspidal_asserted: bool = True
    gamma_perms: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        v = self.lie_algebra.parse_vector(self.nilpotent)
        if not self.lie_algebra.is_nilpotent(v):
            raise ValueError("orbit representative must be ad-nilpotent")
        if not self.lie_algebra.in_levi_subalgebra(v):
            raise ValueError("orbit representative must lie in the Levi")


@dataclass
class SupportWeylData:
    root_system: RootSystem
    group: ExtendedWeylGroup
    parameters: ParameterFunction
    gamma_truncated: bool
    coordinate_map: dict


def support_weyl_data(desc: CuspidalSupportDescriptor) -> SupportWeylData:
    """Build the extended Weyl group W_E x| Gamma acting on the restricted roots.

    Gamma generators that act trivially on the base are dropped (with the
    truncation flagged) rather than produce a non-faithful action.
    """
    L = desc.lie_algebra
    values = compute_parameters(L, desc.nilpotent)
    system, coord_map = RootSystem.from_root_vectors(list(values))

    truncated = False
    kept = []
    for perm in desc.gamma_perms:
        perm = tuple(perm)
        if len(perm) != system.rank or sorted(perm) != list(range(system.rank)):
            raise ValueError(f"gamma permutation {perm} does not match the base")
        if perm == tuple(range(system.rank)):
            truncated = True
            continue
        kept.append(perm)
    group = ExtendedWeylGroup(system, gamma_generators=kept)
    k = ParameterFunction(group, {root: Fraction(values[vec])
                                  for root, vec in coord_map.items()})
    return SupportWeylData(root_system=system, group=group, parameters=k,
                           gamma_truncated=truncated, coordinate_map=coord_map)


# ---------------------------------------------------------------------------
# the admissible two-parameter ratios for the 4-dimensional two-length system
# ---------------------------------------------------------------------------

F4_RATIOS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(4),
             Fraction(-1), Fraction(-2), Fraction(-1, 2), Fraction(-4))


def f4_ratio_admissible(k_short, k_long) -> bool:
    """Membership in the admissible (short, long) parameter table.

    Admissible pairs: (0,0), (c,0), (0,c), (c,c), (2c,c), (c/2,c), (4c,c),
    (-c,c), (-2c,c), (-c/2,c), (-4c,c) for arbitrary nonzero c.
    """
    ks, kl = Fraction(k_short), Fraction(k_long)
    if kl == 0:
        return True  # (0,0) or (c,0)
    return ks / kl in F4_RATIOS


# ---------------------------------------------------------------------------
# split matrix models
# ---------------------------------------------------------------------------

def build_sl(n: int, levi_blocks) -> RootGradedLieAlgebra:
    """sl_n with the block-diagonal Levi of a composition of n."""
    units = _sl_basis(n)
    return _from_matrices(n, units, levi_blocks)


def build_so(n: int, levi_blocks) -> RootGradedLieAlgebra:
    """Split so_n: X^T J + J X = 0 with J the anti-diagonal of ones."""
    J = [[Fraction(1) if i + j == n - 1 else Fraction(0) for j in range(n)]
         for i in range(n)]
    return _from_matrices(n, _form_basis(n, J), levi_blocks)


def build_sp(n: int, levi_blocks) -> RootGradedLieAlgebra:
    """Split sp_n (n even): X^T J + J X = 0, J anti-diagonal with a sign split."""
    if n % 2:
        raise ValueError("sp needs even size")
    J = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        J[i][n - 1 - i] = Fraction(1) if i < n // 2 else Fraction(-1)
    return _from_matrices(n, _form_basis(n, J), levi_blocks)


def _sl_basis(n):
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[Fraction(0)] * n for _ in range(n)]
                m[i][j] = Fraction(1)
                mats.append((f"E{i + 1}{j + 1}", m))
    for i in range(n - 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i] = Fraction(1)
        m[i + 1][i + 1] = Fraction(-1)
        mats.append((f"H{i + 1}", m))
    return mats


def _form_basis(n, J):
    """Basis of {X : X^T J + J X = 0} with weight-pure vectors."""
    # unknowns: entries X[i][j]; equations: (X^T J + J X)[a][b] = 0
    rows = []
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * (n * n)
            for t in range(n):
                # (X^T J)[a][b] = sum_t X[t][a] J[t][b]
                row[t * n + a] += J[t][b]
                # (J X)[a][b] = sum_t J[a][t] X[t][b]
                row[t * n + b] += J[a][t]
            rows.append(row)
    basis = nullspace(rows)
    mats = []
    for idx, v in enumerate(basis):
        m = [[v[i * n + j] for j in range(n)] for i in range(n)]
        support = sorted((i, j) for i in range(n) for j in range(n) if m[i][j])
        name = "X" + "_".join(f"{i + 1}{j + 1}" for i, j in support[:2])
        mats.append((f"{name}.{idx}", m))
    return mats


def _from_matrices(n, named_mats, levi_blocks) -> RootGradedLieAlgebra:
    if sum(levi_blocks) != n:
        raise ValueError("Levi blocks must sum to the matrix size")
    names = [name for name, _ in named_mats]
    mats = [m for _, m in named_mats]
    dim = len(mats)

    # every bracket of two basis matrices, expanded in the basis by one rref
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    flat = [[x for row in _commutator(mats[i], mats[j]) for x in row] for i, j in pairs]
    try:
        expansions = coordinates([[x for row in m for x in row] for m in mats], flat)
    except ValueError:
        raise ValueError("bracket left the span of the basis") from None
    brackets = {}
    for pair, sol in zip(pairs, expansions):
        exp = {t: c for t, c in enumerate(sol) if c}
        if exp:
            brackets[pair] = exp

    # the torus: diagonal matrices in g commuting with every block matrix
    block_of = []
    for b, size in enumerate(levi_blocks):
        block_of.extend([b] * size)
    torus = _torus_basis(n, mats, block_of)
    weights = []
    for m in mats:
        weights.append(tuple(_weight_of(m, h, n) for h in torus))

    in_levi = []
    in_nilr = []
    for m in mats:
        supp = [(i, j) for i in range(n) for j in range(n) if m[i][j]]
        in_levi.append(all(block_of[i] == block_of[j] for i, j in supp))
        in_nilr.append(all(block_of[i] < block_of[j] for i, j in supp))
    return RootGradedLieAlgebra(names, brackets, weights, in_levi, in_nilr)


def _commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _torus_basis(n, mats, block_of):
    """Basis of {block-scalar diagonal matrices} intersected with span(mats).

    Solved exactly: block scalars t with D(t) = sum_j t_j F_j^T x for some x,
    i.e. the t-projection of the nullspace of [indicators | -basis].
    """
    nblocks = max(block_of) + 1
    indicators = []
    for b in range(nblocks):
        d = [[Fraction(1) if (i == j and block_of[i] == b) else Fraction(0)
              for j in range(n)] for i in range(n)]
        indicators.append([d[i][j] for i in range(n) for j in range(n)])
    flat_basis = [[m[i][j] for i in range(n) for j in range(n)] for m in mats]
    rows = []
    for coord in range(n * n):
        row = [ind[coord] for ind in indicators]
        row += [-fb[coord] for fb in flat_basis]
        rows.append(row)
    t_solutions = []
    for v in nullspace(rows):
        t_solutions.append(v[:nblocks])
    t_rows, _ = rref(t_solutions)
    t_rows = [r for r in t_rows if any(c != 0 for c in r)]
    combos = []
    for t in t_rows:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = t[block_of[i]]
        combos.append(m)
    return combos


def _weight_of(m, h, n) -> Fraction:
    """Eigenvalue of ad(h) on m; raises if m is not an eigenvector."""
    comm = _commutator(h, m)
    lam = None
    for i in range(n):
        for j in range(n):
            if m[i][j]:
                cand = comm[i][j] / m[i][j]
                if lam is None:
                    lam = cand
                elif lam != cand:
                    raise ValueError("basis vector is not weight-pure")
            elif comm[i][j]:
                raise ValueError("basis vector is not weight-pure")
    return lam if lam is not None else Fraction(0)
