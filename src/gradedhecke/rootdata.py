"""
Reduced integral root systems with exact arithmetic.

Roots live in the dual of an ambient space `a` of dimension d.  The chosen
basis of a^vee consists of the simple roots of each irreducible component
followed by one coordinate per central dimension, so a root is an integer
coordinate tuple and a point of `a` is the tuple of its pairings with that
basis.  The inner product is the symmetrized Cartan form on the root span
plus the standard form on the central block, which keeps Weyl and diagram
automorphisms orthogonal and everything rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import coordinates
from .polynomials import Polynomial

__all__ = ["RootSystem", "CartanSpec", "cartan_matrix", "ConePosition"]

ROOT_CLOSURE_CAP = 600


def cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    """Standard Cartan matrix, convention C[i][j] = <alpha_j, alpha_i^vee>."""
    kind = kind.upper()
    if kind == "A" and rank >= 1:
        return _chain(rank)
    if kind == "B" and rank >= 2:
        c = _chain(rank)
        c[rank - 1][rank - 2] = -2  # last simple root short
        return c
    if kind == "C" and rank >= 2:
        c = _chain(rank)
        c[rank - 2][rank - 1] = -2  # last simple root long
        return c
    if kind == "D" and rank >= 3:
        c = _chain(rank - 1)
        for row in c:
            row.append(0)
        c.append([0] * rank)
        c[rank - 1][rank - 1] = 2
        c[rank - 1][rank - 3] = -1
        c[rank - 3][rank - 1] = -1
        return c
    if kind == "F4" or (kind == "F" and rank == 4):
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    if kind == "G2" or (kind == "G" and rank == 2):
        return [[2, -1], [-3, 2]]
    raise ValueError(f"unsupported Cartan type {kind}{rank}")


def _chain(rank):
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
        if i + 1 < rank:
            c[i][i + 1] = -1
            c[i + 1][i] = -1
    return c


@dataclass(frozen=True)
class CartanSpec:
    kind: str
    rank: int

    def label(self):
        return f"{self.kind.upper()}{self.rank}"


@dataclass(frozen=True)
class ConePosition:
    """Location of a point relative to the antidominant cone.

    `coroot_coeffs` are the coefficients t_i in x = sum t_i alpha_i^vee + z
    with z orthogonal to the root span; `central` is z in coordinates.
    """

    coroot_coeffs: tuple
    central: tuple

    @property
    def central_is_zero(self) -> bool:
        return all(c == 0 for c in self.central)

    @property
    def in_closed_cone(self) -> bool:
        """x in the closed obtuse negative cone inside the root span."""
        return self.central_is_zero and all(t <= 0 for t in self.coroot_coeffs)

    @property
    def in_open_cone(self) -> bool:
        """x in the interior of that cone within the root span."""
        return self.central_is_zero and all(t < 0 for t in self.coroot_coeffs)

    @property
    def strictly_negative_part(self) -> bool:
        """Root-span part interior, central part unrestricted."""
        return all(t < 0 for t in self.coroot_coeffs)


class RootSystem:
    """A reduced integral root system plus central directions."""

    def __init__(self, cartan: list[list[int]], central_dim: int = 0,
                 components: list[CartanSpec] | None = None):
        rank = len(cartan)
        for i, row in enumerate(cartan):
            if len(row) != rank or row[i] != 2:
                raise ValueError("malformed Cartan matrix")
            if any(row[j] > 0 for j in range(rank) if j != i):
                raise ValueError("off-diagonal Cartan entries must be <= 0")
        self.cartan = [list(map(int, row)) for row in cartan]
        self.rank = rank
        self.central_dim = central_dim
        self.dim = rank + central_dim
        self.nvars = self.dim + 1  # polynomial variables: x_1..x_dim, r
        self.components = components or self._detect_components()
        if sum(c.rank for c in self.components) != rank:
            raise ValueError("component ranks must sum to the rank")
        self.lengths = self._symmetrize()
        self.roots = self._generate_roots()
        self.root_index = {b: i for i, b in enumerate(self.roots)}
        self.positive_roots = [b for b in self.roots if self._is_positive(b)]
        self.simple_indices = {self._simple(i): i for i in range(rank)}

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_specs(cls, specs: list[tuple[str, int]], central_dim: int = 0) -> "RootSystem":
        """Build from (type, rank) pairs joined orthogonally, plus central dims."""
        comps = [CartanSpec(k.upper(), r) for (k, r) in specs]
        blocks = [cartan_matrix(c.kind, c.rank) for c in comps]
        rank = sum(len(b) for b in blocks)
        cartan = [[0] * rank for _ in range(rank)]
        offset = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    cartan[offset + i][offset + j] = v
            offset += len(b)
        return cls(cartan, central_dim, comps)

    def _detect_components(self):
        # connected components of the Dynkin graph, labelled generically
        seen = [False] * self.rank
        comps = []
        for i in range(self.rank):
            if seen[i]:
                continue
            stack, block = [i], []
            seen[i] = True
            while stack:
                v = stack.pop()
                block.append(v)
                for j in range(self.rank):
                    if not seen[j] and self.cartan[v][j] != 0:
                        seen[j] = True
                        stack.append(j)
            comps.append(CartanSpec("X", len(block)))
        return comps

    def _symmetrize(self):
        """Half-lengths d_i with d_i * C[i][j] = d_j * C[j][i]; B(a_i,a_i) = 2 d_i."""
        d = [Fraction(0)] * self.rank
        for start in range(self.rank):
            if d[start]:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(self.rank):
                    if self.cartan[i][j] and not d[j]:
                        d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                        stack.append(j)
        for i in range(self.rank):
            for j in range(self.rank):
                if d[i] * self.cartan[i][j] != d[j] * self.cartan[j][i]:
                    raise ValueError("Cartan matrix is not symmetrizable")
        return d

    def _simple(self, i):
        e = [0] * self.rank
        e[i] = 1
        return tuple(e)

    def _generate_roots(self):
        frontier = [self._simple(i) for i in range(self.rank)]
        roots = set(frontier)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(self.rank):
                    img = self.reflect_root(i, beta)
                    if img not in roots:
                        roots.add(img)
                        new.append(img)
            frontier = new
            if len(roots) > ROOT_CLOSURE_CAP:
                raise ValueError("root closure exceeded cap; Cartan data not finite type?")
        return sorted(roots)

    def _is_positive(self, beta):
        return any(c > 0 for c in beta) and all(c >= 0 for c in beta)

    # -- pairings ---------------------------------------------------------------
    def pairing(self, beta, alpha_index: int) -> int:
        """<beta, alpha_i^vee> for the i-th simple root."""
        return sum(beta[j] * self.cartan[alpha_index][j] for j in range(self.rank))

    def inner(self, beta, gamma) -> Fraction:
        """B(beta, gamma) for roots in simple coordinates."""
        total = Fraction(0)
        for i, bi in enumerate(beta):
            if not bi:
                continue
            for j, gj in enumerate(gamma):
                if gj:
                    total += bi * gj * self.lengths[i] * self.cartan[i][j]
        return total

    def root_length_sq(self, beta) -> Fraction:
        return self.inner(beta, beta)

    def pairing_root(self, beta, alpha) -> Fraction:
        """<beta, alpha^vee> = 2 B(beta, alpha) / B(alpha, alpha) for any root alpha."""
        return 2 * self.inner(beta, alpha) / self.inner(alpha, alpha)

    def reflect_root(self, i: int, beta):
        """s_{alpha_i}(beta) in simple coordinates."""
        c = self.pairing(beta, i)
        out = list(beta)
        out[i] -= c
        return tuple(out)

    def is_root(self, beta) -> bool:
        return tuple(beta) in self.root_index

    def reflection_matrix(self, i: int):
        """Matrix of s_{alpha_i} on a^vee (full dim, identity on the centre)."""
        n = self.dim
        m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        for j in range(self.rank):
            # s_i(alpha_j) = alpha_j - C[i][j] alpha_i
            m[i][j] -= self.cartan[i][j]
        return tuple(tuple(row) for row in m)

    # -- polynomials and points ---------------------------------------------------
    def root_polynomial(self, beta) -> Polynomial:
        """The root as a linear polynomial in x_1..x_dim."""
        coeffs = list(beta) + [Fraction(0)] * (self.central_dim + 1)
        return Polynomial.linear(self.nvars, [Fraction(c) for c in coeffs])

    def root_value(self, beta, point) -> Fraction:
        """beta(x) for a point of `a` in dual coordinates."""
        return sum((Fraction(b) * point[j] for j, b in enumerate(beta)), Fraction(0))

    def coroot_point(self, beta):
        """alpha^vee as a point of `a`: coordinates <alpha_j, beta^vee>."""
        return tuple(self.pairing_root(self._simple(j), beta) for j in range(self.rank)) \
            + (Fraction(0),) * self.central_dim

    def cone_position(self, point) -> ConePosition:
        """Split x = sum t_i alpha_i^vee + z and report cone membership data."""
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, want {self.dim}")
        root_part = [Fraction(c) for c in point[: self.rank]]
        # alpha_i(sum_j t_j alpha_j^vee) = sum_j t_j <alpha_i, alpha_j^vee>
        coeffs, = coordinates([[Fraction(c) for c in row] for row in self.cartan],
                              [root_part])
        return ConePosition(tuple(coeffs), tuple(Fraction(c) for c in point[self.rank:]))

    def in_obtuse_negative_cone(self, point) -> tuple[bool, bool]:
        """(closed-cone membership, strict-interior membership) within the root span."""
        pos = self.cone_position(point)
        return pos.in_closed_cone, pos.in_open_cone

    # -- reconstruction from raw vectors ------------------------------------------
    @classmethod
    def from_root_vectors(cls, vectors) -> tuple["RootSystem", dict]:
        """Recognize a root system given as exact coordinate vectors.

        Returns the abstract system plus a map from simple-coordinate tuples
        to the original vectors.  Cartan integers come from root strings, so
        no inner product on the input space is needed.
        """
        vecs = [tuple(Fraction(c) for c in v) for v in vectors]
        vset = set(vecs)
        if not vecs:
            raise ValueError("empty root set")
        for v in vecs:
            neg = tuple(-c for c in v)
            if neg not in vset:
                raise ValueError(f"root set not symmetric: missing -{v}")

        # generic positivity functional
        ncoords = len(vecs[0])
        weights = None
        for scale in range(1, 200):
            cand = [Fraction(scale ** 0)] + [Fraction(1, (scale + 1) ** (k + 1)) for k in range(ncoords - 1)]
            vals = [sum(w * c for w, c in zip(cand, v)) for v in vecs]
            if all(v != 0 for v in vals):
                weights = cand
                break
        if weights is None:
            raise ValueError("could not find a generic positivity functional")
        positives = [v for v in vecs
                     if sum(w * c for w, c in zip(weights, v)) > 0]
        pos_set = set(positives)
        simples = []
        for v in positives:
            decomposable = any(
                tuple(a - b for a, b in zip(v, u)) in pos_set
                for u in positives if u != v)
            if not decomposable:
                simples.append(v)
        simples.sort()

        def string_pairing(beta, alpha):
            if beta == alpha:
                return 2
            if beta == tuple(-c for c in alpha):
                return -2
            down = 0
            cur = beta
            while True:
                cur = tuple(b - a for b, a in zip(cur, alpha))
                if cur in vset:
                    down += 1
                else:
                    break
            up = 0
            cur = beta
            while True:
                cur = tuple(b + a for b, a in zip(cur, alpha))
                if cur in vset:
                    up += 1
                else:
                    break
            return down - up

        rank = len(simples)
        cartan = [[string_pairing(simples[j], simples[i]) for j in range(rank)]
                  for i in range(rank)]
        system = cls(cartan, central_dim=0)
        if 2 * len(system.positive_roots) != len(vecs):
            raise ValueError("input vectors do not form a reduced root system")
        # coordinates of every input root in the simple basis
        coord_map = {}
        for root in system.roots:
            vec = tuple(sum(Fraction(root[j]) * simples[j][i] for j in range(rank))
                        for i in range(ncoords))
            if vec not in vset:
                raise ValueError("reconstructed root not among the inputs")
            coord_map[root] = vec
        return system, coord_map

    # -- misc ------------------------------------------------------------------------
    def describe(self) -> str:
        parts = [c.label() for c in self.components]
        if self.central_dim:
            parts.append(f"{self.central_dim} central")
        return " x ".join(parts) if parts else "rank 0"

    def __repr__(self):
        return f"RootSystem({self.describe()}, {len(self.roots)} roots)"
