"""
Extended Weyl groups W x| Gamma, 2-cocycles and parameter functions.

Gamma is a group of diagram automorphisms: permutations of the base that
preserve the Cartan matrix.  Group elements are stored as (reduced word,
Gamma part, action matrix on a^vee).  Enumeration builds, once, a table of
right products by each simple reflection and each Gamma element, and a
table of the permutation of the roots by each element; products, inverses
and words are walks through the first, and `act_root`, `reflection` and
root orbits are lookups in the second, so no matrix is multiplied after the
group is built.  The action matrix serves the actions on points and
polynomials, and keys `from_key`: the group acts faithfully on the root
span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rootdata import RootSystem
from .scalars import frac, scalar_str

__all__ = [
    "GroupElement", "ExtendedWeylGroup", "Cocycle", "ParameterFunction",
    "EpsilonCharacter", "centralizer_components",
]

GROUP_SIZE_CAP = 4096


@dataclass(frozen=True)
class GroupElement:
    """One element of W x| Gamma with a cached reduced word for its W part."""

    key: tuple            # action matrix on a^vee, tuple of int tuples
    word: tuple           # reduced word for the W part, simple-root indices
    gamma: int            # index into the Gamma element list
    index: int = field(compare=False, default=-1)

    @property
    def length(self) -> int:
        return len(self.word)

    def sign(self) -> int:
        """The sign character, trivial on Gamma."""
        return -1 if self.length % 2 else 1

    def is_identity(self) -> bool:
        return not self.word and self.gamma == 0

    def __repr__(self):
        w = "*".join(f"s{i + 1}" for i in self.word) or "e"
        if self.gamma:
            w = f"{w}*g{self.gamma}" if self.word else f"g{self.gamma}"
        return f"<{w}>"


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


class ExtendedWeylGroup:
    """W x| Gamma acting on the ambient space of a root system."""

    def __init__(self, root_system: RootSystem, gamma_generators=(),
                 size_cap: int = GROUP_SIZE_CAP):
        self.rs = root_system
        self.gamma_elements = self._close_gamma([tuple(g) for g in gamma_generators])
        self._gamma_index = {p: i for i, p in enumerate(self.gamma_elements)}
        self.size_cap = size_cap
        self.elements: list[GroupElement] = []
        self._by_key: dict[tuple, GroupElement] = {}
        self._enumerate()
        self.identity = self.elements[0]

    # -- Gamma --------------------------------------------------------------------
    def _close_gamma(self, gens):
        rank = self.rs.rank
        ident = tuple(range(rank))
        for g in gens:
            if sorted(g) != list(range(rank)):
                raise ValueError(f"gamma generator {g} is not a permutation of the base")
            for i in range(rank):
                for j in range(rank):
                    if self.rs.cartan[g[i]][g[j]] != self.rs.cartan[i][j]:
                        raise ValueError(
                            f"gamma generator {g} does not preserve the Cartan matrix")
        elems = [ident]
        seen = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for p in frontier:
                for g in gens:
                    q = _perm_compose(g, p)
                    if q not in seen:
                        seen.add(q)
                        elems.append(q)
                        new.append(q)
            frontier = new
        # stable order: identity first, then sorted
        rest = sorted(e for e in elems if e != ident)
        return [ident] + rest

    def gamma_matrix(self, gamma_idx: int):
        """Permutation action on a^vee: alpha_i -> alpha_{perm(i)}, centre fixed."""
        perm = self.gamma_elements[gamma_idx]
        n = self.rs.dim
        m = [[0] * n for _ in range(n)]
        for i in range(self.rs.rank):
            m[perm[i]][i] = 1
        for i in range(self.rs.rank, n):
            m[i][i] = 1
        return tuple(tuple(row) for row in m)

    # -- enumeration ----------------------------------------------------------------
    def _enumerate(self):
        rank, dim = self.rs.rank, self.rs.dim
        refl = [self.rs.reflection_matrix(i) for i in range(rank)]
        ident = _identity_matrix(dim)
        w_elements = {ident: ()}
        frontier = [ident]
        frontier_words = [()]
        while frontier:
            new, new_words = [], []
            for mat, word in zip(frontier, frontier_words):
                for i in range(rank):
                    prod = _int_mat_mul(mat, refl[i])
                    if prod not in w_elements:
                        w_elements[prod] = word + (i,)
                        new.append(prod)
                        new_words.append(word + (i,))
                        if len(w_elements) * max(1, len(self.gamma_elements)) > self.size_cap:
                            raise ValueError("group enumeration exceeded the size cap")
            frontier, frontier_words = new, new_words

        gammas = [self.gamma_matrix(gi) for gi in range(len(self.gamma_elements))]
        items = sorted((len(word), word, gi, _int_mat_mul(key, gmat))
                       for key, word in w_elements.items()
                       for gi, gmat in enumerate(gammas))
        for pos, (_, word, gi, key) in enumerate(items):
            elt = GroupElement(key=key, word=word, gamma=gi, index=pos)
            self.elements.append(elt)
            if key in self._by_key:
                raise ValueError("group does not act faithfully on a")
            self._by_key[key] = elt
        # _times[u.index]: indices of u*s_1 .. u*s_rank, then of u*gamma_gi
        self._times = [[self._by_key[_int_mat_mul(u.key, g)].index for g in refl + gammas]
                       for u in self.elements]
        # (w gamma)^-1 = gamma^-1 w^-1, and w^-1 is the reversed word
        self._inverses = []
        for u in self.elements:
            perm = self.gamma_elements[u.gamma]
            ginv = self.gamma_element(self._gamma_index[tuple(perm.index(j) for j in range(rank))])
            self._inverses.append(self._walk(reversed(u.word), start=ginv.index))
        # _root_perm[u.index][b] = index of u(roots[b]).  Each u != 1 is u' * g
        # with u' earlier in the order (its word without the last letter, or
        # without the Gamma part), and u(beta) = u'(g(beta)).
        roots, index = self.rs.roots, self.rs.root_index
        gens = [tuple(index[tuple(sum(m[i][j] * b[j] for j in range(rank))
                                  for i in range(rank))] for b in roots)
                for m in refl + gammas]
        self._root_perm = [tuple(range(len(roots)))]
        for u in self.elements[1:]:
            if u.gamma:
                prev, g = self._walk(u.word), rank + u.gamma
            else:
                prev, g = self._walk(u.word[:-1]), u.word[-1]
            perm = self._root_perm[prev.index]
            self._root_perm.append(tuple(perm[c] for c in gens[g]))
        # every root of a reduced system is some u(alpha_i); s_beta = u s_i u^-1
        self._reflections = {}
        for u, perm in zip(self.elements, self._root_perm):
            for i in range(rank):
                beta = roots[perm[index[self.rs._simple(i)]]]
                if beta not in self._reflections:
                    self._reflections[beta] = self.multiply(
                        self.multiply(u, self.simple(i)), self.inverse(u))

    def _walk(self, word, gamma_idx: int = 0, start: int = 0) -> GroupElement:
        """start * s_word * gamma, read off the table."""
        times = self._times
        i = start
        for j in word:
            i = times[i][j]
        if gamma_idx:
            i = times[i][self.rs.rank + gamma_idx]
        return self.elements[i]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # -- group operations ---------------------------------------------------------------
    def simple(self, i: int) -> GroupElement:
        return self.elements[self._times[0][i]]

    def gamma_element(self, gi: int) -> GroupElement:
        return self.elements[self._times[0][self.rs.rank + gi]]

    def from_key(self, key) -> GroupElement:
        return self._by_key[key]

    def multiply(self, u: GroupElement, v: GroupElement) -> GroupElement:
        return self._walk(v.word, v.gamma, u.index)

    def inverse(self, u: GroupElement) -> GroupElement:
        return self._inverses[u.index]

    def word_element(self, word, gamma_idx: int = 0) -> GroupElement:
        return self._walk(word, gamma_idx)

    # -- actions ----------------------------------------------------------------------
    def act_root(self, u: GroupElement, beta):
        """u(beta) for a root beta, read off the root table."""
        return self.rs.roots[self._root_perm[u.index][self.rs.root_index[beta]]]

    def act_point(self, u: GroupElement, point):
        """Contragredient action on points of `a` in dual coordinates."""
        inv = self.inverse(u)
        m = inv.key
        # alpha_i(u x) = (u^-1 alpha_i)(x); central coordinates are fixed
        out = [sum(Fraction(m[j][i]) * point[j] for j in range(self.rs.rank))
               for i in range(self.rs.rank)]
        return tuple(out) + tuple(point[self.rs.rank:])

    def act_polynomial(self, u: GroupElement, poly):
        """^u p: substitute x_j -> sum_i m[i][j] x_i, r fixed."""
        from .polynomials import Polynomial

        nv = self.rs.nvars
        m = u.key
        images = []
        for j in range(self.rs.dim):
            images.append(Polynomial.linear(
                nv, [Fraction(m[i][j]) for i in range(self.rs.dim)] + [Fraction(0)]))
        images.append(Polynomial.variable(nv, nv - 1))  # r
        return poly.substitute_linear(images)

    # -- reflections and characters ---------------------------------------------------
    def reflection(self, beta) -> GroupElement:
        """s_beta for a root beta."""
        return self._reflections[beta]

    def epsilon_characters(self) -> list["EpsilonCharacter"]:
        """All sign characters constant on reflection classes, trivial on Gamma.

        On a Coxeter group a sign assignment to the simple reflections that is
        constant on their conjugacy classes extends to a character.  The
        classes here are taken in W x| Gamma, so they are Gamma-stable and
        every such assignment is a character of W x| Gamma trivial on Gamma.
        Since g s_i g^-1 = s_{g alpha_i}, s_i and s_j are conjugate exactly
        when alpha_i and alpha_j share an orbit: the classes are
        `simple_root_orbits`.
        """
        classes = self.simple_root_orbits()
        out = []
        for mask in range(1 << len(classes)):
            signs = [0] * self.rs.rank
            for ci, cls in enumerate(classes):
                val = -1 if (mask >> ci) & 1 else 1
                for i in cls:
                    signs[i] = val
            out.append(EpsilonCharacter(tuple(signs)))
        return out

    # -- orbits -------------------------------------------------------------------------
    def simple_root_orbits(self) -> list[list[int]]:
        """Partition of simple-root indices by membership in a common orbit."""
        rs = self.rs
        out = []
        for i in range(rs.rank):
            if not any(i in orbit for orbit in out):
                orbit = set(self.root_orbit(rs._simple(i)))
                out.append(sorted(j for b, j in rs.simple_indices.items() if b in orbit))
        return out

    def root_orbit(self, beta) -> list[tuple]:
        """The orbit of a root beta, sorted."""
        roots = self.rs.roots
        b = self.rs.root_index[beta]
        return sorted({roots[p[b]] for p in self._root_perm})

    def describe(self) -> str:
        g = len(self.gamma_elements)
        base = f"W({self.rs.describe()})"
        return base if g == 1 else f"{base} x| Z{g}"

    def __repr__(self):
        return f"ExtendedWeylGroup({self.describe()}, order {len(self)})"


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _int_mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


@dataclass(frozen=True)
class EpsilonCharacter:
    """Signs on simple reflections, extended by word length, trivial on Gamma."""

    signs: tuple

    def __call__(self, u: GroupElement) -> int:
        val = 1
        for i in u.word:
            val *= self.signs[i]
        return val

    def is_trivial(self) -> bool:
        return all(s == 1 for s in self.signs)

    def label(self) -> str:
        if self.is_trivial():
            return "triv"
        if all(s == -1 for s in self.signs):
            return "sgn"
        flips = ",".join(str(i + 1) for i, s in enumerate(self.signs) if s == -1)
        return f"eps[{flips}]"


# ---------------------------------------------------------------------------
# 2-cocycles on Gamma
# ---------------------------------------------------------------------------

class Cocycle:
    """A normalized 2-cocycle on Gamma with root-of-unity values.

    The table is indexed by Gamma element positions.  A non-normalized
    cocycle is replaced at construction by the cohomologous normalized one
    obtained by dividing out the constant value at the identity.
    """

    def __init__(self, group: ExtendedWeylGroup, table=None, normalize=True):
        self.group = group
        n = len(group.gamma_elements)
        if table is None:
            one = Fraction(1)
            self.table = [[one] * n for _ in range(n)]
        else:
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"cocycle table must be {n} x {n}")
            self.table = [list(row) for row in table]
            if normalize:
                c = self.table[0][0]
                if c != 1:
                    self.table = [[v / c for v in row] for row in self.table]
        self._gamma_mult = self._gamma_table()

    def _gamma_table(self):
        g = self.group
        perms = g.gamma_elements
        idx = {p: i for i, p in enumerate(perms)}
        return [[idx[_perm_compose(p, q)] for q in perms] for p in perms]

    def is_trivial(self) -> bool:
        return all(v == 1 for row in self.table for v in row)

    def value(self, u: GroupElement, v: GroupElement):
        """Inflated value on W x| Gamma: depends only on the Gamma parts."""
        return self.table[u.gamma][v.gamma]

    def validate(self):
        """Check normalization and the cocycle identity on all triples.

        Returns None when valid, otherwise a violation report dict.
        """
        n = len(self.table)
        for g in range(n):
            if self.table[0][g] != 1 or self.table[g][0] != 1:
                return {"kind": "normalization", "element": g,
                        "values": (self.table[0][g], self.table[g][0])}
        mult = self._gamma_mult
        for a in range(n):
            for b in range(n):
                ab = mult[a][b]
                for c in range(n):
                    bc = mult[b][c]
                    lhs = self.table[a][b] * self.table[ab][c]
                    rhs = self.table[b][c] * self.table[a][bc]
                    if lhs != rhs:
                        return {"kind": "associativity", "triple": (a, b, c),
                                "values": (lhs, rhs)}
        return None

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self.table == other.table

    def __repr__(self):
        if self.is_trivial():
            return "Cocycle(trivial)"
        return f"Cocycle({[[scalar_str(v) for v in row] for row in self.table]})"


# ---------------------------------------------------------------------------
# parameter functions
# ---------------------------------------------------------------------------

class ParameterFunction:
    """A W x| Gamma-invariant assignment of scalars to roots."""

    def __init__(self, group: ExtendedWeylGroup, values: dict):
        self.group = group
        self.values = {tuple(b): v for b, v in values.items()}
        missing = [b for b in group.rs.roots if b not in self.values]
        if missing:
            raise ValueError(f"parameter function missing roots, e.g. {missing[0]}")
        bad = self.invariance_failure()
        if bad is not None:
            raise ValueError(
                f"parameter function not invariant on the orbit of {bad}")

    @classmethod
    def from_simple_values(cls, group: ExtendedWeylGroup, simple_values):
        """Extend values on the simple roots over group orbits.

        `simple_values` is one scalar per simple root, or one per orbit of
        simple roots (orbits ordered by their smallest member); roots in the
        same orbit must carry equal values.
        """
        rs = group.rs
        orbits = group.simple_root_orbits()
        if len(simple_values) == len(orbits) and len(orbits) != rs.rank:
            expanded = [None] * rs.rank
            for v, orbit in zip(simple_values, orbits):
                for i in orbit:
                    expanded[i] = v
            simple_values = expanded
        if len(simple_values) != rs.rank:
            raise ValueError(
                f"need {rs.rank} simple values or {len(orbits)} orbit values")
        values = {}
        for i in range(rs.rank):
            e = [0] * rs.rank
            e[i] = 1
            for b in group.root_orbit(tuple(e)):
                v = frac(simple_values[i]) if isinstance(simple_values[i], (int, str)) \
                    else simple_values[i]
                if b in values and values[b] != v:
                    raise ValueError(
                        f"simple values conflict on the orbit of root {b}")
                values[b] = v
        return cls(group, values)

    @classmethod
    def constant(cls, group: ExtendedWeylGroup, value):
        v = frac(value) if isinstance(value, (int, str)) else value
        return cls(group, {b: v for b in group.rs.roots})

    def __call__(self, beta):
        return self.values[tuple(beta)]

    def invariance_failure(self):
        """Return a root whose orbit carries unequal values, or None."""
        for b in self.group.rs.roots:
            v = self.values[b]
            for g in self.group.elements:
                if self.values[self.group.act_root(g, b)] != v:
                    return b
        return None

    def simple_values(self):
        rs = self.group.rs
        out = []
        for i in range(rs.rank):
            e = [0] * rs.rank
            e[i] = 1
            out.append(self.values[tuple(e)])
        return out

    def scaled(self, z) -> "ParameterFunction":
        return ParameterFunction(self.group, {b: z * v for b, v in self.values.items()})

    def twisted(self, eps: EpsilonCharacter) -> "ParameterFunction":
        """eps k (beta) = eps(s_beta) k(beta)."""
        values = {}
        for b in self.group.rs.roots:
            s = self.group.reflection(b)
            values[b] = eps(s) * self.values[b]
        return ParameterFunction(self.group, values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def __eq__(self, other):
        return isinstance(other, ParameterFunction) and self.values == other.values

    def __repr__(self):
        vals = ", ".join(scalar_str(v) for v in self.simple_values())
        return f"ParameterFunction(k = [{vals}])"


# ---------------------------------------------------------------------------
# fixed points of one-parameter subgroups: component counting
# ---------------------------------------------------------------------------

def centralizer_components(group: ExtendedWeylGroup, sigma, levi_simple_indices):
    """Count components of the sigma-fixed locus on the flag side.

    Desk model: double cosets W_sigma \\ W / W_M where W_sigma is generated
    by reflections in roots vanishing at sigma and W_M by the given simple
    reflections.  Returns (count, minimal-length double coset representatives).
    """
    rs = group.rs
    w_elements = [g for g in group.elements if g.gamma == 0]
    sigma_gens = [group.reflection(b) for b in rs.roots
                  if rs.root_value(b, sigma) == 0]
    levi_gens = [group.simple(i) for i in levi_simple_indices]

    w_sigma = _subgroup(group, sigma_gens)
    w_levi = _subgroup(group, levi_gens)

    seen = set()
    reps = []
    for g in sorted(w_elements, key=lambda e: (e.length, e.word)):
        if g.index in seen:
            continue
        reps.append(g)
        for a in w_sigma:
            ag = group.multiply(a, g)
            for b in w_levi:
                seen.add(group.multiply(ag, b).index)
    return len(reps), reps


def _subgroup(group, generators):
    elems = {group.identity.index: group.identity}
    frontier = [group.identity]
    while frontier:
        new = []
        for u in frontier:
            for g in generators:
                v = group.multiply(u, g)
                if v.index not in elems:
                    elems[v.index] = v
                    new.append(v)
        frontier = new
    return list(elems.values())
