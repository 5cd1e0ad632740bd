"""
Extended Weyl groups W x| Gamma, 2-cocycles and parameter functions.

Gamma is a group of diagram automorphisms: permutations of the base that
preserve the Cartan matrix.  Group elements are enumerated as permutations
of the roots, the representation CHEVIE uses for finite Coxeter groups: a
BFS over W by right multiplication with the simple reflections, each
element then taken with each Gamma element.  Enumeration keeps, once, each
element's root permutation, a table of right products by each simple
reflection and each Gamma element, and the inverses; products, inverses
and words are walks through the table, and `act_root`, `reflection` and
root orbits are lookups in the permutations, so no integer matrix is
multiplied, during the build or after it.  Each element's action matrix on
a^vee (its key) is read off its permutation: column j holds the
coordinates of u(alpha_j), and the central block is the identity.  The key
serves the actions on points and polynomials and `from_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .rootdata import RootSystem
from .scalars import exact_scalar, scalar_str

__all__ = [
    "GroupElement", "ExtendedWeylGroup", "Cocycle", "ParameterFunction",
    "EpsilonCharacter", "centralizer_components",
]

GROUP_SIZE_CAP = 4096


@dataclass(frozen=True)
class GroupElement:
    """One element of W x| Gamma with a cached reduced word for its W part."""

    key: tuple            # action matrix on a^vee, read off the root permutation
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


def _perm_inverse(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


class ExtendedWeylGroup:
    """W x| Gamma acting on the ambient space of a root system."""

    def __init__(self, root_system: RootSystem, gamma_generators=()):
        self.rs = root_system
        self.gamma_elements = self._close_gamma([tuple(g) for g in gamma_generators])
        self.elements: list[GroupElement] = []
        self._by_key: dict[tuple, GroupElement] = {}
        self._enumerate()
        self.identity = self.elements[0]
        # s_1 .. s_rank, then the non-identity Gamma elements
        self.generators = [self.simple(i) for i in range(root_system.rank)] + \
            [self.gamma_element(gi) for gi in range(1, len(self.gamma_elements))]
        self._images: dict[int, list] = {}   # act_polynomial's images, per element index

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

    # -- enumeration ----------------------------------------------------------------
    def _enumerate(self):
        rs = self.rs
        rank, roots, index = rs.rank, rs.roots, rs.root_index
        # the generators as root permutations: s_1 .. s_rank, then each Gamma
        # element, which sends alpha_i to alpha_{perm(i)}
        gens = [tuple(index[rs.reflect_root(i, b)] for b in roots) for i in range(rank)]
        for p in self.gamma_elements:
            inv = _perm_inverse(p)
            gens.append(tuple(index[tuple(b[i] for i in inv)] for b in roots))
        # W by BFS; the permutation of u * g is b -> u(g(b))
        n_gamma = len(self.gamma_elements)
        w_words = {tuple(range(len(roots))): ()}
        frontier = list(w_words)
        while frontier:
            new = []
            for perm in frontier:
                word = w_words[perm]
                for i in range(rank):
                    prod = tuple(perm[c] for c in gens[i])
                    if prod not in w_words:
                        w_words[prod] = word + (i,)
                        new.append(prod)
                        if len(w_words) * n_gamma > GROUP_SIZE_CAP:
                            raise ValueError("group enumeration exceeded the size cap")
            frontier = new

        items = sorted((len(word), word, gi, tuple(perm[c] for c in gens[rank + gi]))
                       for perm, word in w_words.items() for gi in range(n_gamma))
        # _root_perm[u.index][b] = index of u(roots[b]); the key's column j is
        # u(alpha_j), and u fixes the central block
        self._root_perm = [perm for *_, perm in items]
        simple = [index[rs._simple(j)] for j in range(rank)]
        central = tuple(tuple(int(i == j) for j in range(rs.dim)) for i in range(rank, rs.dim))
        for pos, (_, word, gi, perm) in enumerate(items):
            images = [roots[perm[a]] for a in simple]
            key = tuple(tuple(b[i] for b in images) + (0,) * rs.central_dim
                        for i in range(rank)) + central
            elt = GroupElement(key=key, word=word, gamma=gi, index=pos)
            self.elements.append(elt)
            self._by_key[key] = elt
        # _times[u.index]: indices of u*s_1 .. u*s_rank, then of u*gamma_gi
        position = {perm: pos for pos, perm in enumerate(self._root_perm)}
        self._times = [[position[tuple(perm[c] for c in g)] for g in gens]
                       for perm in self._root_perm]
        self._inverses = [self.elements[position[_perm_inverse(perm)]] for perm in self._root_perm]
        # every root of a reduced system is some u(alpha_i); s_beta = u s_i u^-1
        self._reflections = {}
        for u, perm in zip(self.elements, self._root_perm):
            for i in range(rank):
                beta = roots[perm[simple[i]]]
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
        m = self.inverse(u).key
        rank = self.rs.rank
        # alpha_i(u x) = (u^-1 alpha_i)(x), on the numerators of the point over
        # one denominator; central coordinates are fixed
        den = lcm(*(c.denominator for c in point[:rank]))
        nums = [c.numerator * (den // c.denominator) for c in point[:rank]]
        return tuple(Fraction(sum(m[j][i] * nums[j] for j in range(rank)), den)
                     for i in range(rank)) + tuple(point[rank:])

    def act_polynomial(self, u: GroupElement, poly):
        """^u p: substitute x_j -> sum_i m[i][j] x_i, r fixed.

        The images of x_1 .. x_d and r are built once per element, on its
        first action.
        """
        images = self._images.get(u.index)
        if images is None:
            from .polynomials import Polynomial

            nv = self.rs.nvars
            m = u.key
            images = [Polynomial.linear(nv, [Fraction(m[i][j]) for i in range(self.rs.dim)]
                                        + [Fraction(0)]) for j in range(self.rs.dim)]
            images.append(Polynomial.variable(nv, nv - 1))  # r
            self._images[u.index] = images
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
    """A 2-cocycle on Gamma, given by its table of scalar values.

    The table is indexed by Gamma element positions.  Each value must be
    exact (see `scalars.exact_scalar`, Cycs allowed): a float, bool or
    complex value raises TypeError here.  A string is read as its Fraction,
    and an int, Fraction or Cyc is stored as given.  A non-normalized
    cocycle is replaced at construction by the cohomologous normalized one
    obtained by dividing out the constant value at the identity.  `validate`
    checks only normalization and the cocycle identity: it does not check
    that the values are roots of unity, or even nonzero.  The CLI rejects
    zero values when it parses a table (`presets.parse_cocycle`).
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
            checked = [[exact_scalar(v, cyclotomic=True) for v in row] for row in table]
            self.table = [[c if isinstance(v, str) else v for v, c in zip(row, crow)]
                          for row, crow in zip(table, checked)]
            if normalize:
                c = checked[0][0]
                if c != 1:
                    self.table = [[v / c for v in row] for row in checked]
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
            v = exact_scalar(simple_values[i], cyclotomic=True)
            for b in group.root_orbit(tuple(e)):
                if b in values and values[b] != v:
                    raise ValueError(
                        f"simple values conflict on the orbit of root {b}")
                values[b] = v
        return cls(group, values)

    @classmethod
    def constant(cls, group: ExtendedWeylGroup, value):
        v = exact_scalar(value, cyclotomic=True)
        return cls(group, {b: v for b in group.rs.roots})

    def __call__(self, beta):
        return self.values[tuple(beta)]

    def invariance_failure(self):
        """Return a root whose orbit carries unequal values, or None.

        The simple reflections and Gamma generate the group, and a value
        preserved by every generator is preserved by every product of them,
        so |R| (rank + |Gamma| - 1) lookups suffice, not |R| |W x| Gamma|.
        """
        group = self.group
        for b in group.rs.roots:
            v = self.values[b]
            for g in group.generators:
                if self.values[group.act_root(g, b)] != v:
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
