"""
The twisted graded Hecke algebra in PBW normal form.

Elements are finite sums  sum_w N_w * p_w  with group terms on the left and
polynomial coefficients on the right.  Multiplication straightens products
by moving polynomials rightwards through group generators:

    p * N_s = N_s * (^s p) + k(alpha) * r * D_alpha(p)

where D_alpha is the divided difference (p - ^s p) / alpha, together with
the twisted group law N_u N_v = c(u, v) N_{uv}.  Every element of the group
carries one cached reduced word, so normal forms are deterministic; that
different reduced words give the same product is a tested property.

The exchange step is linear in p, so it is memoized per monomial: each
instance keeps a private dict from (exponent tuple, generator index) to the
moved monomial and its correction as numerators over one denominator,
filled lazily on first use.  A product runs on numerators over one common
denominator, in the same loops on rational and on cyclotomic data: ints, or
`Cyc`s whose integer numerator tuples sit over denominator 1, so their sums
and products take no gcd.  It forms one `Fraction` (or one `Cyc`) per
output coefficient at the end.  The memo depends on k and the mode, so it
lives on the instance and is never shared: `with_k` and `crossed_product`
build new instances, which start with an empty memo.

Modes:
  * "generic" - r is a polynomial variable, the algebra is graded;
  * "r1"      - r specialized to 1, graded only as a filtration;
  * "k0"      - the crossed product: all parameters zero, no corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .polynomials import Polynomial, _accumulate, _wrap, divide_by_linear
from .rootdata import RootSystem
from .scalars import divide_scalar, exact_scalar, split_scalar
from .weylgroups import Cocycle, EpsilonCharacter, ExtendedWeylGroup, GroupElement, ParameterFunction

__all__ = ["HeckeAlgebra", "HeckeElement", "Grading", "TensorElement"]

MODES = ("generic", "r1", "k0")


class HeckeAlgebra:
    """H(t, W x| Gamma, k, r, natural) in one of the three modes."""

    def __init__(self, group: ExtendedWeylGroup, k: ParameterFunction,
                 cocycle: Cocycle | None = None, mode: str = "generic",
                 cyclotomic_order: int | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if cocycle is None:
            cocycle = Cocycle(group)
        if cocycle.group is not group:
            raise ValueError("cocycle built for a different group")
        bad = cocycle.validate()
        if bad is not None:
            raise ValueError(f"invalid cocycle: {bad}")
        if mode == "k0" and not k.is_zero():
            raise ValueError("crossed-product mode requires k identically zero")
        self.group = group
        self.rs = group.rs
        self.k = k
        self.cocycle = cocycle
        self.mode = mode
        self.cyclotomic_order = cyclotomic_order
        self.nvars = self.rs.nvars
        self._r_index = self.nvars - 1
        self._simple_polys = [self.rs.root_polynomial(self.rs._simple(i))
                              for i in range(self.rs.rank)]
        self._k_simple = [k(self.rs._simple(i)) for i in range(self.rs.rank)]
        # (exponent tuple, generator index) -> (den, moved, corr); see _step
        self._steps: dict[tuple, tuple[int, tuple, tuple]] = {}

    # -- identity and compatibility ------------------------------------------------
    def compatible(self, other: "HeckeAlgebra") -> bool:
        return (self.group is other.group and self.mode == other.mode
                and self.k == other.k and self.cocycle == other.cocycle)

    def with_k(self, k: ParameterFunction, mode: str | None = None) -> "HeckeAlgebra":
        return HeckeAlgebra(self.group, k, self.cocycle, mode or self.mode,
                            self.cyclotomic_order)

    def crossed_product(self) -> "HeckeAlgebra":
        """The k = 0 algebra on the same twisted group data."""
        zero = ParameterFunction.constant(self.group, Fraction(0))
        return HeckeAlgebra(self.group, zero, self.cocycle, "k0",
                            self.cyclotomic_order)

    # -- element constructors ---------------------------------------------------------
    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def one(self) -> "HeckeElement":
        return HeckeElement(self, {self.group.identity.index:
                                   Polynomial.constant(self.nvars, Fraction(1))})

    def N(self, elt) -> "HeckeElement":
        """Basis element N_w from a GroupElement, word tuple, or simple index."""
        if isinstance(elt, GroupElement):
            w = elt
        elif isinstance(elt, int):
            w = self.group.simple(elt)
        else:
            w = self.group.word_element(tuple(elt))
        return HeckeElement(self, {w.index: Polynomial.constant(self.nvars, Fraction(1))})

    def x(self, i: int) -> "HeckeElement":
        """Coordinate generator x_{i+1} as an element N_e * x."""
        if not 0 <= i < self.rs.dim:
            raise ValueError(f"coordinate index {i} out of range")
        return self.poly(Polynomial.variable(self.nvars, i))

    def r(self) -> "HeckeElement":
        if self.mode == "r1":
            raise ValueError("r is specialized away in r1 mode")
        return self.poly(Polynomial.variable(self.nvars, self._r_index))

    def poly(self, p: Polynomial) -> "HeckeElement":
        self._check_poly(p)
        return HeckeElement(self, {self.group.identity.index: p} if p else {})

    def from_terms(self, terms: dict) -> "HeckeElement":
        clean = {}
        for w, p in terms.items():
            idx = w.index if isinstance(w, GroupElement) else int(w)
            self._check_poly(p)
            if p:
                clean[idx] = clean[idx] + p if idx in clean else p
        return HeckeElement(self, {i: p for i, p in clean.items() if p})

    def _check_poly(self, p: Polynomial):
        if p.nvars != self.nvars:
            raise ValueError("polynomial over the wrong variable basis")
        if self.mode == "r1" and p.uses_variable(self._r_index):
            raise ValueError("r1 mode elements cannot mention r")

    # -- straightening ------------------------------------------------------------------
    def demazure(self, beta, p: Polynomial) -> Polynomial:
        """Divided difference (p - ^{s_beta} p) / beta for any root beta."""
        if not self.rs.is_root(tuple(beta)):
            raise ValueError(f"{beta} is not a root")
        s = self.group.reflection(tuple(beta))
        moved = self.group.act_polynomial(s, p)
        return divide_by_linear(p - moved, self.rs.root_polynomial(tuple(beta)))

    def _correction(self, i: int, p: Polynomial, moved: Polynomial) -> Polynomial:
        """k(alpha_i) r (p - moved) / alpha_i, where moved = ^{s_i} p."""
        ki = self._k_simple[i]
        if ki == 0:
            return Polynomial.zero(self.nvars)
        delta = divide_by_linear(p - moved, self._simple_polys[i])
        if not delta:
            return delta
        if self.mode == "r1":
            return delta.scale(ki)
        # r is the last variable, so multiplying by it raises the last exponent
        return Polynomial(self.nvars, {e[:-1] + (e[-1] + 1,): ki * c
                                       for e, c in delta.terms.items()})

    def _step(self, e: tuple, j: int) -> tuple[int, tuple, tuple]:
        """Compute and memoize x^e * N_j as (den, moved, corr), (exponent,
        numerator) pairs over den.

        For a simple reflection, j < rank:  x^e N_{s_j} = N_{s_j} moved + corr,
        with moved = ^{s_j} x^e and corr = k(alpha_j) r (x^e - moved) / alpha_j.
        For j = rank + gamma:  x^e N_g = N_g moved, with moved = ^{g^-1} x^e.
        """
        group = self.group
        mono = Polynomial(self.nvars, {e: Fraction(1)})
        if j < self.rs.rank:
            moved = group.act_polynomial(group.simple(j), mono)
            corr = self._correction(j, mono, moved).terms
        else:
            ginv = group.inverse(group.gamma_element(j - self.rs.rank))
            moved, corr = group.act_polynomial(ginv, mono), {}
        den, moved, corr = _numerators(moved.terms, corr)
        entry = self._steps[e, j] = (den, tuple(moved.items()), tuple(corr.items()))
        return entry

    def _move_poly(self, p: Polynomial, v: GroupElement) -> tuple[int, dict[int, dict]]:
        """Rewrite p * N_v as sum_u N_u q_u; returns (den, {u.index: numerators
        of q_u over den}).

        The exchange step is linear in p, so each letter of v moves p one
        monomial at a time, looked up in the memo and computed by `_step`
        only on a miss.  Each letter rescales by the lcm of the step
        denominators it meets.
        """
        den, terms = _numerators(p.terms)
        if v.is_identity():
            return den, ({v.index: terms} if terms else {})
        times = self.group._times
        steps = self._steps
        letters = v.word + ((self.rs.rank + v.gamma,) if v.gamma else ())
        state = {self.group.identity.index: terms}
        for j in letters:
            new: dict[int, dict] = {}
            scale = 1
            for ui, terms in state.items():
                ti = times[ui][j]
                for e, c in terms.items():
                    d, moved, corr = steps.get((e, j)) or self._step(e, j)
                    if scale % d:
                        new, scale = _over_lcm(new, scale, d)
                    if d != scale:
                        c = c * (scale // d)
                    _accumulate(new.setdefault(ti, {}), [(f, c * m) for f, m in moved])
                    if corr:
                        _accumulate(new.setdefault(ui, {}), [(f, c * m) for f, m in corr])
            state = new
            den *= scale
        return den, {ui: t for ui, t in state.items() if t}

    def multiply(self, a: "HeckeElement", b: "HeckeElement") -> "HeckeElement":
        """a * b on numerators over one running lcm denominator, divided out
        once per output coefficient."""
        self._assert_mine(a)
        self._assert_mine(b)
        group = self.group
        elements = group.elements
        qs = [(elements[bi], *_numerators(q.terms)) for bi, q in b.terms.items()]
        den = 1
        acc: dict[int, dict] = {}
        for ai, p in a.terms.items():
            u = elements[ai]
            for v, dq, q in qs:
                f, td = split_scalar(self.cocycle.value(u, v))
                if not f:
                    continue
                dm, moved = self._move_poly(p, v)
                d = dm * dq * td
                if den % d:
                    acc, den = _over_lcm(acc, den, d)
                if d != den:
                    f = f * (den // d)
                fq = q.items() if f == 1 else [(e, c * f) for e, c in q.items()]
                for ti, m in moved.items():
                    _accumulate(acc.setdefault(group.multiply(u, elements[ti]).index, {}),
                                [(tuple(map(add, e1, e2)), c1 * c2)
                                 for e1, c1 in m.items() for e2, c2 in fq])
        return HeckeElement(self, {w: _wrap(self.nvars, {e: divide_scalar(n, den)
                                                         for e, n in t.items()})
                                   for w, t in acc.items() if t})

    def _assert_mine(self, a: "HeckeElement"):
        if not self.compatible(a.algebra):
            raise ValueError("element belongs to an incompatible algebra")

    # -- grading --------------------------------------------------------------------------
    def grading(self, a: "HeckeElement") -> "Grading":
        """Graded degree and homogeneous components (generic and k0 modes)."""
        if self.mode == "r1":
            raise ValueError("r1 mode is only filtered; use filtration_degree")
        comps: dict[int, dict] = {}
        for wi, p in a.terms.items():
            for d, piece in p.homogeneous_components().items():
                comps.setdefault(d, {})[wi] = piece
        elements = {d: HeckeElement(self, t) for d, t in sorted(comps.items())}
        degree = next(iter(elements)) if len(elements) == 1 else None
        return Grading(homogeneous=len(elements) <= 1,
                       degree=degree if elements else 0,
                       components=elements)

    def filtration_degree(self, a: "HeckeElement") -> int:
        if a.is_zero():
            return -1
        return max(p.degree() for p in a.terms.values())

    def leading_term(self, a: "HeckeElement") -> "HeckeElement":
        """Top filtration layer of an r1-mode element, in the crossed product."""
        if self.mode != "r1":
            raise ValueError("leading_term applies to r1 mode elements")
        target = self.crossed_product()
        if a.is_zero():
            return target.zero()
        top = self.filtration_degree(a)
        terms = {}
        for wi, p in a.terms.items():
            piece = p.homogeneous_components().get(top)
            if piece:
                terms[wi] = piece
        return HeckeElement(target, terms)

    # -- centre ------------------------------------------------------------------------------
    def is_central(self, a: "HeckeElement"):
        """(True, None) if a commutes with every generator, else (False, witness)."""
        self._assert_mine(a)
        gens = [self.N(g) for g in self.group.generators] + \
            [self.x(i) for i in range(self.rs.dim)]
        for g in gens:
            if self.multiply(a, g) != self.multiply(g, a):
                return False, g
        return True, None

    # -- isomorphisms --------------------------------------------------------------------------
    def im_involution(self, a: "HeckeElement") -> "HeckeElement":
        """N_w -> sgn(w) N_w, x -> -x, r -> r; an involution of the same algebra."""
        self._assert_mine(a)
        return self._rescale(a, self, GroupElement.sign, x_factor=-1)

    def sgn_involution(self, a: "HeckeElement") -> "HeckeElement":
        """N_w -> sgn(w) N_w, r -> -r, x fixed.

        Generic mode: an involution of the same algebra.  In r1 mode the
        same recipe lands in the algebra with parameters -k.
        """
        self._assert_mine(a)
        if self.mode == "r1":
            target = self.with_k(self.k.scaled(Fraction(-1)))
        else:
            target = self
        return self._rescale(a, target, GroupElement.sign, r_factor=-1)

    def phi_epsilon(self, eps: EpsilonCharacter, a: "HeckeElement") -> "HeckeElement":
        """N_w -> eps(w) N_w into the algebra with parameters eps * k."""
        self._assert_mine(a)
        admissible = {e.signs for e in self.group.epsilon_characters()}
        if eps.signs not in admissible:
            raise ValueError(f"{eps} is not an admissible sign character")
        return self._rescale(a, self.with_k(self.k.twisted(eps)), eps)

    def scale_iso(self, z, a: "HeckeElement",
                  target: "HeckeAlgebra | None" = None) -> "HeckeElement":
        """The scaling map x -> z x, from parameters k to parameters k / z.

        For z = 0 (allowed only when k = 0) this is the canonical surjection
        onto the span of the N_w and r, killing every positive x-degree.
        `z` must be exact (see `scalars.exact_scalar`); a string is read as
        its Fraction, and an int, Fraction or Cyc is used as given.
        """
        self._assert_mine(a)
        checked = exact_scalar(z, cyclotomic=True)
        z = checked if isinstance(z, str) else z
        if z == 0:
            if not self.k.is_zero():
                raise ValueError("z = 0 requires the zero parameter function")
            target = target or self
        else:
            if target is None:
                target = self.with_k(ParameterFunction(
                    self.group, {b: v / z for b, v in self.k.values.items()}))
        return self._rescale(a, target, lambda w: 1, x_factor=z)

    def _rescale(self, a: "HeckeElement", target: "HeckeAlgebra", char,
                 x_factor=1, r_factor=1) -> "HeckeElement":
        """N_w p(x, r) -> char(w) N_w p(x_factor * x, r_factor * r), in target.

        IM, sgn, phi_eps and the scaling maps are all of this diagonal form.
        """
        dim = self.rs.dim
        terms = {}
        for wi, p in a.terms.items():
            t = char(self.group.elements[wi])
            scaled = {}
            for e, c in p.terms.items():
                f = t * x_factor ** sum(e[:dim]) * r_factor ** e[-1]
                scaled[e] = c * f if f != 1 else c
            q = Polynomial(self.nvars, scaled)
            if q:
                terms[wi] = q
        return HeckeElement(target, terms)

    def specialize_r(self, a: "HeckeElement", r_value=Fraction(1)) -> "HeckeElement":
        """Quotient map r -> r_value, onto the r1-mode algebra.

        For r_value = c the relations become those of parameters c*k, so the
        target algebra carries the scaled parameter function.
        """
        self._assert_mine(a)
        if self.mode == "r1":
            raise ValueError("element already specialized")
        c = exact_scalar(r_value)
        k_new = self.k if c == 1 else self.k.scaled(c)
        target = self.with_k(k_new, mode="r1")
        terms = {}
        for wi, p in a.terms.items():
            q = p.subs_value(self._r_index, c)
            if q:
                terms[wi] = q
        return HeckeElement(target, terms)

    # -- decomposition along components -------------------------------------------------------------
    def component_algebras(self) -> list["HeckeAlgebra"]:
        if len(self.group.gamma_elements) > 1:
            raise ValueError("tensor decomposition requires trivial Gamma")
        out = []
        offset = 0
        for comp in self.rs.components:
            sub = RootSystem(
                [row[offset: offset + comp.rank]
                 for row in self.rs.cartan[offset: offset + comp.rank]],
                components=[comp])
            sub_group = ExtendedWeylGroup(sub)
            sub_k = ParameterFunction.from_simple_values(
                sub_group, self.k.simple_values()[offset: offset + comp.rank])
            out.append(HeckeAlgebra(sub_group, sub_k, mode=self.mode,
                                    cyclotomic_order=self.cyclotomic_order))
            offset += comp.rank
        return out

    def tensor_decompose(self, a: "HeckeElement",
                         factors: list["HeckeAlgebra"] | None = None) -> "TensorElement":
        """Rewrite over a composite system as a sum of product terms."""
        factors = factors or self.component_algebras()
        summands = []
        for wi, p in a.terms.items():
            w = self.group.elements[wi]
            parts = self._split_group_element(w, factors)
            for e, c in p.terms.items():
                polys = []
                offset = 0
                for f in factors:
                    rk = f.rs.rank
                    expo = [0] * f.nvars
                    expo[: rk] = e[offset: offset + rk]
                    polys.append(Polynomial(f.nvars, {tuple(expo): Fraction(1)}))
                    offset += rk
                central = [0] * (self.rs.central_dim + 1)
                central[: self.rs.central_dim] = e[offset: offset + self.rs.central_dim]
                central[-1] = e[-1]
                cpoly = Polynomial(self.rs.central_dim + 1, {tuple(central): c})
                summands.append((tuple(g.index for g in parts), tuple(polys), cpoly))
        return TensorElement(self, factors, summands)

    def _split_group_element(self, w: GroupElement, factors):
        parts = []
        offset = 0
        for f in factors:
            word = tuple(i - offset for i in w.word
                         if offset <= i < offset + f.rs.rank)
            parts.append(f.group.word_element(word))
            offset += f.rs.rank
        return parts

    def tensor_compose(self, te: "TensorElement") -> "HeckeElement":
        """Inverse of tensor_decompose; all factor r's map to the shared r."""
        out = self.zero()
        for key, polys, central in te.summands:
            word = []
            offset = 0
            for f, gi in zip(te.factors, key):
                g = f.group.elements[gi]
                word.extend(i + offset for i in g.word)
                offset += f.rs.rank
            w = self.group.word_element(tuple(word))
            pieces = {(0,) * self.nvars: central.constant_term()} \
                if not central.terms else {}
            for ec, c in central.terms.items():
                expo = [0] * self.nvars
                expo[offset: offset + self.rs.central_dim] = ec[: self.rs.central_dim]
                expo[-1] = ec[-1]
                pieces[tuple(expo)] = c
            base = Polynomial(self.nvars, pieces)
            prod = base
            pos = 0
            for f, p in zip(te.factors, polys):
                lifted = {}
                for e2, c2 in p.terms.items():
                    expo = [0] * self.nvars
                    for j in range(f.rs.rank):
                        expo[pos + j] = e2[j]
                    expo[-1] = e2[-1]  # factor r joins the shared r
                    lifted[tuple(expo)] = c2
                prod = prod * Polynomial(self.nvars, lifted)
                pos += f.rs.rank
            if prod:
                out = out + HeckeElement(self, {w.index: prod})
        return out

    # -- misc ----------------------------------------------------------------------------------------
    def describe(self) -> str:
        return (f"H({self.group.describe()}, k=[" +
                ", ".join(str(v) for v in self.k.simple_values()) +
                f"], mode={self.mode}" +
                ("" if self.cocycle.is_trivial() else ", twisted") + ")")

    def __repr__(self):
        return f"HeckeAlgebra({self.describe()})"


class HeckeElement:
    """A PBW normal form sum_w N_w p_w over a fixed algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: HeckeAlgebra, terms: dict[int, Polynomial]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *a):
        raise AttributeError("HeckeElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra.compatible(other.algebra) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((i, p) for i, p in self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self.algebra._assert_mine(other)
        terms = dict(self.terms)
        for i, p in other.terms.items():
            s = terms.get(i)
            s = p if s is None else s + p
            if s:
                terms[i] = s
            else:
                terms.pop(i, None)
        return HeckeElement(self.algebra, terms)

    def __neg__(self):
        return HeckeElement(self.algebra, {i: -p for i, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "HeckeElement":
        if c == 0:
            return self.algebra.zero()
        return HeckeElement(self.algebra, {i: p.scale(c) for i, p in self.terms.items()})

    def support(self) -> list[GroupElement]:
        g = self.algebra.group
        return [g.elements[i] for i in sorted(self.terms)]

    def coefficient(self, w: GroupElement) -> Polynomial:
        return self.terms.get(w.index, Polynomial.zero(self.algebra.nvars))

    def to_string(self) -> str:
        """Canonical form 'N[word]*(poly) + ...', terms in enumeration order."""
        if not self.terms:
            return "0"
        alg = self.algebra
        names = _variable_names(alg)
        parts = []
        for i in sorted(self.terms):
            w = alg.group.elements[i]
            parts.append(f"N[{_word_str(alg, w)}]*({self.terms[i].to_string(names)})")
        return " + ".join(parts)

    def __repr__(self):
        return f"HeckeElement({self.to_string()})"


def _numerators(*term_dicts) -> tuple:
    """(den, {exponent: n}, ...): each coefficient of each term dict as n / den,
    den the lcm of their denominators."""
    splits = [[(e, *split_scalar(c)) for e, c in t.items()] for t in term_dicts]
    den = lcm(*(d for s in splits for _, _, d in s))
    return (den, *({e: n if d == den else n * (den // d) for e, n, d in s} for s in splits))


def _over_lcm(state: dict, den: int, d: int) -> tuple[dict, int]:
    """Numerator dicts over den brought over lcm(den, d); returns (state, lcm)."""
    grow = lcm(den, d) // den
    return {k: {e: n * grow for e, n in t.items()} for k, t in state.items()}, den * grow


def _variable_names(alg: HeckeAlgebra) -> list[str]:
    if alg.rs.dim == 1:
        return ["x", "r"]
    return [f"x{i + 1}" for i in range(alg.rs.dim)] + ["r"]


def _word_str(alg: HeckeAlgebra, w: GroupElement) -> str:
    letters = []
    if alg.rs.rank == 1:
        letters = ["s"] * len(w.word)
    else:
        letters = [f"s{i + 1}" for i in w.word]
    if w.gamma:
        letters.append(f"g{w.gamma}")
    return "*".join(letters) if letters else "e"


@dataclass
class Grading:
    homogeneous: bool
    degree: int | None
    components: dict[int, HeckeElement]


class TensorElement:
    """A formal sum of product terms over the component algebras.

    Each summand is (component group indices, component polynomials, central
    polynomial in the central coordinates and r).  Summands are not merged;
    equality of tensor elements is decided by composing back into H.
    """

    def __init__(self, parent: HeckeAlgebra, factors: list[HeckeAlgebra],
                 summands=None):
        self.parent = parent
        self.factors = factors
        self.summands = [s for s in (summands or []) if s[2]]

    def multiply(self, other: "TensorElement") -> "TensorElement":
        if any(not a.compatible(b) for a, b in zip(self.factors, other.factors)):
            raise ValueError("tensor elements over different factorizations")
        out = TensorElement(self.parent, self.factors)
        for ka, pa, ca in self.summands:
            for kb, pb, cb in other.summands:
                central = ca * cb
                if not central:
                    continue
                factor_products = [
                    f.multiply(HeckeElement(f, {ga: qa}), HeckeElement(f, {gb: qb}))
                    for f, ga, gb, qa, qb in zip(self.factors, ka, kb, pa, pb)]
                out._accumulate(factor_products, central)
        return out

    def _accumulate(self, factor_elements: list[HeckeElement], central: Polynomial):
        def rec(i, key, polys):
            if i == len(factor_elements):
                self.summands.append((tuple(key), tuple(polys), central))
                return
            for gi, p in factor_elements[i].terms.items():
                rec(i + 1, key + [gi], polys + [p])

        rec(0, [], [])

    def is_zero(self):
        return self.parent.tensor_compose(self).is_zero()
