"""
Seeded property suites over any algebra instance.

Each suite checks one family of laws exactly and reports a pass/fail with a
counterexample witness on failure.  The command line runs all applicable
suites; the acceptance tests call individual suites with their own counts.
All randomness flows through one `random.Random(seed)`, so runs are fully
deterministic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction

from .groupalgebra import GROUP_ALGEBRA_CAP, TwistedGroupAlgebra
from .hecke import HeckeAlgebra, HeckeElement
from .homology import ext_self_induced, koszul_dual_dims, koszul_resolution, \
    generic_point_exactness
from .modules import action_matrix, induce_from_character, is_regular, \
    restrict_to_group_algebra, weight_decomposition, weight_multiset_oracle
from .polynomials import Polynomial
from .weylgroups import Cocycle, _subgroup, centralizer_components

__all__ = ["SuiteResult", "run_verification", "random_element",
           "random_homogeneous_element", "invariant_polynomials",
           "ALL_SUITES"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f": {self.detail}" if self.detail else "")


# ---------------------------------------------------------------------------
# random element generators
# ---------------------------------------------------------------------------

_COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def random_element(algebra: HeckeAlgebra, rng: random.Random,
                   terms: int = 2, max_degree: int = 2) -> HeckeElement:
    """A small random element with exact rational coefficients."""
    return _random_terms(algebra, rng, terms, lambda: rng.randint(0, max_degree))


def random_homogeneous_element(algebra: HeckeAlgebra, rng: random.Random,
                               terms: int = 2, half_degree: int | None = None) -> HeckeElement:
    """Random element homogeneous of one graded degree (one filtration layer
    in r1 mode, where r is never drawn)."""
    n = rng.randint(0, 2) if half_degree is None else half_degree
    return _random_terms(algebra, rng, terms, lambda: n)


def _random_terms(algebra: HeckeAlgebra, rng: random.Random, terms: int,
                  draw_degree) -> HeckeElement:
    """Sum of `terms` draws N_w * c * monomial; draw_degree() is called once
    per term, after w is drawn."""
    avoid_r = algebra.mode == "r1"
    nv = algebra.nvars
    out = {}
    for _ in range(terms):
        w = rng.choice(algebra.group.elements)
        expo = [0] * nv
        for _ in range(draw_degree()):
            expo[rng.randrange(nv - 1 if avoid_r else nv)] += 1
        p = Polynomial(nv, {tuple(expo): rng.choice(_COEFFS)})
        out[w.index] = out.get(w.index, Polynomial.zero(nv)) + p
    return algebra.from_terms(out)


def invariant_polynomials(algebra: HeckeAlgebra, max_degree: int = 4) -> list[Polynomial]:
    """Group-symmetrized monomials of each polynomial degree up to the bound."""
    nv = algebra.nvars
    out = []
    seeds = []
    for m in range(1, max_degree + 1):
        expo = [0] * nv
        expo[0] = m
        seeds.append(Polynomial(nv, {tuple(expo): Fraction(1)}))
    if algebra.rs.dim >= 2 and max_degree >= 2:
        expo = [0] * nv
        expo[0] = expo[1] = 1
        seeds.append(Polynomial(nv, {tuple(expo): Fraction(1)}))
    for seed in seeds:
        total = Polynomial.zero(nv)
        for w in algebra.group.elements:
            total = total + algebra.group.act_polynomial(w, seed)
        if total:
            out.append(total)
    return out


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------

def suite_polynomials(algebra, rng, cases=40) -> SuiteResult:
    """Divided-difference laws: twisted Leibniz, kernel, action compatibility."""
    rs = algebra.rs
    group = algebra.group
    nv = algebra.nvars
    for _ in range(cases):
        i = rng.randrange(rs.rank)
        p = _random_poly(algebra, rng)
        q = _random_poly(algebra, rng)
        s, alpha = group.simple(i), rs._simple(i)
        dp, dq = algebra.demazure(alpha, p), algebra.demazure(alpha, q)
        lhs = algebra.demazure(alpha, p * q)
        rhs = dp * q + group.act_polynomial(s, p) * dq
        if lhs != rhs:
            return SuiteResult("polynomials", False, f"Leibniz fails at s{i + 1}")
        inv = p + group.act_polynomial(s, p)
        if algebra.demazure(alpha, inv) != Polynomial.zero(nv):
            return SuiteResult("polynomials", False, f"kernel fails at s{i + 1}")
        u, v = rng.choice(group.elements), rng.choice(group.elements)
        if group.act_polynomial(group.multiply(u, v), p) != \
                group.act_polynomial(u, group.act_polynomial(v, p)):
            return SuiteResult("polynomials", False, "action not multiplicative")
        if group.act_polynomial(u, p * q) != \
                group.act_polynomial(u, p) * group.act_polynomial(u, q):
            return SuiteResult("polynomials", False, "action not a ring map")
    return SuiteResult("polynomials", True, f"{cases} cases")


def _random_poly(algebra, rng, max_degree=3):
    nv = algebra.nvars
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expo = [0] * nv
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(nv)] += 1
        terms[tuple(expo)] = rng.choice(_COEFFS)
    return Polynomial(nv, terms)


def suite_root_system(algebra, rng=None, cases=None) -> SuiteResult:
    """Stability of R and the conjugation rule for reflections, exhaustively."""
    rs = algebra.rs
    group = algebra.group
    roots = set(rs.roots)
    for w in group.elements:
        for beta in rs.roots:
            img = group.act_root(w, beta)
            if img not in roots:
                return SuiteResult("root-system", False, f"{w!r} moves {beta} off R")
            lhs = group.reflection(img)
            rhs = group.multiply(group.multiply(w, group.reflection(beta)),
                                 group.inverse(w))
            if lhs.key != rhs.key:
                return SuiteResult("root-system", False,
                                   f"s_w(beta) != w s_beta w^-1 at {beta}, {w!r}")
    return SuiteResult("root-system", True, f"{len(roots)} roots, {len(group)} elements")


def suite_parameters(algebra, rng=None, cases=None) -> SuiteResult:
    bad = algebra.k.invariance_failure()
    if bad is not None:
        return SuiteResult("parameters", False, f"k not invariant at {bad}")
    return SuiteResult("parameters", True, "k(w a) = k(a) exhaustively")


def suite_epsilon(algebra, rng=None, cases=None) -> SuiteResult:
    group = algebra.group
    chars = group.epsilon_characters()
    for eps in chars:
        for w in group.elements:
            winv = group.inverse(w)
            for i in range(algebra.rs.rank):
                s = group.simple(i)
                conj = group.multiply(group.multiply(w, s), winv)
                if eps(conj) != eps(s):
                    return SuiteResult("epsilon-characters", False,
                                       f"{eps.label()} not conjugation invariant")
    return SuiteResult("epsilon-characters", True, f"{len(chars)} characters")


def suite_cocycle(algebra, rng, cases=5) -> SuiteResult:
    report = algebra.cocycle.validate()
    if report is not None:
        return SuiteResult("cocycle", False, f"preset cocycle invalid: {report}")
    group = algebra.group
    n = len(group.gamma_elements)
    if n > 1:
        # a broken normalization must be caught
        table = [[algebra.cocycle.table[i][j] for j in range(n)] for i in range(n)]
        table[0][rng.randrange(1, n)] = Fraction(-7)
        broken = Cocycle(group, table, normalize=False)
        if broken.validate() is None:
            return SuiteResult("cocycle", False, "validator misses a broken table")
    return SuiteResult("cocycle", True, "identity and normalization checked")


def suite_group_embedding(algebra, rng, cases=60) -> SuiteResult:
    """Twisted group law and the conjugation action inside the algebra."""
    group = algebra.group
    for _ in range(cases):
        u, v = rng.choice(group.elements), rng.choice(group.elements)
        lhs = algebra.N(u) * algebra.N(v)
        rhs = algebra.N(group.multiply(u, v)).scale(algebra.cocycle.value(u, v))
        if lhs != rhs:
            return SuiteResult("group-embedding", False, f"N law fails at {u!r} {v!r}")
    for gi in range(1, len(group.gamma_elements)):
        g = group.gamma_element(gi)
        ginv = group.inverse(g)
        for j in range(algebra.rs.dim):
            xi = algebra.x(j)
            lhs = algebra.N(g) * xi * algebra.N(ginv)
            twist = algebra.cocycle.value(g, ginv)
            rhs = algebra.poly(group.act_polynomial(g, Polynomial.variable(
                algebra.nvars, j))).scale(twist)
            if lhs != rhs:
                return SuiteResult("group-embedding", False,
                                   f"conjugation fails at g{gi}, x{j + 1}")
    return SuiteResult("group-embedding", True, f"{cases} products")


def suite_associativity(algebra, rng, cases=100) -> SuiteResult:
    for n in range(cases):
        a = random_homogeneous_element(algebra, rng)
        b = random_homogeneous_element(algebra, rng)
        c = random_homogeneous_element(algebra, rng)
        if (a * b) * c != a * (b * c):
            return SuiteResult("associativity", False,
                               f"triple #{n}: ({a.to_string()}) ...")
    return SuiteResult("associativity", True, f"{cases} random triples")


def suite_grading(algebra, rng, cases=60) -> SuiteResult:
    if algebra.mode == "r1":
        return SuiteResult("grading", True, "skipped: r1 mode is filtered only")
    for _ in range(cases):
        a = random_homogeneous_element(algebra, rng)
        b = random_homogeneous_element(algebra, rng)
        if a.is_zero() or b.is_zero():
            continue
        ga, gb = algebra.grading(a), algebra.grading(b)
        prod = a * b
        if prod.is_zero():
            continue
        gp = algebra.grading(prod)
        if not (ga.homogeneous and gb.homogeneous and gp.homogeneous):
            return SuiteResult("grading", False, "homogeneity lost in a product")
        if gp.degree != ga.degree + gb.degree:
            return SuiteResult("grading", False,
                               f"degrees {ga.degree}+{gb.degree} -> {gp.degree}")
        # the degree-scaling map z^n on degree-2n parts is multiplicative
        z = Fraction(rng.choice([2, 3, 5]))
        if _degree_scale(algebra, z, prod) != \
                _degree_scale(algebra, z, a) * _degree_scale(algebra, z, b):
            return SuiteResult("grading", False, "degree scaling not multiplicative")
    return SuiteResult("grading", True, f"{cases} products")


def _degree_scale(algebra, z, a):
    out = algebra.zero()
    for d, comp in algebra.grading(a).components.items():
        out = out + comp.scale(z ** (d // 2))
    return out


def suite_center(algebra, rng=None, cases=None) -> SuiteResult:
    """Invariant polynomials are central in r1 mode; a coordinate is not."""
    if algebra.mode != "r1":
        target = algebra.with_k(algebra.k, mode="r1") if algebra.mode == "generic" \
            else None
        if target is None:
            return SuiteResult("center", True, "skipped: crossed-product mode")
    else:
        target = algebra
    count = 0
    for p in invariant_polynomials(target, max_degree=4):
        ok, witness = target.is_central(target.poly(p))
        if not ok:
            return SuiteResult("center", False,
                               f"invariant {p!r} fails against {witness.to_string()}")
        count += 1
    ok, witness = target.is_central(target.x(0))
    if ok:
        return SuiteResult("center", False, "non-invariant coordinate declared central")
    if algebra.mode == "generic":
        ok_r, _ = algebra.is_central(algebra.r())
        if not ok_r:
            return SuiteResult("center", False, "r is not central in generic mode")
    return SuiteResult("center", True,
                       f"{count} invariants central; witness {witness.to_string()}")


def suite_isomorphisms(algebra, rng, cases=50) -> SuiteResult:
    if algebra.mode != "generic":
        return SuiteResult("isomorphisms", True, "skipped: needs generic mode")
    z = Fraction(3)
    eps_list = algebra.group.epsilon_characters()
    for n in range(cases):
        a = random_element(algebra, rng)
        b = random_element(algebra, rng)
        ab = a * b
        if algebra.im_involution(algebra.im_involution(a)) != a:
            return SuiteResult("isomorphisms", False, f"IM^2 != id at #{n}")
        if algebra.im_involution(ab) != \
                algebra.im_involution(a) * algebra.im_involution(b):
            return SuiteResult("isomorphisms", False, f"IM not a hom at #{n}")
        if algebra.sgn_involution(algebra.sgn_involution(a)) != a:
            return SuiteResult("isomorphisms", False, f"sgn^2 != id at #{n}")
        if algebra.sgn_involution(ab) != \
                algebra.sgn_involution(a) * algebra.sgn_involution(b):
            return SuiteResult("isomorphisms", False, f"sgn not a hom at #{n}")
        mza = algebra.scale_iso(z, a)
        if mza.algebra.scale_iso(1 / z, mza, target=algebra) != a:
            return SuiteResult("isomorphisms", False, f"m_z o m_1/z != id at #{n}")
        if algebra.scale_iso(z, ab) != \
                mza.algebra.multiply(mza, algebra.scale_iso(z, b)):
            return SuiteResult("isomorphisms", False, f"m_z not a hom at #{n}")
        eps = rng.choice(eps_list)
        pa, pb = algebra.phi_epsilon(eps, a), algebra.phi_epsilon(eps, b)
        if algebra.phi_epsilon(eps, ab) != pa.algebra.multiply(pa, pb):
            return SuiteResult("isomorphisms", False,
                               f"phi_{eps.label()} not a hom at #{n}")
        # specialization commutes with multiplication
        sab = algebra.specialize_r(ab)
        if sab != sab.algebra.multiply(algebra.specialize_r(a), algebra.specialize_r(b)):
            return SuiteResult("isomorphisms", False, f"r-specialization fails at #{n}")
    return SuiteResult("isomorphisms", True, f"{cases} random elements per law")


def suite_graded_limit(algebra, rng, cases=60) -> SuiteResult:
    """Leading terms multiply like the crossed product when degrees add."""
    base = algebra.with_k(algebra.k, mode="r1") if algebra.mode == "generic" else algebra
    if base.mode != "r1":
        return SuiteResult("graded-limit", True, "skipped: needs the r1 filtration")
    checked = 0
    for _ in range(cases):
        a = random_element(base, rng)
        b = random_element(base, rng)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        if base.filtration_degree(ab) != \
                base.filtration_degree(a) + base.filtration_degree(b):
            continue  # top-degree cancellation: multiplicativity not asserted
        lt = base.leading_term(ab)
        target = lt.algebra
        prod = target.multiply(base.leading_term(a), base.leading_term(b))
        if lt != prod:
            return SuiteResult("graded-limit", False, "leading terms do not multiply")
        checked += 1
    return SuiteResult("graded-limit", True, f"{checked} non-cancelling pairs")


def suite_tensor(algebra, rng, cases=25) -> SuiteResult:
    if len(algebra.group.gamma_elements) > 1:
        return SuiteResult("tensor", True, "skipped: Gamma nontrivial")
    if len(algebra.rs.components) < 2 and algebra.rs.central_dim == 0:
        return SuiteResult("tensor", True, "skipped: irreducible system")
    factors = algebra.component_algebras()
    for n in range(cases):
        a = random_element(algebra, rng)
        b = random_element(algebra, rng)
        ta = algebra.tensor_decompose(a, factors)
        if algebra.tensor_compose(ta) != a:
            return SuiteResult("tensor", False, f"round trip fails at #{n}")
        tb = algebra.tensor_decompose(b, factors)
        if algebra.tensor_compose(ta.multiply(tb)) != a * b:
            return SuiteResult("tensor", False, f"products disagree at #{n}")
    return SuiteResult("tensor", True, f"{cases} round trips and products")


def suite_modules(algebra, rng, cases=6) -> SuiteResult:
    """Induced-module weights, the regular-character identity, transport."""
    base = algebra.with_k(algebra.k, mode="r1") if algebra.mode != "r1" else algebra
    if base.cyclotomic_order not in (None, 1):
        return SuiteResult("modules", True, "skipped: cyclotomic parameters")
    table = None
    if len(base.group) <= GROUP_ALGEBRA_CAP:
        table = TwistedGroupAlgebra(base.group, base.cocycle)
    for n in range(cases):
        lam = _random_regular_weight(base, rng)
        mod = induce_from_character(base, lam)
        got = sorted(d.weight for d in weight_decomposition(mod)
                     for _ in range(d.multiplicity))
        if got != weight_multiset_oracle(base, lam):
            return SuiteResult("modules", False, f"weights wrong at {lam}")
        if table is not None:
            # the restriction of an induced module is the regular character,
            # so every complex irreducible appears exactly dim-many times
            _, mults = restrict_to_group_algebra(mod, table)
            for block, m in zip(table.blocks, mults):
                if m != block.dim:
                    return SuiteResult(
                        "modules", False,
                        f"regular character identity fails at block {block.label()}")
    # scale invariance of cone membership for positive scaling
    for _ in range(10):
        lam = _random_regular_weight(base, rng)
        pos = base.rs.cone_position(lam)
        scaled = base.rs.cone_position(tuple(Fraction(5) * c for c in lam))
        if (pos.in_closed_cone, pos.in_open_cone) != \
                (scaled.in_closed_cone, scaled.in_open_cone):
            return SuiteResult("modules", False, "cone membership not scale invariant")
    return SuiteResult("modules", True, f"{cases} induced modules")


def _random_regular_weight(algebra, rng):
    while True:
        lam = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                    for _ in range(algebra.rs.dim))
        if is_regular(algebra, lam):
            return lam


def suite_homology(algebra, rng, cases=2) -> SuiteResult:
    from math import comb

    d = algebra.rs.dim
    complex_ = koszul_resolution(d + 1)
    point = tuple(Fraction(p) for p in range(2, d + 3))
    if not generic_point_exactness(complex_, point):
        return SuiteResult("homology", False, "Koszul complex not generically exact")
    ran = ["Koszul"]
    base = algebra if algebra.mode == "r1" else None
    if algebra.mode == "generic":
        # every variable, x_1 .. x_d and r, acts by zero on H_0
        nv = algebra.nvars
        for i in range(nv):
            action = action_matrix(algebra, algebra.poly(Polynomial.variable(nv, i)),
                                   [Fraction(0)] * nv)
            if any(any(x != 0 for x in row) for row in action):
                return SuiteResult("homology", False,
                                   "a degree-two generator acts nontrivially on H_0")
        dims = koszul_dual_dims(algebra)
        expected = {n: comb(d + 1, n) * len(algebra.group) for n in range(d + 2)}
        if dims != expected:
            return SuiteResult("homology", False, f"dual dims {dims} != {expected}")
        ran.append("dual dims")
        base = algebra.with_k(algebra.k, mode="r1")
    if base is not None and base.cyclotomic_order not in (None, 1):
        return SuiteResult("homology", True,
                           ", ".join(ran) + "; Ext skipped: cyclotomic parameters")
    if base is not None and len(base.group) <= 16:
        for _ in range(cases):
            lam = _random_regular_weight(base, rng)
            table = ext_self_induced(base, lam)
            want = tuple(comb(d + 1, n) for n in range(d + 2))
            if table.as_tuple() != want:
                return SuiteResult("homology", False,
                                   f"Ext dims {table.as_tuple()} != {want} at {lam}")
        ran.append("Ext dims")
    return SuiteResult("homology", True, ", ".join(ran))


def suite_cosets(algebra, rng, cases=4) -> SuiteResult:
    """Fixed-locus component counts against an orbit-counting oracle."""
    group = algebra.group
    rs = algebra.rs
    if rs.rank == 0:
        return SuiteResult("cosets", True, "skipped: no roots")
    zero = tuple(Fraction(0) for _ in range(rs.dim))
    count0, _ = centralizer_components(group, zero, [0] if rs.rank else [])
    if count0 != 1:
        return SuiteResult("cosets", False, f"sigma = 0 gives {count0} != 1")
    for _ in range(cases):
        sigma = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rs.dim))
        levi = sorted(rng.sample(range(rs.rank), rng.randint(0, rs.rank - 1)))
        count, _ = centralizer_components(group, sigma, levi)
        oracle = _component_oracle(group, sigma, levi)
        if count != oracle:
            return SuiteResult("cosets", False,
                               f"count {count} != oracle {oracle} at {sigma}, {levi}")
        # constancy along the orbit of sigma
        w = rng.choice([g for g in group.elements if g.gamma == 0])
        moved, _ = centralizer_components(group, group.act_point(w, sigma), levi)
        if moved != count:
            return SuiteResult("cosets", False, "count not constant on the orbit")
    return SuiteResult("cosets", True, f"{cases} sigma samples")


def _component_oracle(group, sigma, levi_simple_indices):
    """Independent count: orbits of W_sigma on the coset space W / W_M."""
    rs = group.rs
    w_elements = [g for g in group.elements if g.gamma == 0]
    levi = _subgroup(group, [group.simple(i) for i in levi_simple_indices])
    cosets = {}
    for g in w_elements:
        cosets[g.key] = frozenset(group.multiply(g, m).key for m in levi)
    distinct = {}
    for key, members in cosets.items():
        distinct[members] = distinct.get(members) or key
    sigma_gens = [group.reflection(b) for b in rs.roots
                  if rs.root_value(b, sigma) == 0]
    # union-find over cosets under left multiplication by W_sigma generators
    parent = {m: m for m in distinct}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in list(distinct):
        for s in sigma_gens:
            moved = frozenset(group.multiply(s, group.from_key(m)).key for m in members)
            ra, rb = find(members), find(moved)
            if ra != rb:
                parent[ra] = rb
    return len({find(m) for m in distinct})


ALL_SUITES = {
    "polynomials": suite_polynomials,
    "root-system": suite_root_system,
    "parameters": suite_parameters,
    "epsilon-characters": suite_epsilon,
    "cocycle": suite_cocycle,
    "group-embedding": suite_group_embedding,
    "associativity": suite_associativity,
    "grading": suite_grading,
    "center": suite_center,
    "isomorphisms": suite_isomorphisms,
    "graded-limit": suite_graded_limit,
    "tensor": suite_tensor,
    "modules": suite_modules,
    "homology": suite_homology,
    "cosets": suite_cosets,
}


def run_verification(algebra: HeckeAlgebra, seed: int = 0, cases: int | None = None,
                     suites: list[str] | None = None) -> list[SuiteResult]:
    """Run the named suites (default all) with one seeded generator."""
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    names = suites or list(ALL_SUITES)
    results = []
    for name in names:
        fn = ALL_SUITES[name]
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        if cases is None:
            results.append(fn(algebra, rng))
        else:
            results.append(fn(algebra, rng, cases=cases))
    return results
