import random
from fractions import Fraction

import pytest

from gradedhecke.hecke import HeckeAlgebra, HeckeElement
from gradedhecke.polynomials import Polynomial, _accumulate, _wrap
from gradedhecke.presets import PRESETS, algebra_from_config, build_preset
from gradedhecke.rootdata import RootSystem
from gradedhecke.scalars import Cyc, divide_scalar
from gradedhecke.verification import invariant_polynomials, random_element, \
    random_homogeneous_element
from gradedhecke.weylgroups import Cocycle, ExtendedWeylGroup, ParameterFunction


@pytest.fixture(scope="module")
def A1():
    return build_preset("A1")  # k = 1, generic mode


@pytest.fixture(scope="module")
def A1r1():
    return build_preset("A1", mode="r1")


def test_braid_relation_fixture(A1):
    # alpha * N_s = N_e (2 k r) + N_s (-alpha), with k = 1
    lhs = A1.x(0) * A1.N(0)
    expected = A1.r().scale(Fraction(2)) + A1.N(0) * A1.x(0).scale(Fraction(-1))
    assert lhs == expected
    assert lhs.to_string() == "N[e]*(2*r) + N[s]*(-x)"


def test_involution_squares(A1):
    assert A1.N(0) * A1.N(0) == A1.one()


def test_crossed_product_no_correction():
    H = build_preset("A2", k=["0"], mode="k0")
    for w in H.group.elements:
        xi = H.x(0) * H.x(1) + H.x(1)
        lhs = xi * H.N(w)
        winv = H.group.inverse(w)
        moved = H.group.act_polynomial(
            winv, Polynomial.variable(H.nvars, 0) * Polynomial.variable(H.nvars, 1)
            + Polynomial.variable(H.nvars, 1))
        assert lhs == H.N(w) * H.poly(moved)


def test_unit_and_zero(A1):
    a = A1.x(0) * A1.N(0) + A1.r()
    assert A1.one() * a == a == a * A1.one()
    assert (a - a).is_zero()


def test_grading(A1):
    assert A1.grading(A1.N(0)).degree == 0
    xr = A1.x(0) * A1.r()
    assert A1.grading(xr).degree == 4
    g = A1.grading(A1.x(0) + A1.r())
    assert g.homogeneous and g.degree == 2
    mixed = A1.grading(A1.one() + A1.x(0))
    assert not mixed.homogeneous
    assert sorted(mixed.components) == [0, 2]


def test_degree_additive_generic(A1):
    rng = random.Random(5)
    for _ in range(40):
        a = random_homogeneous_element(A1, rng)
        b = random_homogeneous_element(A1, rng)
        p = a * b
        if a.is_zero() or b.is_zero() or p.is_zero():
            continue
        assert A1.grading(p).degree == \
            A1.grading(a).degree + A1.grading(b).degree


def test_is_central(A1r1):
    nv = A1r1.nvars
    alpha_sq = A1r1.poly(Polynomial(nv, {(2, 0): Fraction(1)}))
    ok, _ = A1r1.is_central(alpha_sq)
    assert ok
    ok, witness = A1r1.is_central(A1r1.x(0))
    assert not ok and witness.to_string() == "N[s]*(1)"


def test_r_central_generic(A1):
    ok, _ = A1.is_central(A1.r())
    assert ok


def test_center_invariants_all_presets():
    for name in ("A1", "A2", "B2", "A2flip", "A2flip-tw"):
        H = build_preset(name, mode="r1")
        for p in invariant_polynomials(H, max_degree=4):
            ok, _ = H.is_central(H.poly(p))
            assert ok, (name, p)


# --- scaling isomorphisms -----------------------------------------------------------

def test_scale_identity(A1):
    a = A1.x(0) * A1.N(0) + A1.r()
    assert A1.scale_iso(Fraction(1), a, target=A1) == a


def test_scale_round_trip(A1):
    rng = random.Random(9)
    z = Fraction(3)
    for _ in range(25):
        a = random_element(A1, rng)
        image = A1.scale_iso(z, a)
        assert image.algebra.k.simple_values() == [Fraction(1, 3)]
        assert image.algebra.scale_iso(1 / z, image, target=A1) == a


def test_scale_zero_is_surjection_onto_group_part():
    H0 = build_preset("A1", k=["0"], mode="k0")
    assert H0.scale_iso(Fraction(0), H0.x(0)).is_zero()
    assert H0.scale_iso(Fraction(0), H0.N(0).scale(Fraction(5))) == \
        H0.N(0).scale(Fraction(5))
    assert H0.scale_iso(Fraction(0), H0.r()) == H0.r()
    with pytest.raises(ValueError):
        build_preset("A1").scale_iso(Fraction(0), build_preset("A1").x(0))


@pytest.mark.parametrize("z", [0.5, 2.0, True, False, 1j])
def test_scale_iso_rejects_an_inexact_z_at_the_call(A1, z):
    """0.5 used to fail inside `_rescale` ("inexact coefficient 0.5") and True to
    act as z = 1."""
    with pytest.raises(TypeError, match="exact scalar"):
        A1.scale_iso(z, A1.x(0) + A1.N(0))


def test_scale_iso_takes_an_exact_z_as_given(A1):
    a = A1.x(0) * A1.N(0) + A1.r()
    images = [A1.scale_iso(z, a) for z in (2, Fraction(2), "2")]
    assert len({image.to_string() for image in images}) == 1
    assert images[0] == images[1] == images[2]
    cyc = algebra_from_config({"types": [["A", 1]], "k": ["z"], "cyclotomic_order": 3})
    image = cyc.scale_iso(Cyc.root_of_unity(3), cyc.x(0) * cyc.N(0) + cyc.r())
    assert image.to_string() == "N[e]*((1+2*z)*r) + N[s]*(-z*x)"
    assert image.algebra.k.simple_values() == [Cyc(3, [Fraction(1)])]


# --- IM and sgn ------------------------------------------------------------------------

def test_im_fixture(A1):
    # two sign flips cancel: IM(N_s alpha) = N_s alpha
    a = A1.N(0) * A1.x(0)
    assert A1.im_involution(a) == a


def test_im_involution_random(A1):
    rng = random.Random(11)
    for _ in range(30):
        a = random_element(A1, rng)
        assert A1.im_involution(A1.im_involution(a)) == a


def test_im_and_sgn_pinned():
    b2 = build_preset("B2")
    a = random_element(b2, random.Random(3))
    assert a.to_string() == "N[s1*s2]*(-1/2*x1*r) + N[s1*s2*s1*s2]*(x1*r)"
    flipped = "N[s1*s2]*(1/2*x1*r) + N[s1*s2*s1*s2]*(-x1*r)"
    assert b2.im_involution(a).to_string() == flipped
    assert b2.sgn_involution(a).to_string() == flipped


def test_scale_and_phi_epsilon_pinned():
    b2 = build_preset("B2")
    a = random_element(b2, random.Random(4), terms=6, max_degree=3)
    assert a.to_string() == (
        "N[e]*(-x1*x2*r) + N[s1*s2]*(x1*r + 3) + N[s2*s1]*(-x1^2) + "
        "N[s1*s2*s1]*(-x1^2) + N[s1*s2*s1*s2]*(-3/2*x1)")
    assert b2.scale_iso(Fraction(3), a).to_string() == (
        "N[e]*(-9*x1*x2*r) + N[s1*s2]*(3*x1*r + 3) + N[s2*s1]*(-9*x1^2) + "
        "N[s1*s2*s1]*(-9*x1^2) + N[s1*s2*s1*s2]*(-9/2*x1)")
    eps = next(e for e in b2.group.epsilon_characters() if e.signs == (-1, 1))
    assert b2.phi_epsilon(eps, a).to_string() == (
        "N[e]*(-x1*x2*r) + N[s1*s2]*(-x1*r - 3) + N[s2*s1]*(x1^2) + "
        "N[s1*s2*s1]*(-x1^2) + N[s1*s2*s1*s2]*(-3/2*x1)")
    h0 = build_preset("B2", k=["0", "0"], mode="k0")
    b = random_element(h0, random.Random(4), terms=6, max_degree=3) + h0.N(1) * h0.r()
    assert h0.scale_iso(Fraction(0), b).to_string() == "N[s2]*(r) + N[s1*s2]*(3)"


def test_sgn_flips_r(A1):
    assert A1.sgn_involution(A1.r()) == A1.r().scale(Fraction(-1))


def test_sgn_specialized_changes_parameters(A1r1):
    image = A1r1.sgn_involution(A1r1.N(0))
    assert image.algebra.k.simple_values() == [Fraction(-1)]


def test_phi_sgn_vs_sgn(A1, A1r1):
    sgn_char = next(e for e in A1.group.epsilon_characters() if not e.is_trivial())
    # specialized mode: the two maps agree (both land in the -k algebra)
    a = A1r1.N(0) * A1r1.x(0) + A1r1.one()
    phi_img, sgn_img = A1r1.phi_epsilon(sgn_char, a), A1r1.sgn_involution(a)
    assert phi_img.algebra.compatible(sgn_img.algebra)
    assert phi_img == sgn_img
    # generic mode: phi fixes r while sgn negates it; on N_w x parts they agree
    assert A1.phi_epsilon(sgn_char, A1.r()).terms == A1.r().terms
    assert A1.sgn_involution(A1.r()).terms == A1.r().scale(Fraction(-1)).terms
    b = A1.N(0) * A1.x(0)
    assert A1.phi_epsilon(sgn_char, b).terms == A1.sgn_involution(b).terms


def test_phi_epsilon_identity_and_b2():
    B2 = build_preset("B2", k=["-2", "3"])
    triv = next(e for e in B2.group.epsilon_characters() if e.is_trivial())
    a = B2.x(0) * B2.N(1)
    assert B2.phi_epsilon(triv, a) == a
    eps_short = next(e for e in B2.group.epsilon_characters()
                     if e.signs == (-1, 1))
    moved = B2.phi_epsilon(eps_short, a)
    # short-root parameter negated, long-root parameter unchanged
    assert moved.algebra.k.simple_values() == [Fraction(2), Fraction(3)]


def test_positivization_b2():
    # real parameters always admit a sign twist into nonnegative ones
    B2 = build_preset("B2", k=["-2", "3"])
    chars = B2.group.epsilon_characters()
    eps = next(e for e in chars
               if all(v >= 0 for v in B2.k.twisted(e).simple_values()))
    assert B2.k.twisted(eps).simple_values() == [Fraction(2), Fraction(3)]


def test_phi_epsilon_rejects_non_characters(A1):
    from gradedhecke.weylgroups import EpsilonCharacter

    B2 = build_preset("B2")
    bad = EpsilonCharacter((1,))
    with pytest.raises(ValueError):
        B2.phi_epsilon(bad, B2.one())
    del A1


# --- specialization and the graded limit ----------------------------------------------

def test_specialize_r_fixtures(A1):
    assert A1.specialize_r(A1.r()) == A1.specialize_r(A1.one())
    rng = random.Random(13)
    for _ in range(25):
        a, b = random_element(A1, rng), random_element(A1, rng)
        sab = A1.specialize_r(a * b)
        assert sab == sab.algebra.multiply(A1.specialize_r(a), A1.specialize_r(b))


def test_specialize_nonunit_value_scales_parameters(A1):
    image = A1.specialize_r(A1.one(), r_value=Fraction(5))
    assert image.algebra.k.simple_values() == [Fraction(5)]


def test_leading_term_fixture(A1r1):
    prod = A1r1.x(0) * A1r1.N(0)          # N_s(-x) + 2k
    lt = A1r1.leading_term(prod)
    target = lt.algebra
    assert target.mode == "k0"
    assert lt == target.multiply(target.N(0), target.x(0).scale(Fraction(-1)))
    # degree-zero elements map identically
    low = A1r1.N(0).scale(Fraction(7))
    assert A1r1.leading_term(low).terms == low.terms


def test_leading_term_multiplicative(A1r1):
    rng = random.Random(17)
    target = A1r1.crossed_product()
    hits = 0
    for _ in range(60):
        a, b = random_element(A1r1, rng), random_element(A1r1, rng)
        if a.is_zero() or b.is_zero():
            continue
        ab = a * b
        if A1r1.filtration_degree(ab) != \
                A1r1.filtration_degree(a) + A1r1.filtration_degree(b):
            continue
        hits += 1
        assert A1r1.leading_term(ab) == target.multiply(
            A1r1.leading_term(a), A1r1.leading_term(b))
    assert hits > 10


# --- associativity across the preset list ------------------------------------------------

@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "A2flip",
                                  "A2flip-tw"])
def test_associativity_presets(name):
    H = build_preset(name)
    rng = random.Random(23)
    for _ in range(30):
        a = random_homogeneous_element(H, rng)
        b = random_homogeneous_element(H, rng)
        c = random_homogeneous_element(H, rng)
        assert (a * b) * c == a * (b * c)


def test_group_law_twisted():
    H = build_preset("A2flip-tw")
    nat = H.cocycle
    for u in H.group.elements:
        for v in H.group.elements:
            lhs = H.N(u) * H.N(v)
            rhs = H.N(H.group.multiply(u, v)).scale(nat.value(u, v))
            assert lhs == rhs


def test_gamma_conjugation_rule():
    H = build_preset("A2flip")
    g = H.group.gamma_element(1)
    for j in range(2):
        xi = Polynomial.variable(H.nvars, j)
        lhs = H.N(g) * H.poly(xi) * H.N(H.group.inverse(g))
        assert lhs == H.poly(H.group.act_polynomial(g, xi))


# --- tensor decomposition -----------------------------------------------------------------

def test_tensor_fixture():
    H = build_preset("A1xA1")
    factors = H.component_algebras()
    nv = H.nvars
    x1x2 = Polynomial(nv, {(1, 1, 0): Fraction(1)})
    a = H.from_terms({H.group.simple(0): x1x2})  # N_(s,e) x1 x2
    te = H.tensor_decompose(a, factors)
    [(key, polys, central)] = te.summands
    f1, f2 = factors
    assert f1.group.elements[key[0]].word == (0,)
    assert f2.group.elements[key[1]].word == ()
    assert polys[0] == Polynomial.variable(f1.nvars, 0)
    assert polys[1] == Polynomial.variable(f2.nvars, 0)
    assert central == Polynomial.constant(1, Fraction(1))
    assert H.tensor_compose(te) == a


def test_tensor_unit_and_products():
    H = build_preset("A1xA1")
    factors = H.component_algebras()
    unit = H.tensor_decompose(H.one(), factors)
    assert H.tensor_compose(unit.multiply(unit)) == H.one()
    rng = random.Random(31)
    for _ in range(15):
        a, b = random_element(H, rng), random_element(H, rng)
        ta = H.tensor_decompose(a, factors)
        tb = H.tensor_decompose(b, factors)
        assert H.tensor_compose(ta) == a
        assert H.tensor_compose(ta.multiply(tb)) == a * b


def test_tensor_requires_trivial_gamma():
    H = build_preset("A1xA1swap")
    with pytest.raises(ValueError):
        H.component_algebras()


def test_mode_guards():
    H = build_preset("A1", mode="r1")
    with pytest.raises(ValueError):
        H.r()
    with pytest.raises(ValueError):
        H.grading(H.one())
    with pytest.raises(ValueError):
        HeckeAlgebra(H.group, H.k, mode="k0")  # k not zero


# --- the memoized exchange step against the unmemoized walk ------------------------------

def _move_poly_oracle(H, p, v):
    """p * N_v straightened without a memo: act on and divide every state
    polynomial along the reduced word, then move through the Gamma part."""
    group = H.group
    state = {group.identity.index: p}
    for i in v.word:
        s = group.simple(i)
        new = {}
        for ui, q in state.items():
            moved = group.act_polynomial(s, q)
            corr = H._correction(i, q, moved)
            for ti, piece in ((group.multiply(group.elements[ui], s).index, moved),
                              (ui, corr)):
                if piece:
                    new[ti] = new[ti] + piece if ti in new else piece
        state = {ui: q for ui, q in new.items() if q}
    if v.gamma:
        g = group.gamma_element(v.gamma)
        ginv = group.inverse(g)
        state = {group.multiply(group.elements[ui], g).index:
                 group.act_polynomial(ginv, q) for ui, q in state.items()}
    return {ui: q for ui, q in state.items() if q}


def _random_poly(H, rng, coefficient):
    r_max = 0 if H.mode == "r1" else 1
    terms = {}
    for _ in range(rng.randint(1, 5)):
        expo = tuple(rng.randint(0, 2) for _ in range(H.rs.dim)) + (rng.randint(0, r_max),)
        terms[expo] = coefficient(rng)
    return Polynomial(H.nvars, terms)


def _fraction(rng):
    return Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))


def _divided(H, moved):
    """{u: q_u} from the (den, {u: numerators}) that `_move_poly` returns."""
    den, state = moved
    return {ui: Polynomial(H.nvars, {e: divide_scalar(n, den) for e, n in t.items()})
            for ui, t in state.items()}


def _check_move_poly(H, rng, coefficient, polys_per_element=2):
    for v in H.group.elements:
        for _ in range(polys_per_element):
            p = _random_poly(H, rng, coefficient)
            assert _divided(H, H._move_poly(p, v)) == _move_poly_oracle(H, p, v)


def _in_mode(name, mode):
    H = build_preset(name, mode="r1" if mode == "r1" else "generic")
    return H.crossed_product() if mode == "k0" else H


@pytest.mark.parametrize("mode", ["generic", "r1", "k0"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_move_poly_matches_unmemoized_walk(name, mode):
    H = _in_mode(name, mode)
    _check_move_poly(H, random.Random(f"move-{name}-{mode}"), _fraction)
    assert H._steps  # the walk above went through the memo
    if len(H.group.gamma_elements) > 1:
        assert any(j >= H.rs.rank for _, j in H._steps)


@pytest.mark.parametrize("mode", ["generic", "r1", "k0"])
def test_move_poly_matches_unmemoized_walk_cyclotomic(mode):
    H = algebra_from_config({"types": [["B", 2]], "k": ["z", "1"],
                             "cyclotomic_order": 3, "mode": "r1" if mode == "r1" else "generic"})
    if mode == "k0":
        H = H.crossed_product()

    def cyc(rng):
        return Cyc(3, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                       Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))])

    _check_move_poly(H, random.Random(f"move-cyc-{mode}"), cyc)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_correction_is_the_product_with_r(name):
    from gradedhecke.polynomials import divide_by_linear

    H = build_preset(name)
    r = Polynomial.variable(H.nvars, H.nvars - 1)
    rng = random.Random(f"correction-{name}")
    for i in range(H.rs.rank):
        s = H.group.simple(i)
        for _ in range(4):
            p = _random_poly(H, rng, _fraction)
            moved = H.group.act_polynomial(s, p)
            delta = divide_by_linear(p - moved, H.rs.root_polynomial(H.rs._simple(i)))
            assert H._correction(i, p, moved) == (delta * r).scale(H.k(H.rs._simple(i)))


@pytest.mark.parametrize("name", ["A2flip-tw", "A1xA1swap"])
def test_moved_terms_keep_the_gamma_part(name):
    # so one cocycle value c(u, v) serves every term N_t of p * N_v
    H = build_preset(name)
    rng = random.Random(f"gamma-part-{name}")
    for v in H.group.elements:
        _, moved = H._move_poly(_random_poly(H, rng, _fraction), v)
        for ti in moved:
            assert H.group.elements[ti].gamma == v.gamma


def test_step_memo_starts_cold_on_derived_algebras():
    H = build_preset("B2")
    H.x(0) * H.x(1) * H.N((0, 1))
    assert H._steps
    derived = [H.with_k(H.k.scaled(Fraction(3))), H.crossed_product()]
    H1 = build_preset("B2", mode="r1")
    b = H1.x(0) * H1.N((0, 1, 0))
    assert H1._steps
    derived.append(H1.sgn_involution(b).algebra)
    for D in derived:
        assert D is not H and D is not H1
        assert D._steps == {}
        # a shared memo would have served the parent's corrections here
        _check_move_poly(D, random.Random(7), _fraction, polys_per_element=1)


def test_step_memo_never_serves_a_dropped_algebra():
    # Algebras with different k are built and dropped in turn, so CPython
    # hands later ones the ids of earlier ones; a memo keyed by id() would
    # then serve the corrections of a dropped k.
    group = build_preset("G2").group
    rng = random.Random(11)
    ks = [ParameterFunction.from_simple_values(group, [Fraction(t), Fraction(1, t)])
          for t in range(1, 9)]
    cases = [(_random_poly(build_preset("G2"), rng, _fraction), rng.choice(group.elements))
             for _ in range(4)]
    for k in ks:
        H = HeckeAlgebra(group, k)
        for p, v in cases:
            assert (H.poly(p) * H.N(v)).terms == _move_poly_oracle(H, p, v)
        del H


# --- straightening on numerators against the Fraction path ---------------------------------

def _step_oracle(H, e, j):
    """Term dicts (moved, corr) of x^e * N_j with `Fraction` coefficients."""
    group = H.group
    mono = Polynomial(H.nvars, {e: Fraction(1)})
    if j < H.rs.rank:
        moved = group.act_polynomial(group.simple(j), mono)
        return moved.terms, H._correction(j, mono, moved).terms
    ginv = group.inverse(group.gamma_element(j - H.rs.rank))
    return group.act_polynomial(ginv, mono).terms, {}


def _move_poly_fraction_path(H, p, v, steps):
    """p * N_v on `Fraction` coefficients, with the step memo `steps`."""
    if v.is_identity():
        return {v.index: p} if p else {}
    times = H.group._times
    letters = v.word + ((H.rs.rank + v.gamma,) if v.gamma else ())
    state = {H.group.identity.index: p.terms}
    for j in letters:
        new = {}
        for ui, terms in state.items():
            ti = times[ui][j]
            for e, c in terms.items():
                if (e, j) not in steps:
                    steps[e, j] = _step_oracle(H, e, j)
                moved, corr = steps[e, j]
                _accumulate(new.setdefault(ti, {}), ((f, c * m) for f, m in moved.items()))
                if corr:
                    _accumulate(new.setdefault(ui, {}), ((f, c * m) for f, m in corr.items()))
        state = new
    return {ui: _wrap(H.nvars, t) for ui, t in state.items() if t}


def _multiply_oracle(H, a, b):
    """a * b with every intermediate coefficient a `Fraction` (or `Cyc`):
    each piece (m * q).scale(twist) is a polynomial, summed per group element."""
    group = H.group
    steps = {}
    acc = {}
    for ai, p in a.terms.items():
        u = group.elements[ai]
        for bi, q in b.terms.items():
            v = group.elements[bi]
            twist = H.cocycle.value(u, v)
            for ti, m in _move_poly_fraction_path(H, p, v, steps).items():
                w = group.multiply(u, group.elements[ti])
                piece = (m * q).scale(twist) if twist != 1 else m * q
                acc[w.index] = acc[w.index] + piece if w.index in acc else piece
    return HeckeElement(H, {i: p for i, p in acc.items() if p})


def _random_element(H, rng, coefficient):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(H.group.elements).index
        p = _random_poly(H, rng, coefficient)
        terms[w] = terms[w] + p if w in terms else p
    return H.from_terms(terms)


def _check_multiply(H, rng, coefficient, products=12):
    for _ in range(products):
        a, b = _random_element(H, rng, coefficient), _random_element(H, rng, coefficient)
        got, want = H.multiply(a, b), _multiply_oracle(H, a, b)
        assert got.terms == want.terms
        assert got.to_string() == want.to_string()


def _with_cocycle(H, rows):
    cocycle = Cocycle(H.group, [[Fraction(v) for v in row] for row in rows], normalize=False)
    return HeckeAlgebra(H.group, H.k, cocycle, mode=H.mode)


def _cyc3(rng):
    return Cyc(3, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))])


@pytest.mark.parametrize("mode", ["generic", "r1", "k0"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_multiply_matches_fraction_path(name, mode):
    H = _in_mode(name, mode)
    _check_multiply(H, random.Random(f"multiply-{name}-{mode}"), _fraction)


@pytest.mark.parametrize("mode", ["generic", "r1", "k0"])
def test_multiply_matches_fraction_path_cyclotomic(mode):
    H = algebra_from_config({"types": [["B", 2]], "k": ["z", "1"],
                             "cyclotomic_order": 3, "mode": "r1" if mode == "r1" else "generic"})
    if mode == "k0":
        H = H.crossed_product()
    _check_multiply(H, random.Random(f"multiply-cyc-{mode}"), _cyc3)


@pytest.mark.parametrize("mode", ["generic", "r1"])
def test_multiply_matches_fraction_path_fractional_steps(mode):
    H = build_preset("B2", k=["1/3", "5/2"], mode=mode)
    _check_multiply(H, random.Random(f"multiply-third-{mode}"), _fraction)
    _check_move_poly(H, random.Random(f"move-third-{mode}"), _fraction)
    # the steps above were stored over a denominator, not on integers alone
    assert any(den != 1 for den, _, _ in H._steps.values())


@pytest.mark.parametrize("twist", ["2", "1/2", "0"])
def test_multiply_matches_fraction_path_cocycle_values(twist):
    H = _with_cocycle(build_preset("A2flip-tw"), [[1, 1], [1, twist]])
    _check_multiply(H, random.Random(f"multiply-cocycle-{twist}"), _fraction)
    g = H.N(H.group.gamma_element(1))
    assert (g * g).to_string() == ("0" if twist == "0" else f"N[e]*({twist})")


@pytest.mark.parametrize("name", ["A1", "B2", "A2flip-tw"])
def test_multiply_matches_fraction_path_int_coefficients(name):
    H = build_preset(name)
    _check_multiply(H, random.Random(f"multiply-int-{name}"), lambda rng: rng.randint(-4, 4) or 1)
    e = H.from_terms({H.group.identity: Polynomial(H.nvars, {(0,) * H.nvars: 3})})
    assert (e * e).terms == _multiply_oracle(H, e, e).terms
    assert all(type(c) is Fraction for q in (e * e).terms.values() for c in q.terms.values())
