import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedhecke.polynomials import Polynomial, _accumulate, divide_by_linear
from gradedhecke.presets import PRESETS, algebra_from_config, build_preset
from gradedhecke.scalars import Cyc

NV = 3  # x1, x2, r

coeffs = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, min_size=0, max_size=4).map(
    lambda t: Polynomial(NV, t))


def x(i, n=NV):
    return Polynomial.variable(n, i)


def test_add_identity():
    p = x(0)
    assert p + Polynomial.zero(NV) == p


def test_difference_of_squares():
    # (x + r)(x - r) = x^2 - r^2
    p = (x(0) + x(2)) * (x(0) - x(2))
    assert p == x(0) * x(0) - x(2) * x(2)


def test_degree_doubles_total_exponent():
    assert (x(0) * x(2)).degree() == 4
    assert (x(0) + x(2)).is_homogeneous()
    assert Polynomial.zero(NV).degree() == -1


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_laws(p, q, s):
    assert (p + q) * s == p * s + q * s
    assert (p * q) * s == p * (q * s)
    assert p * q == q * p


def test_division_exact_and_failing():
    num = x(0) ** 3 - x(1) ** 3
    alpha = x(0) - x(1)
    q = divide_by_linear(num, alpha)
    assert q * alpha == num
    with pytest.raises(ValueError):
        divide_by_linear(x(0) * x(0) + Polynomial.constant(NV, Fraction(1)), x(0))


def test_power_is_repeated_product():
    p = x(0) - Polynomial.constant(NV, Fraction(1, 2)) * x(2) + x(1)
    assert p ** 0 == Polynomial.constant(NV, Fraction(1))
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


@settings(max_examples=40, deadline=None)
@given(polys, st.integers(0, 9))
def test_power_by_squaring_matches_repeated_product(p, m):
    product = Polynomial.constant(NV, Fraction(1))
    for _ in range(m):
        product = product * p
    assert p ** m == product


def test_subs_value_merges_terms():
    p = x(0) * x(2) + Polynomial.constant(NV, Fraction(2)) * x(0) + x(2) * x(2)
    assert p.subs_value(2, Fraction(-2)) == Polynomial.constant(NV, Fraction(4))
    assert p.subs_value(0, Fraction(0)) == x(2) * x(2)


def test_division_stays_exact_on_int_coefficients():
    q = divide_by_linear(Polynomial(2, {(1, 0): 1}), Polynomial(2, {(1, 0): 2}))
    (c,) = q.terms.values()
    assert c == Fraction(1, 2) and type(c) is Fraction


# --- group action and divided differences over A2 ---------------------------

A2 = build_preset("A2")


def test_reflection_on_own_root():
    s1 = A2.group.simple(0)
    alpha = A2.rs.root_polynomial((1, 0))
    assert A2.group.act_polynomial(s1, alpha) == -alpha


def test_reflection_on_adjacent_root():
    # <beta, alpha^vee> = -1, so s_alpha(beta) = beta + alpha
    assert A2.rs.pairing((0, 1), 0) == -1
    s1 = A2.group.simple(0)
    beta = A2.rs.root_polynomial((0, 1))
    alpha = A2.rs.root_polynomial((1, 0))
    assert A2.group.act_polynomial(s1, beta) == beta + alpha


def test_identity_acts_trivially():
    p = x(0, A2.nvars) * x(1, A2.nvars) + Polynomial.variable(A2.nvars, 2)
    assert A2.group.act_polynomial(A2.group.identity, p) == p


def test_demazure_values():
    alpha = (1, 0)
    # (alpha - (-alpha)) / alpha = 2
    assert A2.demazure(alpha, A2.rs.root_polynomial(alpha)) == \
        Polynomial.constant(A2.nvars, Fraction(2))
    # constants are invariant
    assert A2.demazure(alpha, Polynomial.constant(A2.nvars, Fraction(7))).is_zero()
    # (beta - (beta + alpha)) / alpha = -1
    beta = A2.rs.root_polynomial((0, 1))
    assert A2.demazure(alpha, beta) == Polynomial.constant(A2.nvars, Fraction(-1))


a2_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    coeffs, min_size=0, max_size=3).map(lambda t: Polynomial(A2.nvars, t))


@settings(max_examples=40, deadline=None)
@given(a2_polys, a2_polys)
def test_twisted_leibniz(p, q):
    s = A2.group.simple(0)
    lhs = A2.demazure((1, 0), p * q)
    rhs = A2.demazure((1, 0), p) * q + \
        A2.group.act_polynomial(s, p) * A2.demazure((1, 0), q)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(a2_polys)
def test_demazure_kills_exactly_invariants(p):
    s = A2.group.simple(0)
    sym = p + A2.group.act_polynomial(s, p)
    assert A2.demazure((1, 0), sym).is_zero()
    if A2.group.act_polynomial(s, p) != p:
        assert not A2.demazure((1, 0), p).is_zero()


@settings(max_examples=30, deadline=None)
@given(a2_polys, a2_polys)
def test_action_is_ring_automorphism(p, q):
    for w in (A2.group.simple(0), A2.group.word_element((0, 1))):
        assert A2.group.act_polynomial(w, p * q) == \
            A2.group.act_polynomial(w, p) * A2.group.act_polynomial(w, q)


def test_canonical_string():
    p = 2 * x(0) - x(2) + Polynomial.constant(NV, Fraction(1, 2))
    assert p.to_string(["x1", "x2", "r"]) == "2*x1 - r + 1/2"


# --- substitution against the pow-based oracle -----------------------------------

def _substitute_oracle(p, images):
    """Reference substitution through the public ring operations: one
    constant per monomial, times images[i] ** power, summed with `+`."""
    out = Polynomial.zero(p.nvars)
    for e, c in p.terms.items():
        mono = Polynomial.constant(p.nvars, c)
        for i, power in enumerate(e):
            if power:
                mono = mono * images[i] ** power
        out = out + mono
    return out


def _action_images(group, u):
    """The images of x_1..x_d, r under u, built as act_polynomial builds them."""
    nv, dim = group.rs.nvars, group.rs.dim
    m = u.key
    images = [Polynomial.linear(nv, [Fraction(m[i][j]) for i in range(dim)] + [Fraction(0)])
              for j in range(dim)]
    return images + [Polynomial.variable(nv, nv - 1)]


def _random_polynomial(rng, nv, coefficient):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        expo = tuple(rng.randint(0, 2) for _ in range(nv - 1)) + (rng.randint(0, 1),)
        terms[expo] = coefficient(rng)
    return Polynomial(nv, terms)


def _check_against_oracle(algebra, rng, coefficient):
    group = algebra.group
    for u in group.elements:
        images = _action_images(group, u)
        for _ in range(2):
            p = _random_polynomial(rng, algebra.nvars, coefficient)
            assert group.act_polynomial(u, p) == _substitute_oracle(p, images)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_action_matches_pow_oracle_with_fraction_coefficients(name):
    rng = random.Random(f"oracle-{name}")
    _check_against_oracle(build_preset(name), rng,
                          lambda r: Fraction(r.randint(-5, 5) or 1, r.randint(1, 4)))


@pytest.mark.parametrize("name", ["G2", "A2flip-tw"])
def test_cached_action_matches_fresh_images(name):
    """Every action after an element's first reuses its images, unchanged."""
    algebra = build_preset(name)
    group = algebra.group
    rng = random.Random(f"cache-{name}")
    for u in group.elements:
        images = _action_images(group, u)
        for _ in range(3):
            p = _random_polynomial(rng, algebra.nvars,
                                   lambda r: Fraction(r.randint(-5, 5) or 1, r.randint(1, 4)))
            assert group.act_polynomial(u, p) == p.substitute_linear(images)
    assert sorted(group._images) == list(range(len(group)))


def test_action_matches_pow_oracle_with_cyclotomic_coefficients():
    b2 = algebra_from_config({"types": [["B", 2]], "k": ["z", "1"],
                              "cyclotomic_order": 3})
    rng = random.Random(5)
    _check_against_oracle(
        b2, rng, lambda r: Cyc(3, [Fraction(r.randint(-3, 3), r.randint(1, 3)),
                                   Fraction(r.randint(-3, 3) or 1, r.randint(1, 3))]))


@pytest.mark.parametrize("coeff", [0.5, 0.0, 2.0, 1j])
def test_inexact_coefficients_rejected(coeff):
    with pytest.raises(TypeError, match="inexact"):
        Polynomial(2, {(1, 0): coeff})
    if coeff:
        with pytest.raises(TypeError, match="inexact"):
            Polynomial.variable(2, 0) * coeff


def test_inexact_scalars_rejected_before_the_zero_shortcut():
    p = Polynomial.variable(2, 0)
    with pytest.raises(TypeError, match="inexact"):
        p * 0.0
    with pytest.raises(TypeError, match="inexact"):
        0.0 * p
    with pytest.raises(TypeError, match="inexact"):
        Polynomial.zero(2) * 0.5
    assert p * 0 == Polynomial.zero(2) and (p * Fraction(1, 2)).terms == {(1, 0): Fraction(1, 2)}


# --- _accumulate against the fold that seeds every sum with 0 ------------------------------

def _accumulate_from_zero(out, pairs):
    for e, c in pairs:
        s = out.get(e, 0) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


_z3 = Cyc.root_of_unity(3)
small_scalars = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2)]),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(lambda ab: ab[0] + ab[1] * _z3))
keys = st.sampled_from([(0,), (1,), (2,)])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(keys, small_scalars.filter(bool)), st.lists(st.tuples(keys, small_scalars)))
def test_accumulate_matches_fold_from_zero(seed, pairs):
    expected = _accumulate_from_zero(dict(seed), pairs)
    got = _accumulate(dict(seed), pairs)
    assert got == expected
    assert all(got.values())


@pytest.mark.parametrize("pairs, expected", [
    ([((0,), 0)], {}),
    ([((0,), Fraction(0)), ((0,), 1)], {(0,): 1}),
    ([((0,), _z3), ((0,), -_z3)], {}),
    ([((0,), Fraction(1, 2)), ((1,), _z3), ((0,), Fraction(-1, 2)), ((0,), 3)], {(0,): 3, (1,): _z3}),
])
def test_accumulate_cancels_and_skips_zero(pairs, expected):
    assert _accumulate({}, pairs) == expected
