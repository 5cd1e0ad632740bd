import doctest
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gradedhecke import scalars
from gradedhecke.scalars import Cyc, cyclotomic_poly, divide_scalar, poly_divmod, \
    poly_ext_gcd, poly_mul, split_scalar


def test_cyclotomic_polys():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_3 = x^2 + x + 1
    assert cyclotomic_poly(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_poly(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic_poly(3) == [Fraction(1), Fraction(1), Fraction(1)]
    assert cyclotomic_poly(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert len(cyclotomic_poly(8)) == 5  # degree phi(8) = 4


def test_roots_of_unity():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = Cyc.root_of_unity(n)
        assert z ** n == 1
        assert all(z ** j != 1 for j in range(1, n))


def test_field_arithmetic():
    z = Cyc.root_of_unity(3)
    assert z * z + z + 1 == 0
    v = 2 * z + Fraction(1, 2)
    assert v - v == 0
    assert v * v.inverse() == 1
    assert (v / v) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc(3, [0]).inverse()


def test_mixed_orders_rejected():
    a, b = Cyc.root_of_unity(3), Cyc.root_of_unity(4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a == b):
        with pytest.raises(ValueError):
            op()


def test_rational_detection():
    z = Cyc.root_of_unity(4)
    assert (z * z).is_rational()
    assert (z * z).rational_value() == -1
    assert not z.is_rational()


def test_poly_helpers():
    # (x^2 - 1) = (x - 1)(x + 1)
    q, r = poly_divmod([Fraction(-1), Fraction(0), Fraction(1)],
                       [Fraction(-1), Fraction(1)])
    assert q == [Fraction(1), Fraction(1)] and not r
    g, u, v = poly_ext_gcd([Fraction(-1), Fraction(1)], [Fraction(1), Fraction(1)])
    assert g == [Fraction(1)]
    lhs = poly_mul(u, [Fraction(-1), Fraction(1)])
    rhs = poly_mul(v, [Fraction(1), Fraction(1)])
    total = [a + b for a, b in zip(lhs + [Fraction(0)] * 3, rhs + [Fraction(0)] * 3)]
    assert total[0] == 1 and all(c == 0 for c in total[1:])


def test_module_doctests_pass():
    result = doctest.testmod(scalars)
    assert result.attempted > 0
    assert result.failed == 0


# --- the constructor is the canonical oracle for the unreduced ring operations ------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                       max_denominator=6))


@st.composite
def cyc_pairs(draw):
    """Two Cyc of one order, each from a raw coefficient list up to twice the degree."""
    order = draw(st.sampled_from(ORDERS))
    deg = len(cyclotomic_poly(order)) - 1
    raw = st.lists(st.one_of(st.just(0), rationals), max_size=2 * deg)
    return Cyc(order, draw(raw)), Cyc(order, draw(raw))


def assert_canonical(result, raw):
    """result equals Cyc(order, raw) tuple for tuple: deg integer numerators
    over a positive denominator in lowest terms, read back as deg Fractions."""
    assert type(result) is Cyc
    expected = Cyc(result.order, raw)
    assert (result.num, result.den) == (expected.num, expected.den)
    assert result.coeffs == expected.coeffs
    assert len(result.num) == len(cyclotomic_poly(result.order)) - 1
    assert all(type(n) is int for n in result.num) and type(result.den) is int
    assert result.den > 0 and gcd(result.den, *result.num) == 1
    assert all(type(c) is Fraction for c in result.coeffs)


def convolution(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(cyc_pairs())
def test_cyc_by_cyc_operations_match_constructor(pair):
    a, b = pair
    assert_canonical(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)])
    assert_canonical(a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)])
    assert_canonical(-a, [-x for x in a.coeffs])
    assert_canonical(a * b, convolution(a.coeffs, b.coeffs))
    assert_canonical(a * a, convolution(a.coeffs, a.coeffs))
    assert (a == b) == (a.coeffs == b.coeffs)
    assert bool(a - b) == (a.coeffs != b.coeffs)


@settings(max_examples=200, deadline=None)
@given(cyc_pairs(), rationals)
def test_cyc_by_rational_operations_match_constructor(pair, r):
    a, _ = pair
    first, rest = a.coeffs[0], list(a.coeffs[1:])
    for result in (a + r, r + a):
        assert_canonical(result, [first + r] + rest)
    assert_canonical(a - r, [first - r] + rest)
    assert_canonical(r - a, [r - first] + [-x for x in rest])
    for result in (a * r, r * a):
        assert_canonical(result, [x * r for x in a.coeffs])
    assert (a == r) == (r == a) == (a.coeffs == Cyc(a.order, [r]).coeffs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS), rationals)
def test_rational_cyc_equals_hashes_and_tests_as_its_value(order, r):
    c = Cyc(order, [r])
    assert c == r and r == c and not (c != r)
    assert hash(c) == hash(r) == hash(Fraction(r))
    assert bool(c) == bool(r)
    assert c.is_zero() == (r == 0)
    if order > 2:
        w = c + Cyc.root_of_unity(order)
        assert w != r and r != w and bool(w)


# --- integer numerators over one denominator -------------------------------------------

def test_constructor_puts_numerators_over_one_denominator_in_lowest_terms():
    c = Cyc(4, [Fraction(1, 6), Fraction(-3, 4)])
    assert (c.num, c.den) == ((2, -9), 12)
    assert c.coeffs == (Fraction(1, 6), Fraction(-3, 4))
    assert (Cyc(4, [Fraction(2, 4), Fraction(3, 6)]).num,
            Cyc(4, [Fraction(2, 4), Fraction(3, 6)]).den) == ((1, 1), 2)
    one = Cyc(6, [Fraction(1, 2), 0, 0, Fraction(-1, 2)])  # (1 - z^3)/2 with z^3 = -1
    assert (one.num, one.den) == ((1, 0), 1)
    assert (Cyc(3, []).num, Cyc(3, []).den) == ((0, 0), 1)


@pytest.mark.parametrize("c", [Cyc(3, [Fraction(1, 2), Fraction(-5, 6)]),
                               Cyc(8, [0, Fraction(7, 4), 0, Fraction(1, 10)]),
                               Cyc(5, [Fraction(-3, 2)]), Cyc(4, [2, -1])])
def test_split_and_divide_scalar_round_trip(c):
    n, d = split_scalar(c)
    assert type(n) is Cyc and n.den == 1 and n.order == c.order and d == c.den
    assert n == c * c.den
    back = divide_scalar(n, d)
    assert back == c and (back.num, back.den) == (c.num, c.den)
    assert divide_scalar(n * 3, d * 3) == c


def test_rational_half_equals_and_hashes_like_its_fraction():
    c = Cyc(3, [Fraction(1, 2)])
    assert (c.num, c.den) == ((1, 0), 2)
    assert c == Fraction(1, 2) and Fraction(1, 2) == c
    assert c != 1 and c != Fraction(1, 3) and c != 0
    assert hash(c) == hash(Fraction(1, 2))
    assert {c: 1}[Fraction(1, 2)] == 1
    assert c.rational_value() == Fraction(1, 2)


def test_rational_operations_with_a_denominator_match_the_constructor():
    a = Cyc(3, [Fraction(1, 6), Fraction(-2, 9)])
    for r in (Fraction(3, 4), Fraction(-2, 3), Fraction(9, 2), 6, 0):
        first, rest = a.coeffs[0], list(a.coeffs[1:])
        for result in (a + r, r + a):
            assert_canonical(result, [first + r] + rest)
        for result in (a * r, r * a):
            assert_canonical(result, [x * r for x in a.coeffs])
        assert_canonical(a - r, [first - r] + rest)
    assert_canonical(a * Fraction(18, 1), [3, -4])
    assert_canonical(a * a, convolution(a.coeffs, a.coeffs))
    assert_canonical(a + Cyc(3, [Fraction(-1, 6), Fraction(2, 9)]), [])


def test_hash_of_a_non_rational_cyc_is_that_of_its_fraction_coefficients():
    for c in (Cyc(4, [1, 2]), Cyc(4, [Fraction(1, 2), 3]), Cyc(5, [0, 0, Fraction(-7, 3)])):
        assert hash(c) == hash((c.order, c.coeffs))
