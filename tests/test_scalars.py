import doctest
from fractions import Fraction

import pytest

from gradedhecke import scalars
from gradedhecke.scalars import Cyc, cyclotomic_poly, poly_divmod, poly_ext_gcd, poly_mul


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
    with pytest.raises(ValueError):
        Cyc.root_of_unity(3) + Cyc.root_of_unity(4)


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
