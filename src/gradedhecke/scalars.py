"""
Exact scalars: rational numbers and elements of cyclotomic fields Q(zeta_n).

Rationals are plain `fractions.Fraction`.  A `Cyc` is a rational combination
of powers of a primitive n-th root of unity, stored in canonical form: a
tuple `num` of deg = phi(n) integers on the power basis 1, z, ..., z^(deg-1)
over one positive denominator `den`, in lowest terms (no prime divides den
and every numerator), so equality is a tuple comparison.  `coeffs` reads the
same element back as deg `Fraction`s.  The order n is fixed per instance and
mixing orders raises.

Only the constructor `Cyc(n, coeffs)` and `inverse` reduce modulo the n-th
cyclotomic polynomial Phi_n, on `Fraction`s; powers and division are built
from them.  Every other operation runs on the integer numerators: sums,
differences, negations and rational multiples of reduced tuples are reduced,
and a product of two `Cyc`s folds its powers z^deg .. z^(2 deg - 2) back
with a table of their canonical forms, integers because Phi_n is monic with
integer coefficients, built once per order.  These results only divide out
the gcd of numerators and denominator, which a denominator of 1, the case
in straightening, skips.  `split_scalar` and `divide_scalar` take the
denominator off and put it back, so straightening runs the same loops on
integer and on cyclotomic numerators.

>>> z = Cyc.root_of_unity(4)
>>> z * z
Cyc(4, [-1])
>>> (z + 1) * (z - 1)
Cyc(4, [-2])
>>> 1 / z == -z
True
>>> w = z / 2 + Fraction(1, 3)
>>> w.num, w.den
((2, 3), 6)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["Fraction", "exact_scalar", "Cyc", "scalar_str", "cyclotomic_poly",
           "split_scalar", "divide_scalar"]


def exact_scalar(x, cyclotomic=False):
    """A caller's scalar, checked exact: an int, a string like '3/4' or a
    Fraction as a Fraction, and a `Cyc` as itself where `cyclotomic` allows
    one.  Anything else raises TypeError: floats, complex numbers and bools,
    which would otherwise pass as binary rationals or as 0 and 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    if cyclotomic and isinstance(x, Cyc):
        return x
    kinds = "an int, a Fraction or a Cyc" if cyclotomic else "an int or a Fraction"
    raise TypeError(f"expected an exact scalar ({kinds}), not {x!r}")


def split_scalar(c) -> tuple:
    """A pair (n, d) with c = n / d and d a positive int: a `Fraction` gives
    its numerator and denominator, a `Cyc` its integral numerators as a `Cyc`
    and its denominator, an `int` itself over 1."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, Cyc) and c.den != 1:
        return _cyc(c.order, c.num, 1), c.den
    return c, 1


def divide_scalar(n, d: int):
    """n / d for a numerator from `split_scalar`: a `Fraction` for an int n,
    for a `Cyc` the same numerators with d folded into the denominator."""
    if isinstance(n, int):
        return Fraction(n) if d == 1 else Fraction(n, d)
    return n if d == 1 else _cyc(n.order, n.num, n.den * d)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, little-endian coefficient lists
# ---------------------------------------------------------------------------

def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    """Exact division with remainder in Q[x]."""
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    poly_trim(r)
    quo = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    lead = q[-1]
    while len(r) >= len(q):
        c = r[-1] / lead
        d = len(r) - len(q)
        quo[d] = c
        for i, b in enumerate(q):
            r[i + d] -= c * b
        poly_trim(r)
    return poly_trim(quo), r


def poly_ext_gcd(p, q):
    """Return (g, u, v) with u*p + v*q = g, g monic."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    ua, va = [Fraction(1)], []
    ub, vb = [], [Fraction(1)]
    while b:
        quo, r = poly_divmod(a, b)
        a, b = b, r
        ua, ub = ub, poly_trim([x - y for x, y in _zip_pad(ua, poly_mul(quo, ub))])
        va, vb = vb, poly_trim([x - y for x, y in _zip_pad(va, poly_mul(quo, vb))])
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
        ua = [c / lead for c in ua]
        va = [c / lead for c in va]
    return a, ua, va


def _zip_pad(p, q):
    n = max(len(p), len(q))
    p = p + [Fraction(0)] * (n - len(p))
    q = q + [Fraction(0)] * (n - len(q))
    return zip(p, q)


_CYCLO_CACHE: dict[int, list[Fraction]] = {}


def cyclotomic_poly(n: int) -> list[Fraction]:
    """Coefficients of the n-th cyclotomic polynomial (little-endian).

    >>> cyclotomic_poly(4)
    [Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)]
    """
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, cyclotomic_poly(d))
    quo, rem = poly_divmod(num, den)
    assert not rem, "cyclotomic polynomial division must be exact"
    _CYCLO_CACHE[n] = quo
    return quo


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyc:
    """An element of Q(zeta_n): integer numerators `num` on the power basis
    over one positive denominator `den`, in lowest terms."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        phi = cyclotomic_poly(order)
        deg = len(phi) - 1
        cs = [exact_scalar(c) for c in coeffs]
        if len(cs) >= len(phi):
            _, cs = poly_divmod(cs, phi)
        cs = cs + [Fraction(0)] * (deg - len(cs))
        # over the lcm of the lowest-terms denominators the tuple is in lowest terms
        den = lcm(*(c.denominator for c in cs))
        _set_order(self, order)
        _set_num(self, tuple([c.numerator * (den // c.denominator) for c in cs]))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple:
        """The canonical coefficients as `Fraction`s on 1, z, ..., z^(deg-1)."""
        return tuple([Fraction(n, self.den) for n in self.num])

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "Cyc":
        power %= order
        return cls(order, [Fraction(0)] * power + [Fraction(1)])

    def _same_order(self, other: "Cyc") -> None:
        if other.order != self.order:
            raise ValueError(
                f"mixed cyclotomic orders {self.order} and {other.order}")

    # -- ring structure ----------------------------------------------------
    # Sums, negations and products of canonical inputs stay reduced modulo
    # Phi_n, so only their denominators may need the gcd that `_cyc` takes;
    # over a denominator of 1 they need none.
    def __add__(self, other):
        num, d = self.num, self.den
        if isinstance(other, Cyc):
            self._same_order(other)
            e = other.den
            if d == e:
                return _cyc(self.order, tuple([a + b for a, b in zip(num, other.num)]), d)
            return _cyc(self.order, tuple([a * e + b * d for a, b in zip(num, other.num)]),
                        d * e)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            return _cyc(self.order, (num[0] * q + other.numerator * d,)
                        + tuple([a * q for a in num[1:]]), d * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyc, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return _cyc(self.order, tuple([a * other for a in self.num]), self.den)
        if isinstance(other, Cyc):
            self._same_order(other)
            return _cyc(self.order, _mul_coeffs(self.order, self.num, other.num),
                        self.den * other.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _cyc(self.order, tuple([a * p for a in self.num]),
                        self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = cyclotomic_poly(self.order)
        g, u, _ = poly_ext_gcd(poly_trim(list(self.coeffs)), phi)
        if len(g) != 1:
            raise ZeroDivisionError("non-invertible cyclotomic representative")
        return Cyc(self.order, [c / g[0] for c in u])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc(self.order, [other])
        elif not isinstance(other, Cyc):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, m: int):
        if m < 0:
            return self.inverse() ** (-m)
        out = Cyc(self.order, [1])
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, Cyc):
            self._same_order(other)
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (self.num[0] * other.denominator == other.numerator * self.den
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        # an int hashes like its Fraction, so this is the hash of (order, coeffs)
        return hash((self.order, self.num if self.den == 1 else self.coeffs))

    def __repr__(self):
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if not nz:
            return f"Cyc({self.order}, [0])"
        top = max(i for i, _ in nz)
        return f"Cyc({self.order}, {[str(c) for c in list(self.coeffs)[:top + 1]]})".replace("'", "")

    def __str__(self):
        return scalar_str(self)


# the slots' own setters, since `Cyc.__setattr__` refuses every assignment
_new = object.__new__
_set_order, _set_num, _set_den = Cyc.order.__set__, Cyc.num.__set__, Cyc.den.__set__


def _cyc(order: int, num: tuple, den: int) -> Cyc:
    """num / den for integer numerators already reduced modulo Phi_n and a
    positive den, put in lowest terms; no other reduction or check."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple([a // g for a in num]), den // g
    out = _new(Cyc)
    _set_order(out, order)
    _set_num(out, num)
    _set_den(out, den)
    return out


_FOLD: dict[int, list] = {}


def _fold_table(order: int) -> list:
    """Per power z^i, deg <= i <= 2*deg - 2, its nonzero canonical (index,
    numerator) pairs; Phi_n is monic with integer coefficients, so every
    such power has denominator 1."""
    if order not in _FOLD:
        deg = len(cyclotomic_poly(order)) - 1
        _FOLD[order] = [[(k, c) for k, c in enumerate(Cyc.root_of_unity(order, i).num) if c]
                        for i in range(deg, 2 * deg - 1)]
    return _FOLD[order]


def _mul_coeffs(order: int, a: tuple, b: tuple) -> tuple:
    """Canonical numerators of a * b for integer numerator tuples: the
    schoolbook product, then z^i for i >= deg folded back by the table of
    canonical powers."""
    deg = len(a)
    out = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    for high, row in zip(out[deg:], _fold_table(order)):
        if high:
            for k, t in row:
                out[k] += high * t
    return tuple(out[:deg])


def scalar_str(value) -> str:
    """Canonical text form: rationals as 'p/q', cyclotomics on powers of z."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Cyc):
        if value.is_rational():
            return str(value.rational_value())
        parts = []
        for i, c in enumerate(value.coeffs):
            if c == 0:
                continue
            mon = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        return "+".join(parts).replace("+-", "-")
    raise TypeError(f"not a scalar: {value!r}")

