"""
Exact multivariate polynomials on t + a formal line.

A `Polynomial` lives in a fixed number of variables: the coordinates
x_1..x_d of the space t (one per ambient dimension of the root datum) and a
final variable r.  Exponent vectors are dense tuples, coefficients exact
scalars, and no zero coefficient is ever stored, so `==` is canonical.

The grading doubles the usual one: every variable, x_i and r alike, sits in
degree 2, so a monomial has degree 2 * (sum of its exponents).

All arithmetic runs on plain term dicts (exponent tuple -> coefficient):
`_product` is the one multiplication and `_accumulate` the one in-place
sum, shared by the ring operations, powers, substitution and division.
Each public operation wraps its result in a single `Polynomial`, and
substitution and division build no other.  The constructor checks every
term (arity, zero, and `TypeError` on a float or complex coefficient); the
ring operations on two polynomials and `scale` by an exact scalar wrap
their term dicts with `_wrap` unchecked, since sums, negations and
products of checked terms need none.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import exact_scalar, scalar_str

__all__ = ["Polynomial", "divide_by_linear"]


class Polynomial:
    """Sparse polynomial with a fixed variable count (x_1..x_d, r last)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError(f"exponent {expo} has wrong arity, want {nvars}")
                if isinstance(coeff, (float, complex)):
                    raise TypeError(f"inexact coefficient {coeff!r}: use int, Fraction or Cyc")
                if not coeff:
                    continue
                clean[tuple(expo)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, index, coeff=Fraction(1)):
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): coeff})

    @classmethod
    def linear(cls, nvars, coeffs):
        """Linear form sum coeffs[i] * var_i from a coefficient list."""
        terms = {}
        for i, c in enumerate(coeffs):
            if c != 0:
                expo = [0] * nvars
                expo[i] = 1
                terms[tuple(expo)] = c
        return cls(nvars, terms)

    # -- ring operations ------------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable bases")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        return Polynomial.constant(self.nvars, exact_scalar(other)
                                   if isinstance(other, (int, str)) else other)

    def __add__(self, other):
        other = self._coerce(other)
        return _wrap(self.nvars, _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return _wrap(self.nvars, _accumulate(
            dict(self.terms), ((e, -c) for e, c in other.terms.items())))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        return _wrap(self.nvars, _product(self.terms, other.terms))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, (float, complex)):
            raise TypeError(f"inexact scalar {c!r}: use int, Fraction or Cyc")
        if c == 0:
            return Polynomial.zero(self.nvars)
        # a nonzero exact scalar times a nonzero exact coefficient is nonzero
        return _wrap(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        terms, base = {(0,) * self.nvars: Fraction(1)}, self.terms
        while m:  # square-and-multiply
            if m & 1:
                terms = _product(terms, base)
            m >>= 1
            if m:
                base = _product(base, base)
        return _wrap(self.nvars, terms)

    # -- structure -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == Polynomial.constant(self.nvars, Fraction(other))
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Graded degree: 2 * total exponent of the largest monomial; zero poly -> -1."""
        if not self.terms:
            return -1
        return 2 * max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into graded pieces, keyed by degree (2 * total exponent)."""
        comps: dict[int, dict] = {}
        for e, c in self.terms.items():
            comps.setdefault(2 * sum(e), {})[e] = c
        return {d: Polynomial(self.nvars, t) for d, t in sorted(comps.items())}

    def uses_variable(self, index: int) -> bool:
        return any(e[index] for e in self.terms)

    # -- substitution -----------------------------------------------------------
    def substitute_linear(self, images: list["Polynomial"]) -> "Polynomial":
        """Ring map sending var_i to images[i]; images share this basis."""
        out = {}
        for e, c in self.terms.items():
            mono = {(0,) * self.nvars: c}
            for image, power in zip(images, e):
                for _ in range(power):
                    mono = _product(mono, image.terms)
            _accumulate(out, mono.items())
        return Polynomial(self.nvars, out)

    def subs_value(self, index: int, value) -> "Polynomial":
        """Substitute an exact scalar for one variable."""
        return Polynomial(self.nvars, _accumulate({}, (
            (e[:index] + (0,) + e[index + 1:], c * value ** e[index]) if e[index]
            else (e, c) for e, c in self.terms.items())))

    def evaluate(self, point) -> object:
        """Evaluate at a full tuple of scalars (one per variable)."""
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for i, power in enumerate(e):
                if power:
                    val = val * (point[i] ** power)
            total = total + val
        return total

    # -- printing ---------------------------------------------------------------
    def to_string(self, names: list[str]) -> str:
        """Canonical text: monomials sorted by (total degree, exponents) descending."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for e in keys:
            c = self.terms[e]
            factors = []
            for i, power in enumerate(e):
                if power == 1:
                    factors.append(names[i])
                elif power > 1:
                    factors.append(f"{names[i]}^{power}")
            cs = scalar_str(c)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    term = body
                elif cs == "-1":
                    term = f"-{body}"
                elif "+" in cs or ("-" in cs[1:]):
                    term = f"({cs})*{body}"
                else:
                    term = f"{cs}*{body}"
            else:
                term = cs if ("+" not in cs) else f"({cs})"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        names = [f"x{i + 1}" for i in range(self.nvars - 1)] + ["r"]
        return f"Polynomial({self.to_string(names)})"


def divide_by_linear(num: Polynomial, alpha: Polynomial) -> Polynomial:
    """Exact quotient num / alpha for a linear form alpha.

    Long division in a pivot variable of alpha, treating the remaining
    variables as coefficients.  Raises ValueError when the division is not
    exact; for a divided difference built from valid root data that can only
    mean a broken action matrix.
    """
    nvars = num.nvars
    lin = alpha.terms
    if any(sum(e) != 1 for e in lin):
        raise ValueError("divisor must be a homogeneous linear form")
    if not lin:
        raise ZeroDivisionError("division by zero form")
    pivot_expo = min(lin)
    pivot = pivot_expo.index(1)
    pivot_coeff = lin[pivot_expo]
    if isinstance(pivot_coeff, int):
        pivot_coeff = Fraction(pivot_coeff)  # int / int would give a float

    # Each step removes the leading term in the pivot variable and adds only
    # terms of lower pivot degree, so the lead strictly decreases and every
    # quotient exponent is written once.
    quotient: dict[tuple, object] = {}
    rem = dict(num.terms)
    while rem:
        lead = max(rem, key=lambda e: (e[pivot], e))
        if lead[pivot] == 0:
            raise ValueError(f"nonzero remainder {Polynomial(nvars, rem)!r}: "
                             f"division by {alpha!r} not exact")
        c = rem[lead] / pivot_coeff
        qe = lead[:pivot] + (lead[pivot] - 1,) + lead[pivot + 1:]
        quotient[qe] = c
        _accumulate(rem, _product({qe: -c}, lin).items())
    return Polynomial(nvars, quotient)


def _wrap(nvars: int, terms: dict) -> Polynomial:
    """Wrap a fresh term dict unchecked: ring operations on checked
    polynomials keep every term of the right arity, exact and nonzero."""
    out = object.__new__(Polynomial)
    object.__setattr__(out, "nvars", nvars)
    object.__setattr__(out, "terms", terms)
    return out


def _product(a: dict, b: dict) -> dict:
    """Product of two term dicts, as a new term dict without zeros."""
    return _accumulate({}, ((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                            for e1, c1 in a.items() for e2, c2 in b.items()))


def _accumulate(out: dict, pairs) -> dict:
    """Add (exponent, coefficient) pairs into the term dict out, dropping zeros.

    A new exponent stores its coefficient itself, so no sum starts from 0.
    """
    get = out.get
    for e, c in pairs:
        s = get(e)
        if s is None:
            if c:
                out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out
