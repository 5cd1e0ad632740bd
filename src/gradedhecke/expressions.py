"""
The element expression grammar used by the command line.

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := RATIONAL | VAR | 'N' '[' word ']' | FUNC '(' expr ')'
            | '(' expr ')' | '-' factor
    word   := 'e' | gen ('*' gen)*
    gen    := 's' INT? | 'g' INT

Variables are x1..xd and r; for rank one, `x` and `s` are accepted as
aliases for x1 and s1.  FUNC is IM or sgn.  Parse errors carry the
character position.  A power is formed by repeated left multiplication
(see `_power`), and `a ^ m` is an error when m times the degree of a in
x1..xd and r (a constant counting as degree 1) passes `POWER_DEGREE_CAP`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .hecke import HeckeAlgebra, HeckeElement

__all__ = ["parse_element", "ExpressionError", "POWER_DEGREE_CAP"]

# `a ^ m` is refused when m times the degree of a in x1..xd and r passes this
POWER_DEGREE_CAP = 4096


class ExpressionError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"""
    (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()\[\]])
  | (?P<space>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, algebra: HeckeAlgebra, text: str):
        self.algebra = algebra
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ExpressionError(f"expected {value!r}, found {text!r}", pos)

    # -- grammar -------------------------------------------------------------
    def parse(self) -> HeckeElement:
        out = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {text!r}", pos)
        return out

    def expr(self) -> HeckeElement:
        out = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> HeckeElement:
        out = self.factor()
        while self.peek()[1] == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self) -> HeckeElement:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "number" or "/" in text:
                raise ExpressionError("exponent must be a nonnegative integer", pos)
            # the base's degree in x1..xd and r, a constant or zero counting as 1;
            # the digit count goes first, so a huge exponent is never converted
            degree = max(1, self.algebra.filtration_degree(base) // 2)
            if (len(text.lstrip("0")) > len(str(POWER_DEGREE_CAP))
                    or int(text) * degree > POWER_DEGREE_CAP):
                raise ExpressionError(f"power too large: the exponent times the base's "
                                      f"degree ({degree}) passes {POWER_DEGREE_CAP}", pos)
            return _power(base, int(text))
        return base

    def atom(self) -> HeckeElement:
        kind, text, pos = self.next()
        if text == "-":
            return -self.factor()
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "number":
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise ExpressionError(f"zero denominator in {text!r}", pos) from None
            return self.algebra.one().scale(value)
        if kind == "name":
            return self._name_atom(text, pos)
        raise ExpressionError(f"unexpected token {text!r}", pos)

    def _name_atom(self, name, pos) -> HeckeElement:
        alg = self.algebra
        if name == "N":
            self.expect("[")
            elt = self._word(pos)
            self.expect("]")
            return alg.N(elt)
        if name in ("IM", "sgn"):
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            if name == "IM":
                return alg.im_involution(inner)
            mapped = alg.sgn_involution(inner)
            if not alg.compatible(mapped.algebra):
                raise ExpressionError(
                    "sgn leaves the algebra in r1 mode; evaluate it on its own", pos)
            return mapped
        if name == "r":
            return alg.r()
        if name == "x" and alg.rs.dim == 1:
            return alg.x(0)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            idx = int(m.group(1)) - 1
            if not 0 <= idx < alg.rs.dim:
                raise ExpressionError(f"no variable {name}", pos)
            return alg.x(idx)
        raise ExpressionError(f"unknown name {name!r}", pos)

    def _word(self, pos):
        group = self.algebra.group
        out = group.identity
        while True:
            kind, text, tpos = self.next()
            if kind != "name":
                raise ExpressionError(f"expected a word letter, found {text!r}", tpos)
            if text == "e":
                pass
            elif text == "s" and self.algebra.rs.rank == 1:
                out = group.multiply(out, group.simple(0))
            else:
                m = re.fullmatch(r"s(\d+)", text)
                g = re.fullmatch(r"g(\d+)", text)
                if m:
                    idx = int(m.group(1)) - 1
                    if not 0 <= idx < self.algebra.rs.rank:
                        raise ExpressionError(f"no simple reflection {text}", tpos)
                    out = group.multiply(out, group.simple(idx))
                elif g:
                    gi = int(g.group(1))
                    if not 1 <= gi < len(group.gamma_elements):
                        raise ExpressionError(f"no gamma generator {text}", tpos)
                    out = group.multiply(out, group.gamma_element(gi))
                else:
                    raise ExpressionError(f"bad word letter {text!r}", tpos)
            if self.peek()[1] != "*":
                return out
            self.next()


def _power(base: HeckeElement, m: int) -> HeckeElement:
    """base^m as m products base * out, powers of one element commuting.

    Straightening moves each polynomial of the left factor through each N_v
    of the right one, so the small base goes on the left; squaring would
    make both factors large (Fateman, Stud. Appl. Math. 1974).
    """
    out = base.algebra.one()
    for _ in range(m):
        out = base * out
    return out


def parse_element(algebra: HeckeAlgebra, text: str) -> HeckeElement:
    """Parse an element expression; raises ExpressionError with a position."""
    return _Parser(algebra, text).parse()
