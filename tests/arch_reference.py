"""Canonical rational functions of s, and the recipe evaluation over them,
as a reference for the tests.

The verifier evaluates an archimedean recipe as three polynomial numerators
over one shared denominator that it never reduces
(`archmult.RecipeCatalog.evaluate`), and reads an entry at a point once its
numerator and denominator drop their common power of (s - s0)
(`archmult.read_at`).  This module keeps the path that came before:

* `RatFunc`, a rational function in canonical form: every sum and product
  is reduced by a polynomial gcd to a coprime numerator over a monic
  denominator, so that equal functions compare equal;
* `evaluate`, the right-to-left evaluation of a token sequence over RatFunc
  entries, with `diag_entries` for a d(z) token;
* `read`, each entry's order, value and derivative at s0 from that form.

The differential tests compare the verifier's readings with these.
"""

from __future__ import annotations

from fractions import Fraction

from exceis.archmult import A1, Reading
from exceis.exactnum import AffineForm, Poly
from linalg_reference import inverse

# the inverse of A1 over Fractions, from the reference elimination
A1_INV = inverse(A1)


class ZeroFunctionError(ValueError):
    """Raised when an operation needs a not-identically-zero function."""


class PoleError(ArithmeticError):
    """Evaluation at a pole.  Carries the pole order."""

    def __init__(self, point: Fraction, order: int):
        self.point = point
        self.order = order
        super().__init__(f"pole of order {order} at s = {point}")


def divmod_poly(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by the nonzero polynomial b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, top = [Fraction(c) for c in a.coeffs], len(b.coeffs) - 1
    quot = [Fraction(0)] * max(0, len(rem) - top)
    for k in reversed(range(len(quot))):
        quot[k] = rem[k + top] / b.coeffs[top]
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= quot[k] * c
    return Poly(quot), Poly(rem)


def root_multiplicity(p: Poly, s0) -> int:
    """Multiplicity of s0 as a root of the nonzero polynomial p."""
    if p.is_zero():
        raise ZeroFunctionError("zero polynomial has no root multiplicity")
    m = 0
    while p.eval(s0) == 0:
        p, _ = divmod_poly(p, Poly([-Fraction(s0), 1]))
        m += 1
    return m


def _gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b; 1 when both are zero."""
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    return a.scale(1 / Fraction(a.coeffs[-1])) if not a.is_zero() else Poly([1])


class RatFunc:
    """Rational function num/den in canonical form.

    Invariants: gcd(num, den) = 1, den monic and nonzero; the zero function
    is 0/1.  Two RatFuncs built along different arithmetic routes from the
    same function therefore compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        g = _gcd(num, den)
        if len(g.coeffs) > 1:
            num, den = divmod_poly(num, g)[0], divmod_poly(den, g)[0]
        lc = Fraction(den.coeffs[-1])
        self.num = num.scale(1 / lc)
        self.den = den.scale(1 / lc)

    @classmethod
    def const(cls, c) -> RatFunc:
        return cls(Poly([c]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __add__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def derivative(self) -> RatFunc:
        """Exact quotient-rule derivative."""
        n, d = self.num, self.den
        return RatFunc(n.derivative() * d + (n * d.derivative()).scale(-1), d * d)

    def order_at(self, s0) -> int:
        """Order of vanishing at s0 (negative = pole of that order)."""
        if self.is_zero():
            raise ZeroFunctionError("order_at is undefined for the zero function")
        return root_multiplicity(self.num, s0) - root_multiplicity(self.den, s0)

    def eval_at(self, s0) -> Fraction:
        s0 = Fraction(s0)
        dv = self.den.eval(s0)
        if dv == 0:
            raise PoleError(s0, -self.order_at(s0))
        return self.num.eval(s0) / dv

    def __repr__(self) -> str:
        return f"({self.num})/({self.den})"


def rising(z: AffineForm, n: int) -> Poly:
    """z(z+1)...(z+n-1) as a polynomial in s."""
    acc = Poly([1])
    for k in range(n):
        acc = acc * Poly([z.intercept + k, z.slope])
    return acc


def diag_entries(arg: AffineForm) -> tuple[RatFunc, RatFunc, RatFunc]:
    """d(z) = diag(v2(z), v1(z), 1) with v_k(z) = ((1-z)/2)_k / ((1+z)/2)_k."""
    half_minus = AffineForm(-arg.slope / 2, (1 - arg.intercept) / 2)
    half_plus = AffineForm(arg.slope / 2, (1 + arg.intercept) / 2)
    v1 = RatFunc(rising(half_minus, 1)) / RatFunc(rising(half_plus, 1))
    v2 = RatFunc(rising(half_minus, 2)) / RatFunc(rising(half_plus, 2))
    return v2, v1, RatFunc.const(1)


def evaluate(tokens, recipes: dict) -> tuple[RatFunc, RatFunc, RatFunc]:
    """Right-to-left evaluation of a token sequence over RatFunc entries;
    recipes maps the name of each @name suffix to its tokens."""
    vec = None
    for tok in reversed(tokens):
        if tok.kind == "base":
            vec = (RatFunc.const(0), RatFunc.const(0), RatFunc.const(1))
        elif tok.kind == "ref":
            vec = evaluate(recipes[tok.ref], recipes)
        elif tok.kind == "d":
            d = diag_entries(tok.arg)
            for _ in range(tok.power):
                vec = tuple(di * vi for di, vi in zip(d, vec))
        else:
            m = A1 if tok.kind == "A1" else A1_INV
            vec = tuple(sum((RatFunc.const(m[i][k]) * vec[k] for k in range(3)),
                            RatFunc.const(0))
                        for i in range(3))
    return vec


def read(vec, s0) -> list[Reading]:
    """Each canonical entry's order, value and derivative at s0: the zero
    function reads value 0 and derivative 0 with no order, and a pole
    reads its (negative) order alone."""
    out = []
    for f in vec:
        if f.is_zero():
            out.append(Reading(None, Fraction(0), Fraction(0)))
        elif f.order_at(s0) < 0:
            out.append(Reading(f.order_at(s0)))
        else:
            out.append(Reading(f.order_at(s0), f.eval_at(s0), f.derivative().eval_at(s0)))
    return out
