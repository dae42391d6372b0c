"""Exact polynomials and affine forms in the parameter s, and exact linear
algebra over the integers.

No floating point enters at any stage.  Polynomials are stored dense by
degree (degrees in this project stay below ~30), with their coefficients
as given, ints or Fractions; a quotient of two of them is read at a point
by dropping the power of (s - s0) from each (:meth:`Poly.deflate`), so no
rational-function form is kept.  Inverses and ranks take integer
matrices and go through one fraction-free elimination,
:func:`_eliminate`: an inverse comes back as an integer matrix over one
denominator.  The odd-prime test that the config and the prime-field
scalars share lives here too.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable


def is_odd_prime(p: int) -> bool:
    """Whether the integer p is an odd prime, by trial division."""
    return p >= 3 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _numerators(xs) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


class Poly:
    """Dense polynomial over the rationals; coeffs[i] is the s^i coefficient,
    kept as given: ints stay ints, as in the rational scalars of compalg."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError(f"not an exact scalar among {cs!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int | Fraction, ...] = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(out)

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def eval(self, s0):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * s0 + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def deflate(self, s0) -> tuple[int, "Poly"]:
        """(m, q) with self = (s - s0)^m q and q(s0) != 0, by synthetic
        division; self must not be the zero polynomial."""
        if self.is_zero():
            raise ValueError("the zero polynomial vanishes to every order")
        m, coeffs = 0, self.coeffs
        while True:
            acc, quot = 0, []
            for c in reversed(coeffs):
                acc = acc * s0 + c
                quot.append(acc)
            if acc != 0:            # the remainder, self's value at s0
                return m, Poly(coeffs)
            m, coeffs = m + 1, quot[-2::-1]


_AFFINE_TERM = re.compile(r"^([+-]?)([0-9/]*)(s)?(?:/([0-9]+))?$")


class AffineForm:
    """An exact affine form a*s + b."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope, intercept):
        self.slope = _as_fraction(slope)
        self.intercept = _as_fraction(intercept)

    @classmethod
    def parse(cls, text: str) -> "AffineForm":
        """Parse forms like "s-17", "2s-10", "s/2-7", "1-s", "-4"."""
        t = text.replace(" ", "")
        if not t:
            raise ValueError("empty affine form")
        # split into signed terms, which must make up the whole text
        terms = re.findall(r"[+-]?[^+-]+", t)
        if "".join(terms) != t:
            raise ValueError(f"cannot parse affine form {text!r}")
        slope = Fraction(0)
        icept = Fraction(0)
        for term in terms:
            m = _AFFINE_TERM.match(term)
            if not m:
                raise ValueError(f"cannot parse affine term {term!r} in {text!r}")
            sign, num, has_s, den = m.groups()
            sgn = -1 if sign == "-" else 1
            if has_s:
                coeff = Fraction(num) if num else Fraction(1)
                if den:
                    coeff /= int(den)
                slope += sgn * coeff
            else:
                if not num:
                    raise ValueError(f"cannot parse affine term {term!r}")
                icept += sgn * Fraction(num)
        return cls(slope, icept)

    def eval(self, s0) -> Fraction:
        return self.slope * _as_fraction(s0) + self.intercept

    def __add__(self, other):
        if isinstance(other, AffineForm):
            return AffineForm(self.slope + other.slope, self.intercept + other.intercept)
        return AffineForm(self.slope, self.intercept + _as_fraction(other))

    def scale(self, c) -> "AffineForm":
        c = _as_fraction(c)
        return AffineForm(c * self.slope, c * self.intercept)

    def shift(self, c) -> "AffineForm":
        return AffineForm(self.slope, self.intercept + _as_fraction(c))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm)
                and self.slope == other.slope and self.intercept == other.intercept)

    def __hash__(self):
        # Fractions are kept in lowest terms, so equal forms hash alike
        return hash((self.slope.numerator, self.slope.denominator,
                     self.intercept.numerator, self.intercept.denominator))

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        if self.slope == 1:
            head = "s"
        elif self.slope == -1:
            head = "-s"
        elif self.slope.denominator == 1:
            head = f"{self.slope}s"
        else:
            head = f"{self.slope.numerator}s/{self.slope.denominator}" \
                if abs(self.slope.numerator) != 1 else \
                ("s" if self.slope > 0 else "-s") + f"/{self.slope.denominator}"
        if self.intercept == 0:
            return head
        sign = "+" if self.intercept > 0 else "-"
        return f"{head}{sign}{abs(self.intercept)}"

    __repr__ = __str__


def _eliminate(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """The integer `rows` reduced fraction-free on their first `ncols`
    columns (later columns ride along as an augmentation), and the pivot
    columns.  Each step multiplies the other rows by the new pivot and
    divides exactly by the one before (Bareiss: by Sylvester's identity
    every entry is an integer minor), so at the end the rows are the last
    pivot d times the reduced row echelon form.  Entries must be ints."""
    rows = [list(row) for row in rows]
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("exact linear algebra takes integer entries; clear denominators first")
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p, top = rows[r][col], rows[r]
        for k, row in enumerate(rows):
            if k != r:
                f = row[col]
                rows[k] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return rows, pivots


def inverse(a) -> tuple[list[list[int]], int]:
    """The inverse of an integer square matrix as an integer matrix over one
    positive denominator in lowest terms; ValueError if a is singular."""
    n = len(a)
    m, pivots = _eliminate(([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)), n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    # the rows are d times [1 | a^-1]: divide out the common factor, sign first
    d = m[0][0]
    g = math.gcd(d, *(x for row in m for x in row[n:])) * (1 if d > 0 else -1)
    return [[x // g for x in row[n:]] for row in m], d // g


def rank(a) -> int:
    """The rank of an integer matrix."""
    return len(_eliminate(a, len(a[0]))[1])
