"""Archimedean multiplier recipes: A-conjugated diagonal Pochhammer ratios.

A recipe is a token sequence ending in the base vector (0,0,1)^t.  It is
evaluated exactly, right to left, as three polynomial numerators in s over
one shared denominator that is never reduced: A1 and A1i multiply the
numerators by an integer matrix (A1i the denominator by A1_DEN), and d(z)
multiplies both by integer polynomials (`diag_factors`).  An entry is read
at a point s0 once its numerator and the denominator drop their common power
of (s - s0), so it reads as the function it is: removable singularities
read their limit, and a pole reads its order.  The catalog itself is data: only
recipes that the verified tables actually state are present, keyed by name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .exactnum import AffineForm, Poly, _numerators, inverse

BASE_A = ((2, 2, 1), (56, 8, -4), (140, -20, 6))

# A1 is the transpose of BASE_A; every recipe token A1 / A1i multiplies by it
# or by its inverse, the integer matrix A1_INV over A1_DEN.
A1 = tuple(zip(*BASE_A))
A1_INV, A1_DEN = inverse(A1)
assert all(sum(A1[i][k] * A1_INV[k][j] for k in range(3)) == A1_DEN * (i == j)
           for i in range(3) for j in range(3)), "A1 * A1_INV != A1_DEN * I"


def diag_factors(arg: AffineForm) -> tuple[tuple[Poly, Poly, Poly], Poly]:
    """d(z) = diag(v2(z), v1(z), 1) with v_k(z) = ((1-z)/2)_k / ((1+z)/2)_k,
    as integer polynomials over one denominator: with m the least common
    denominator of z, u = m(1+z) and v = m(1-z) are integral, and times
    (2m)^2 the entries are v(v+2m), v(u+2m) and u(u+2m) over u(u+2m)."""
    (a, b), m = _numerators((arg.slope, arg.intercept))
    u, u2 = Poly([m + b, a]), Poly([3 * m + b, a])
    v, v2 = Poly([m - b, -a]), Poly([3 * m - b, -a])
    den = u * u2
    return (v * v2, v * u2, den), den


class MultiplierVector(NamedTuple):
    """Three entries nums[i] / den over one shared denominator, which is
    never reduced: an entry is read at a point by read_at."""

    nums: tuple[Poly, Poly, Poly]
    den: Poly


class Token(NamedTuple):
    kind: str                  # "A1" | "A1inv" | "d" | "base" | "ref"
    arg: AffineForm | None = None
    power: int = 1
    ref: str = ""


_FIXED = {"A1": Token("A1"), "A1i": Token("A1inv"), "e3": Token("base")}
_TOKEN_RE = re.compile(r"(A1i|A1|e3)|@([\w-]+)|d\(([^()]*)\)(?:\^(\d+))?")


def parse_tokens(text: str) -> tuple[Token, ...]:
    """Parse "A1i d(2s-5) A1 d(s-2)^3 A1i d(s-1) A1 e3" (or a @name suffix)."""
    toks = []
    for piece in text.split():
        m = _TOKEN_RE.fullmatch(piece)
        if not m:
            raise ValueError(f"bad recipe token {piece!r}")
        fixed, ref, arg, power = m.groups()
        if fixed:
            toks.append(_FIXED[fixed])
        elif ref:
            toks.append(Token("ref", ref=ref))
        else:
            z = AffineForm.parse(arg)
            if z.slope == 0 and z.intercept in (-1, -3):
                # the denominator ((1+z)/2)_2 of d(z) vanishes at z = -1 and z = -3
                raise ValueError(f"recipe token {piece!r} has a zero denominator")
            toks.append(Token("d", arg=z, power=int(power or 1)))
    if not toks or toks[-1].kind not in ("base", "ref"):
        raise ValueError("recipe must end in the base vector or a named suffix")
    return tuple(toks)


class MatrixRecipe(NamedTuple):
    """One printed recipe, parsed at load: its printed text and tokens, the
    point and vanishing patterns ("0" or "*" per entry) it is checked at, and
    the least vanishing order a row compares at its case's s0, if stated."""

    case: str
    word: tuple[int, ...]
    name: str
    text: str
    tokens: tuple[Token, ...]
    s0: Fraction
    value: tuple[str, str, str]
    derivative: tuple[str, str, str] | None = None
    min_vanishing_order: int | None = None


class RecipeCatalog:
    """The printed recipes by name, and the memo of their verdicts."""

    def __init__(self, recipes: dict[str, MatrixRecipe]):
        self.recipes = recipes
        self._verdicts: dict[str, tuple[MultiplierVector, PatternCheck]] = {}

    def verdict(self, recipe: MatrixRecipe) -> tuple[MultiplierVector, PatternCheck]:
        """The recipe's vector and its pattern check at the recipe's own s0,
        made once: the arch report and every row that names the recipe read
        this one verdict."""
        if recipe.name not in self._verdicts:
            vec = self.evaluate(recipe)
            self._verdicts[recipe.name] = vec, pattern_check(vec, recipe.s0, recipe.value,
                                                             recipe.derivative)
        return self._verdicts[recipe.name]

    def evaluate(self, recipe: MatrixRecipe) -> MultiplierVector:
        """Exact right-to-left evaluation over polynomial numerators and one
        denominator; a referenced recipe's vector is read off its verdict."""
        vec: MultiplierVector | None = None
        for tok in reversed(recipe.tokens):
            if tok.kind == "base":
                vec = MultiplierVector((Poly(), Poly(), Poly([1])), Poly([1]))
            elif tok.kind == "ref":
                vec = self.verdict(self.recipes[tok.ref])[0]
            elif tok.kind == "d":
                factors, den = diag_factors(tok.arg)
                for _ in range(tok.power):
                    vec = MultiplierVector(tuple(f * n for f, n in zip(factors, vec.nums)),
                                           vec.den * den)
            else:
                m, den = (A1, 1) if tok.kind == "A1" else (A1_INV, A1_DEN)
                vec = MultiplierVector(
                    tuple(sum((n.scale(c) for c, n in zip(row, vec.nums)), Poly())
                          for row in m), vec.den.scale(den))
        return vec


class Reading(NamedTuple):
    """One entry at a point s0: its order of vanishing there (negative at a
    pole, None for the zero function), and its value and derivative there,
    None at a pole."""

    order: int | None
    value: Fraction | None = None
    derivative: Fraction | None = None


def read_at(vec: MultiplierVector, s0) -> list[Reading]:
    """Each entry's reading at s0, once its numerator and the denominator
    drop their powers of (s - s0): the entry is (s - s0)^order g with g
    regular and nonzero at s0.  The zero function reads value 0 and
    derivative 0."""
    s0 = Fraction(s0)
    e, den = vec.den.deflate(s0)
    out = []
    for num in vec.nums:
        if num.is_zero():
            out.append(Reading(None, Fraction(0), Fraction(0)))
            continue
        k, num = num.deflate(s0)
        g = num.eval(s0) / den.eval(s0)
        if k < e:
            out.append(Reading(k - e))
        elif k == e:
            dg = (num.derivative().eval(s0) - g * den.derivative().eval(s0)) / den.eval(s0)
            out.append(Reading(0, g, dg))
        else:
            out.append(Reading(k - e, Fraction(0), g if k - e == 1 else Fraction(0)))
    return out


class PatternCheck(NamedTuple):
    ok: bool
    ledger: list[str]


def pattern_check(vec: MultiplierVector, s0, value_pattern,
                  derivative_pattern=None) -> PatternCheck:
    """Check exact vanishing patterns; '*' entries are unconstrained but the
    exact values are still recorded in the ledger.  A pole at s0 fails the
    check whatever the pattern: the multiplier has no value there."""
    readings = read_at(vec, s0)
    checked = [("value", [r.value for r in readings], value_pattern)]
    if derivative_pattern is not None:
        checked.append(("derivative", [r.derivative for r in readings], derivative_pattern))
    ledger, ok = [], True
    # the k-th derivative of a pole of order p has a pole of order p + k
    for k, (label, vals, pattern) in enumerate(checked):
        for i, (r, v, pat) in enumerate(zip(readings, vals, pattern)):
            ledger.append(f"{label}[{i}] = "
                          + (f"pole of order {k - r.order}" if v is None else str(v)))
            ok = ok and v is not None and (pat != "0" or v == 0)
    return PatternCheck(ok, ledger)


def vanishing_order(vec: MultiplierVector, s0) -> int:
    """Minimal order of vanishing at s0 across the three entries."""
    orders = [r.order for r in read_at(vec, s0) if r.order is not None]
    if not orders:
        raise ValueError("zero multiplier vector")
    return min(orders)
