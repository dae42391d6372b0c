"""Archimedean multiplier recipes: A-conjugated diagonal Pochhammer ratios.

A recipe is a token sequence ending in the base vector (0,0,1)^t, evaluated
exactly over rational functions of s.  The catalog itself is data: only
recipes that the verified tables actually state are present, keyed by name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import AffineForm, RatFunc, inverse, pochhammer

BASE_A = ((2, 2, 1), (56, 8, -4), (140, -20, 6))

# A1 is the transpose of BASE_A; every recipe token A1 / A1i multiplies by it
# or by its inverse.
A1 = tuple(tuple(Fraction(BASE_A[k][i]) for k in range(3)) for i in range(3))
A1_INV = tuple(map(tuple, inverse(A1)))
assert all(sum(A1[i][k] * A1_INV[k][j] for k in range(3)) == (1 if i == j else 0)
           for i in range(3) for j in range(3)), "A1 * A1^{-1} != I"


def diag_entries(arg: AffineForm) -> tuple[RatFunc, RatFunc, RatFunc]:
    """d(z) = diag(v2(z), v1(z), 1) with v_k(z) = ((1-z)/2)_k / ((1+z)/2)_k."""
    half_minus = AffineForm(-arg.slope / 2, (1 - arg.intercept) / 2)
    half_plus = AffineForm(arg.slope / 2, (1 + arg.intercept) / 2)
    v1 = pochhammer(half_minus, 1) / pochhammer(half_plus, 1)
    v2 = pochhammer(half_minus, 2) / pochhammer(half_plus, 2)
    return v2, v1, RatFunc.const(1)


MultiplierVector = tuple[RatFunc, RatFunc, RatFunc]


@dataclass(frozen=True)
class Token:
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
            toks.append(Token("d", arg=AffineForm.parse(arg), power=int(power or 1)))
    if not toks or toks[-1].kind not in ("base", "ref"):
        raise ValueError("recipe must end in the base vector or a named suffix")
    return tuple(toks)


@dataclass(frozen=True)
class MatrixRecipe:
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
    """The printed recipes by name, and the memo of their values."""

    def __init__(self, recipes: dict[str, MatrixRecipe]):
        self.recipes = recipes
        self._values: dict[str, MultiplierVector] = {}

    def evaluate(self, recipe: MatrixRecipe) -> MultiplierVector:
        """Exact right-to-left evaluation over RatFunc entries, memoized by
        recipe name (RatFunc values are never mutated)."""
        if recipe.name in self._values:
            return self._values[recipe.name]
        vec: MultiplierVector | None = None
        for tok in reversed(recipe.tokens):
            if tok.kind == "base":
                vec = (RatFunc.const(0), RatFunc.const(0), RatFunc.const(1))
            elif tok.kind == "ref":
                vec = self.evaluate(self.recipes[tok.ref])
            elif tok.kind == "d":
                d = diag_entries(tok.arg)
                for _ in range(tok.power):
                    vec = tuple(di * vi for di, vi in zip(d, vec))
            else:
                m = A1 if tok.kind == "A1" else A1_INV
                vec = tuple(
                    sum((RatFunc.const(m[i][k]) * vec[k] for k in range(3)),
                        RatFunc.const(0))
                    for i in range(3))
        self._values[recipe.name] = vec
        return vec


@dataclass
class PatternCheck:
    ok: bool
    ledger: list[str]


def pattern_check(vec: MultiplierVector, s0, value_pattern,
                  derivative_pattern=None) -> PatternCheck:
    """Check exact vanishing patterns; '*' entries are unconstrained but the
    exact values are still recorded in the ledger."""
    checked = [("value", vec, value_pattern)]
    if derivative_pattern is not None:
        checked.append(("derivative", [f.derivative() for f in vec], derivative_pattern))
    ledger, ok = [], True
    for label, fs, pattern in checked:
        vals = [f.eval_at(s0) for f in fs]  # PoleError if s0 is a pole
        for i, (v, pat) in enumerate(zip(vals, pattern)):
            ledger.append(f"{label}[{i}] = {v}")
            ok = ok and (pat != "0" or v == 0)
    return PatternCheck(ok, ledger)


def vanishing_order(vec: MultiplierVector, s0) -> int:
    """Minimal order of vanishing at s0 across the three entries."""
    orders = []
    for f in vec:
        if not f.is_zero():
            orders.append(f.order_at(s0))
    if not orders:
        raise ValueError("zero multiplier vector")
    return min(orders)
