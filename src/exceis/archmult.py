"""Archimedean multiplier recipes: A-conjugated diagonal Pochhammer ratios.

A recipe is a token sequence ending in the base vector (0,0,1)^t, evaluated
exactly over rational functions of s.  The catalog itself is data: only
recipes that the verified tables actually state are present, keyed by
(case, word).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import AffineForm, RatFunc, inverse, pochhammer

BASE_A = ((2, 2, 1), (56, 8, -4), (140, -20, 6))


@dataclass(frozen=True)
class BaseMatrix:
    """The fixed 3x3 change-of-basis matrix and its transpose/inverse."""

    a: tuple
    a1: tuple
    a1_inv: tuple

    @classmethod
    def standard(cls) -> "BaseMatrix":
        a = tuple(tuple(Fraction(x) for x in row) for row in BASE_A)
        a1 = tuple(zip(*a))
        inv = tuple(map(tuple, inverse(a1)))
        # sanity: A1 * A1^{-1} = I
        for i in range(3):
            for j in range(3):
                got = sum(a1[i][k] * inv[k][j] for k in range(3))
                assert got == (1 if i == j else 0)
        return cls(a, a1, inv)


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


_TOKEN_RE = re.compile(r"^(A1i|A1|e3|@[\w-]+|d\([^()]*\)(?:\^\d+)?)$")
_D_RE = re.compile(r"^d\(([^()]*)\)(?:\^(\d+))?$")


def parse_tokens(text: str) -> tuple[Token, ...]:
    """Parse "A1i d(2s-5) A1 d(s-2)^3 A1i d(s-1) A1 e3" (or a @name suffix)."""
    toks = []
    for piece in text.split():
        if not _TOKEN_RE.match(piece):
            raise ValueError(f"bad recipe token {piece!r}")
        if piece == "A1":
            toks.append(Token("A1"))
        elif piece == "A1i":
            toks.append(Token("A1inv"))
        elif piece == "e3":
            toks.append(Token("base"))
        elif piece.startswith("@"):
            toks.append(Token("ref", ref=piece[1:]))
        else:
            m = _D_RE.match(piece)
            toks.append(Token("d", arg=AffineForm.parse(m.group(1)),
                              power=int(m.group(2) or 1)))
    if not toks or toks[-1].kind not in ("base", "ref"):
        raise ValueError("recipe must end in the base vector or a named suffix")
    return tuple(toks)


def format_tokens(tokens) -> str:
    out = []
    for t in tokens:
        if t.kind == "A1":
            out.append("A1")
        elif t.kind == "A1inv":
            out.append("A1i")
        elif t.kind == "base":
            out.append("e3")
        elif t.kind == "ref":
            out.append("@" + t.ref)
        else:
            out.append(f"d({t.arg})" + (f"^{t.power}" if t.power != 1 else ""))
    return " ".join(out)


@dataclass(frozen=True)
class MatrixRecipe:
    case: str
    word: tuple[int, ...]
    name: str
    tokens: tuple[Token, ...]


class RecipeCatalog:
    """The printed recipes only, keyed by (case, word)."""

    def __init__(self, base: BaseMatrix | None = None):
        self.base = base or BaseMatrix.standard()
        self._by_key: dict[tuple[str, tuple[int, ...]], MatrixRecipe] = {}
        self._by_name: dict[str, MatrixRecipe] = {}
        self._values: dict[str, MultiplierVector] = {}

    def add(self, recipe: MatrixRecipe):
        self._by_key[(recipe.case, recipe.word)] = recipe
        self._by_name[recipe.name] = recipe
        self._values.clear()   # a replaced recipe may be referenced by others

    def lookup(self, case: str, word) -> MatrixRecipe | None:
        return self._by_key.get((case, tuple(word)))

    def by_name(self, name: str) -> MatrixRecipe:
        return self._by_name[name]

    def names(self) -> list[str]:
        return sorted(self._by_name)

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
                vec = self.evaluate(self.by_name(tok.ref))
            elif tok.kind == "d":
                d = diag_entries(tok.arg)
                for _ in range(tok.power):
                    vec = tuple(di * vi for di, vi in zip(d, vec))
            else:
                m = self.base.a1 if tok.kind == "A1" else self.base.a1_inv
                vec = tuple(
                    sum((RatFunc.const(m[i][k]) * vec[k] for k in range(3)),
                        RatFunc.const(0))
                    for i in range(3))
            if vec is None:
                raise ValueError("recipe does not end in the base vector")
        self._values[recipe.name] = vec
        return vec


@dataclass
class PatternCheck:
    ok: bool
    values: tuple
    ledger: list[str]


def pattern_check(vec: MultiplierVector, s0, value_pattern,
                  derivative_pattern=None) -> PatternCheck:
    """Check exact vanishing patterns; '*' entries are unconstrained but the
    exact values are still recorded in the ledger."""
    s0 = Fraction(s0)
    ledger = []
    ok = True
    vals = tuple(f.eval_at(s0) for f in vec)  # PoleError if s0 is a pole
    for i, (v, pat) in enumerate(zip(vals, value_pattern)):
        ledger.append(f"value[{i}] = {v}")
        if str(pat) == "0" and v != 0:
            ok = False
    dvals = None
    if derivative_pattern is not None:
        dvals = tuple(f.derivative().eval_at(s0) for f in vec)
        for i, (v, pat) in enumerate(zip(dvals, derivative_pattern)):
            ledger.append(f"derivative[{i}] = {v}")
            if str(pat) == "0" and v != 0:
                ok = False
    return PatternCheck(ok, (vals, dvals), ledger)


def vanishing_order(vec: MultiplierVector, s0) -> int:
    """Minimal order of vanishing at s0 across the three entries."""
    orders = []
    for f in vec:
        if not f.is_zero():
            orders.append(f.order_at(s0))
    if not orders:
        raise ValueError("zero multiplier vector")
    return min(orders)
