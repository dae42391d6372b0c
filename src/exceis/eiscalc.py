"""Constant-term calculus for degenerate Eisenstein series.

The objects here are exact: exponent vectors are tuples of affine forms in
the complex parameter s, intertwining traces record every simple-reflection
step with its coroot pairing, and c-functions are canonical multisets of
zeta/Gamma/Pochhammer factors with affine arguments.

A trace carries the exponent lam by its labels a_j = <lam, alpha_j^vee>
and the coefficients m_j of lam - w(lam) = sum_j m_j alpha_j, slope and
intercept each as integer numerators over one denominator fixed at the
start of the word (`apply_word`).  The end-of-word check is in integers:
the final labels are those of w(lam) by the root permutation, and lam -
sum_j m_j alpha_j has them.  That is the Euclidean check of w(lam): a
vector is fixed by its labels and its part orthogonal to the roots, and
lam - sum_j m_j alpha_j keeps lam's orthogonal part, which W fixes.  Only
then is w(lam) = lam - sum_j m_j alpha_j formed as a vector, once, the
trace's `final`, which the printed lambda' and the eis functionals read;
pairings, c-function blocks and the GK oracle read labels.

Analytic inputs are encoded as order lookups at rational points:

* zeta: simple pole at argument 1, simple zeros at the negative even
  integers, nonzero at every other rational argument (no nontrivial zeros
  lie on the real axis);
* Dedekind zeta of an etale algebra: expanded when the algebra is split,
  otherwise evaluated only where the Euler product converges or at the
  pole at 1 (field cases are opaque elsewhere -- orders there are never
  guessed);
* Gamma, Gamma_R, Gamma_C: poles at the usual nonpositive arguments,
  never zero;
* Pochhammer factors are polynomials.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .exactnum import AffineForm, inverse
from .rootsys import RootSystem, Vector, Word, smul, vadd, vsub

# ---------------------------------------------------------------------------
# exponent vectors and traces
# ---------------------------------------------------------------------------


class CoordVector:
    """Vector of affine forms a_i*s + b_i in a root system's coordinates."""

    __slots__ = ("slope", "icept")

    def __init__(self, slope: Vector, icept: Vector):
        if len(slope) != len(icept):
            raise ValueError("slope/intercept dimension mismatch")
        self.slope, self.icept = slope, icept

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoordVector)
                and self.slope == other.slope and self.icept == other.icept)

    @classmethod
    def lambda_s(cls, system: RootSystem) -> "CoordVector":
        """The exponent delta_{P0}^{-1/2} |nu|^s, i.e. s*nu - rho."""
        if system.nu is None:
            raise ValueError(f"system {system.name} has no character nu configured")
        return cls(system.nu, smul(Fraction(-1), system.rho_weighted()))

    def entries(self) -> tuple[AffineForm, ...]:
        return tuple(AffineForm(a, b) for a, b in zip(self.slope, self.icept))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries()) + ")"


class TraceStep(NamedTuple):
    letter: int
    pairing: AffineForm          # coroot pairing before the reflection
    printed: AffineForm          # same, in the system's display normalization


class LambdaTrace(NamedTuple):
    word: Word
    steps: tuple[TraceStep, ...]
    labels: tuple                # of w(lambda): slope and intercept numerators, denominator
    final: CoordVector           # w(lambda)


def apply_word(system: RootSystem, lam: CoordVector, word) -> LambdaTrace:
    """Apply a reduced word to an exponent vector, rightmost letter first,
    recording the coroot pairing at each step.

    A step by letter j pairs to the label a_j, subtracts a_j times row j of
    the Cartan matrix from the labels and adds a_j to m_j.  At the end, the
    root permutation w = system.element(word) must give the final labels,
    <w lam, (w alpha_k)^vee> = <lam, alpha_k^vee> for every simple root
    alpha_k, and the Cartan columns must give them from the m_j.  Only then
    is w(lam) = lam - sum_j m_j alpha_j formed, as the trace's `final`.
    """
    word = tuple(word)
    if not system.is_reduced(word):
        raise ValueError(f"word {list(word)} is not reduced")
    (first_s, first_i), den = system.labels(lam.slope, lam.icept)
    ls, li, ms, mi, steps = first_s, first_i, [0] * system.rank, [0] * system.rank, []
    for i in reversed(word):
        j, row, scale = i - 1, system.cartan[i - 1], system.simple_scales[i - 1]
        a, b = ls[j], li[j]
        ls, li = system.reflect(row, ls, a) if a else ls, system.reflect(row, li, b) if b else li
        ms[j] += a
        mi[j] += b
        pairing = AffineForm(Fraction(a, den), Fraction(b, den))
        steps.append(TraceStep(i, pairing, pairing if scale == 1 else pairing.scale(scale)))
    p = system.element(word)
    images = [system.coroot_coords[p[k]] for k in system._simple_idx]
    for got, first, m in ((ls, first_s, ms), (li, first_i, mi)):
        if ([sum(map(operator.mul, c, got)) for c in images] != first
                or list(got) != [f - sum(map(operator.mul, m, col))
                                 for f, col in zip(first, zip(*system.cartan))]):
            raise AssertionError("trace disagrees with the root permutation")
    final = CoordVector(vsub(lam.slope, system.vector(ms, den)),
                        vsub(lam.icept, system.vector(mi, den)))
    return LambdaTrace(word, tuple(steps), (ls, li, den), final)


def shifted_exponent(system: RootSystem, trace: LambdaTrace) -> CoordVector:
    """w(lambda) + rho, the exponent of the intertwined section: the trace's
    final vector plus rho."""
    final = trace.final
    return CoordVector(final.slope, vadd(final.icept, system.rho_weighted()))


def shifted_label(system: RootSystem, trace: LambdaTrace, j: int) -> AffineForm:
    """<w(lambda) + rho, alpha_j^vee> in the system's display normalization,
    read off the trace's final labels."""
    ls, li, den = trace.labels
    return AffineForm(Fraction(ls[j - 1], den), Fraction(li[j - 1], den)
                      + system.rho_labels[j - 1]).scale(system.simple_scales[j - 1])


# ---------------------------------------------------------------------------
# zeta products
# ---------------------------------------------------------------------------

FINITE_KINDS = ("zeta", "zetaE", "zetaF", "zetaTheta")
ARCH_KINDS = ("gamma", "gammaR", "gammaC", "poch")
KINDS = FINITE_KINDS + ARCH_KINDS
DEDEKIND_KINDS = ("zetaE", "zetaF")


class ZetaFactor:
    """One zeta/Gamma/Pochhammer factor with an affine argument.

    `sym`/`sym_sign` carry an opaque symbolic shift of the argument (the
    weight parameters the source leaves undefined); such factors only get
    an order once the symbol is bound.  `variant` distinguishes the etale
    algebra behind zetaE/zetaF factors; other kinds drop it.  Factors are
    equal, and hash alike, when all six fields agree.
    """

    __slots__ = ("kind", "arg", "n", "sym", "sym_sign", "variant")

    def __init__(self, kind: str, arg: AffineForm, n: int = 0, sym: str = "",
                 sym_sign: int = 0, variant: str = ""):
        if kind not in KINDS:
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == "poch" and n < 1:
            raise ValueError("pochhammer factor needs n >= 1")
        self.kind, self.arg, self.n, self.sym, self.sym_sign = kind, arg, n, sym, sym_sign
        self.variant = variant if kind in DEDEKIND_KINDS else ""

    def _key(self) -> tuple:
        return self.kind, self.arg, self.n, self.sym, self.sym_sign, self.variant

    def __eq__(self, other) -> bool:
        return isinstance(other, ZetaFactor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def sort_key(self):
        return (self.kind, self.arg.slope, self.arg.intercept, self.n,
                self.sym, self.sym_sign, self.variant)

    def is_finite(self) -> bool:
        return self.kind in FINITE_KINDS

    def __str__(self) -> str:
        name = self.kind
        arg = str(self.arg)
        if self.sym:
            arg += ("+" if self.sym_sign > 0 else "-") + self.sym
        if self.kind == "poch":
            return f"poch({arg};{self.n})"
        return f"{name}({arg})"


_FACTOR_RE = re.compile(
    r"^(zetaTheta|zetaE|zetaF|zeta|gammaR|gammaC|gamma|poch)"
    r"\(([^;()]+?)(?:([+-])([a-z]))?(?:;(\d+))?\)(?:\^(-?\d+))?$")


def parse_factor(text: str, variant: str = "") -> tuple[ZetaFactor, int]:
    """Parse "zeta(s-9)", "zeta(s)^-1", "gammaR(s-8+v)^-1", "poch(s/2-5/2;2)"."""
    m = _FACTOR_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse factor {text!r}")
    kind, arg, symsign, sym, n, expo = m.groups()
    f = ZetaFactor(kind, AffineForm.parse(arg), n=int(n) if n else 0,
                   sym=sym or "", sym_sign=(1 if symsign == "+" else -1) if symsign else 0,
                   variant=variant)
    return f, int(expo) if expo else 1


# the Dedekind zeta of a split etale algebra as the product over its field
# factors, by kind and variant: zetaE over Q^3 = zeta^3, zetaE over Q x F =
# zeta zetaF, zetaF over Q x Q = zeta^2
_SPLIT_PIECES = {("zetaE", "split3"): [("zeta", 3)],
                 ("zetaE", "QxF"): [("zeta", 1), ("zetaF", 1)],
                 ("zetaF", "split"): [("zeta", 2)]}
# the etale algebra behind a case's zetaE/zetaF factors: a field, or split
ETALE_VARIANTS = ("field", *(variant for _, variant in _SPLIT_PIECES))


def base_pieces(f: ZetaFactor) -> list[tuple[ZetaFactor, int]]:
    """The factor as (base factor, exponent) pairs: zetaTheta(x) =
    zeta(x) zeta(x-3), and a split Dedekind zeta is its _SPLIT_PIECES, a
    zetaF piece over a field.  Every other factor is its own piece.  The
    pieces keep the factor's symbol."""
    if f.kind == "zetaTheta":
        return [(ZetaFactor("zeta", arg, f.n, f.sym, f.sym_sign), 1)
                for arg in (f.arg, f.arg.shift(-3))]
    pieces = _SPLIT_PIECES.get((f.kind, f.variant))
    if pieces:
        return [(ZetaFactor(kind, f.arg, f.n, f.sym, f.sym_sign, "field"), e)
                for kind, e in pieces]
    return [(f, 1)]


class ZetaProduct:
    """Canonical multiset of factors, built from (factor, exponent) pairs:
    the exponents of equal factors are summed and zeros dropped.  This
    constructor is the one place where exponents are summed; products,
    expansions and c-function builders all hand it their pairs."""

    def __init__(self, pairs=()):
        factors: dict[ZetaFactor, int] = {}
        for f, e in pairs:
            factors[f] = factors.get(f, 0) + e
        self.factors = {f: e for f, e in factors.items() if e != 0}

    @classmethod
    def parse(cls, texts, variant: str = "") -> "ZetaProduct":
        return cls(parse_factor(t, variant) for t in texts)

    def __mul__(self, other: "ZetaProduct") -> "ZetaProduct":
        return ZetaProduct([*self.factors.items(), *other.factors.items()])

    def __eq__(self, other) -> bool:
        return isinstance(other, ZetaProduct) and self.factors == other.factors

    def expanded(self) -> "ZetaProduct":
        """Every factor replaced by its base pieces; idempotent."""
        return ZetaProduct((piece, k * e) for f, e in self.factors.items()
                           for piece, k in base_pieces(f))

    def same_function(self, other: "ZetaProduct") -> bool:
        """Factor-multiset equality after expansion."""
        return self.expanded() == other.expanded()

    def sorted_factors(self) -> list[tuple[ZetaFactor, int]]:
        return sorted(self.factors.items(), key=lambda fe: fe[0].sort_key())

    def min_numerator_argument(self, s0) -> Fraction | None:
        """Smallest argument at s0 among the numerator zeta-type factors of
        this product, which must be expanded; the global intertwining integral
        converges absolutely iff this exceeds 1.  None when there is no such
        factor, or when one carries an unbound symbolic shift (as in factor_order)."""
        s0 = Fraction(s0)
        nums = [f for f, e in self.factors.items() if e > 0 and f.is_finite()]
        if not nums or any(f.sym for f in nums):
            return None
        return min(f.arg.eval(s0) for f in nums)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        num = [f"{f}" + (f"^{e}" if e != 1 else "")
               for f, e in self.sorted_factors() if e > 0]
        den = [f"{f}" + (f"^{-e}" if e != -1 else "")
               for f, e in self.sorted_factors() if e < 0]
        res = " ".join(num) if num else "1"
        if den:
            res += " / [" + " ".join(den) + "]"
        return res

    __repr__ = __str__


# ---------------------------------------------------------------------------
# order ledgers
# ---------------------------------------------------------------------------


def _zeta_order(a: Fraction) -> int:
    if a == 1:
        return -1
    if a < 0 and a.denominator == 1 and a.numerator % 2 == 0:
        return 1
    return 0


def _gamma_order(a: Fraction) -> int:
    return -1 if a <= 0 and a.denominator == 1 else 0


def _gamma_r_order(a: Fraction) -> int:
    return -1 if a <= 0 and a.denominator == 1 and a.numerator % 2 == 0 else 0


def _dedekind_field_order(a: Fraction) -> int | None:
    # Euler product converges for a > 1; simple pole at 1; opaque below.
    if a > 1:
        return 0
    if a == 1:
        return -1
    return None


def _poch_order(f: ZetaFactor, a: Fraction) -> int:
    if f.arg.slope == 0:
        if 0 in (a + k for k in range(f.n)):
            raise ZeroDivisionError("identically zero pochhammer factor")
        return 0
    return sum(1 for k in range(f.n) if a + k == 0)


_BASE_ORDERS = {
    "zeta": _zeta_order,
    "zetaE": _dedekind_field_order,
    "zetaF": _dedekind_field_order,
    "gamma": _gamma_order,
    "gammaR": _gamma_r_order,
    "gammaC": _gamma_order,
}


def factor_order(f: ZetaFactor, s0, symbols: dict[str, Fraction] | None = None) -> int | None:
    """Order of one factor at s0, summed over its base pieces, or None when
    the analytic facts encoded here do not decide it."""
    s0 = Fraction(s0)
    shift = Fraction(0)
    if f.sym:
        if not symbols or f.sym not in symbols:
            return None
        shift = f.sym_sign * Fraction(symbols[f.sym])
    total = 0
    for piece, e in base_pieces(f):
        a = piece.arg.eval(s0) + shift
        o = _poch_order(piece, a) if piece.kind == "poch" else _BASE_ORDERS[piece.kind](a)
        if o is None:
            return None
        total += e * o
    return total


class OrderEntry(NamedTuple):
    factor: ZetaFactor
    exponent: int
    own_order: int | None      # order of the bare factor; None = undecided

    @property
    def contribution(self) -> int | None:
        return None if self.own_order is None else self.own_order * self.exponent


class OrderReport(NamedTuple):
    """Per-factor order ledger of a ZetaProduct at a rational point."""

    s0: Fraction
    entries: list[OrderEntry]

    @property
    def total(self) -> int | None:
        contributions = [e.contribution for e in self.entries]
        return None if None in contributions else sum(contributions)

    @property
    def classification(self) -> str:
        t = self.total
        if t is None:
            return "Undecided"
        if t == 0:
            return "Regular"
        if t == -1:
            return "SimplePole"
        if t < 0:
            return f"PoleOrder({-t})"
        return f"ZeroOrder({t})"


def order_report(p: ZetaProduct, s0,
                 symbols: dict[str, Fraction] | None = None) -> OrderReport:
    s0 = Fraction(s0)
    return OrderReport(s0, [OrderEntry(f, e, factor_order(f, s0, symbols))
                            for f, e in p.sorted_factors()])


# ---------------------------------------------------------------------------
# convergence verdicts
# ---------------------------------------------------------------------------


def convergence(margin: Fraction, below: str = "NotConvergent") -> str:
    """AbsolutelyConvergent above 0, Boundary at 0, `below` under it: the
    verdict on an Eisenstein margin (value less threshold) and, with
    NeedsContinuation below, on an intertwiner's least step pairing."""
    if margin > 0:
        return "AbsolutelyConvergent"
    return "Boundary" if margin == 0 else below


# ---------------------------------------------------------------------------
# c-functions
# ---------------------------------------------------------------------------


def _gk_product(system: RootSystem, labels, indices) -> ZetaProduct:
    """The product over the roots a at the given indices of
    zeta(<lam, a^vee>)/zeta(<lam, a^vee>+1), lam given by its labels."""
    (ls, li), den = labels
    zs = [AffineForm(Fraction(sum(map(operator.mul, c, ls)), den),
                     Fraction(sum(map(operator.mul, c, li)), den))
          for c in map(system.coroot_coords.__getitem__, indices)]
    return ZetaProduct([(ZetaFactor("zeta", z), 1) for z in zs]
                       + [(ZetaFactor("zeta", z.shift(1)), -1) for z in zs])


class BlockRule:
    """Per-step factor rule for one root length of a rational system: a list
    of (kind, a, b, exponent) templates applied to the step's coroot pairing
    z as kind(a*z + b)^exponent."""

    def __init__(self, templates, variant: str = ""):
        self.templates = [(k, Fraction(a), Fraction(b), int(e))
                          for k, a, b, e in templates]
        self.variant = variant

    def block(self, z: AffineForm) -> list[tuple[ZetaFactor, int]]:
        return [(ZetaFactor(kind, AffineForm(a * z.slope, a * z.intercept + b),
                            variant=self.variant), e)
                for kind, a, b, e in self.templates]


def rational_cfunction(system: RootSystem, rules: dict[Fraction, BlockRule],
                       trace: LambdaTrace) -> ZetaProduct:
    """c-function of a rational (relative) system: the product of per-step
    blocks along the trace's reduced word, each block a function of that
    step's coroot pairing, with the rule selected by the root length."""
    pairs = []
    for step in trace.steps:
        norm2 = system.simple_lengths[step.letter - 1]
        if norm2 not in rules:
            raise KeyError(f"no c-function rule for root length {norm2} in {system.name}")
        pairs += rules[norm2].block(step.pairing)
    return ZetaProduct(pairs)


# ---------------------------------------------------------------------------
# absolute oracle: restriction of a split absolute system to rational data
# ---------------------------------------------------------------------------


class AbsoluteOracle:
    """A split absolute root system fibred over a rational one.

    `kernel` lists the absolute simple roots restricting to zero (the
    anisotropic part); `node_map` sends each remaining absolute node to the
    rational simple root it restricts to, and the two must partition the
    absolute nodes.  Restriction is the induced map on simple-root
    coordinates (orthogonal projection onto the complement of the kernel
    span, read in the rational basis); the fibre sizes must reproduce the
    rational multiplicity table.  `images` holds the index of each absolute
    root's rational image, by absolute root index, or None where it
    restricts to zero.
    """

    def __init__(self, absolute: RootSystem, rational: RootSystem,
                 kernel: list[int], node_map: dict[int, int], source_node: int):
        self.absolute = absolute
        self.rational = rational
        self.kernel = list(kernel)
        self.node_map = dict(node_map)
        self.source_node = source_node
        self._build()
        # s * omega_{source node} - rho; multiplicities are all 1 here
        self.lambda_abs = CoordVector(self.fundamental_weight(source_node),
                                      smul(Fraction(-1), absolute.rho_weighted()))
        self._labels = absolute.labels(self.lambda_abs.slope, self.lambda_abs.icept)

    def _build(self):
        n = self.absolute.rank
        if (sorted(self.kernel + list(self.node_map)) != list(range(1, n + 1))
                or not set(self.node_map.values()) <= set(range(1, self.rational.rank + 1))):
            raise ValueError(f"kernel {self.kernel} and nodes {sorted(self.node_map)} do not "
                             f"partition the absolute nodes 1..{n} onto rational nodes")
        rational = self.rational
        by_coords = {c: k for k, c in enumerate(rational.coords)}
        self.images: list[int | None] = []
        for c in self.absolute.coords:
            coeff = [0] * rational.rank
            for i, j in self.node_map.items():
                coeff[j - 1] += c[i - 1]
            self.images.append(by_coords.get(tuple(coeff)))
            if self.images[-1] is None and any(coeff):
                raise ValueError("restriction image is not a rational root")
        for k, (c, mult) in enumerate(zip(rational.coords, rational.mults)):
            size = self.images.count(k)
            if size != mult:
                raise ValueError(f"fibre over {list(c)} has size {size}, "
                                 f"expected multiplicity {mult}")

    def fundamental_weight(self, node: int) -> Vector:
        """omega_node, whose coefficients c solve C^T c = e_node for the
        Cartan matrix C: they are row `node` of C^-1."""
        inv, den = inverse(self.absolute.cartan)
        return self.absolute.vector(inv[node - 1], den)

    def gk_restricted(self, rational_word) -> ZetaProduct:
        """The Gindikin-Karpelevich c-function over the absolute system for
        (a lift of) a rational Weyl element: the product of
        zeta(<lam, a^vee>)/zeta(<lam, a^vee>+1) over the flipped set, the
        union of fibres over the rational inversion set."""
        flipped = set(self.rational.inversion_indices(tuple(rational_word)))
        return _gk_product(self.absolute, self._labels,
                           [r for r in self.absolute._pos_idx if self.images[r] in flipped])


# ---------------------------------------------------------------------------
# intertwining verdicts
# ---------------------------------------------------------------------------


class IntertwinerVerdict(NamedTuple):
    """Local and global behaviour of M(w) at s0.

    local_status: from the per-step coroot pairings (each simple-reflection
    integral converges iff its pairing is positive).
    global_order: exact order of the finite c-function at s0 when the rule
    table decides it; None otherwise.
    expanded: the c-function, expanded once; a row compares and prints it.
    """

    local_status: str
    min_pairing: Fraction | None
    global_status: str
    global_order: int | None
    cfunction: ZetaProduct
    expanded: ZetaProduct


def intertwiner_verdict(system: RootSystem, rules: dict[Fraction, BlockRule],
                        trace: LambdaTrace, s0) -> IntertwinerVerdict:
    s0 = Fraction(s0)
    mn = min((st.pairing.eval(s0) for st in trace.steps), default=None)
    local = "AbsolutelyConvergent" if mn is None else convergence(mn, "NeedsContinuation")
    c = rational_cfunction(system, rules, trace)
    order = order_report(c, s0).total
    expanded = c.expanded()
    mna = expanded.min_numerator_argument(s0)
    if not trace.word or (mna is not None and mna > 1):
        gstat = "AbsolutelyConvergent"
    elif order is None:
        gstat = "Undecided"
    elif order < 0:
        gstat = f"PoleOrder({-order})"
    else:
        gstat = "DefinedByContinuation" if local == "NeedsContinuation" else "Regular"
    return IntertwinerVerdict(local, mn, gstat, order, c, expanded)
