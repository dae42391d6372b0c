"""Octonions, the 27-dimensional cubic Jordan algebra, and triality.

All arithmetic is exact over a pluggable scalar ring: rationals
(:class:`fractions.Fraction`) or a prime field.  The ring alone normalises
values, through ``red`` (a scalar), ``vec`` (a coordinate vector) and
``scaled`` (an integer matrix over a denominator): over GF(p) they reduce
modulo p; over Q the first two change nothing and ``scaled`` cancels the
common factor.  The algebra code has one path for both.

Over Q the checks run on integers wherever they can.  Every identity the
algebra suites check is homogeneous, so each is checked on a
cleared-denominator integer representative X = d x, with the verdict it has
on x: a rank-one sample is Z = (d y)# = d^2 y# (``rank_one_rep``), E-parts are
solved against the Gram inverse as ``exactnum.inverse`` returns it, the
Jordan product is compared doubled (``symmetric_product``), and triality
matrices are integer matrices over a denominator (``ScaledMatrix``).
Fractions appear where a public function returns a rational value.

The octonion arithmetic the suites repeat is compiled from the structure
constants when an algebra is built (``_kernel_sources``): the product, the
norm as the quadratic form of x x*, the trace-form coordinate (u v*)_0, and
the adjoint slot (y z)* + c x.  Each kernel takes any scalars and stays in
ints on ints; its source text is kept on the algebra (``kernel_sources``).
That x x* is scalar is checked there once, on the symbolic coefficients of
its coordinates 1-7, for every x at once; the norm does not check it per
call.

A triality triple (g1, g2, g3) is checked by the identity
t1(xy) = t2(x) t3(y) on basis pairs, each product against a signed, scaled
column of t1, the norm form of each component, and the 64-entry Gram
identity that ties g1 to t1; once the identity holds, that Gram identity is
the trilinear form on the 512-entry basis cube (``triality_verify``).  The
maps x -> a (b x) and x -> (x b) a of a triple are built one product per
column, as b e_j and e_j b are signed permutations of b.

The octonion multiplication table is produced by three Cayley-Dickson
doublings from the base ring; the doubling parameters are data, with
(-1,-1,-1) giving the definite flavor (norm = sum of eight squares) and
(-1,-1,+1) the split flavor.

H3 is worked on in Hermitian coordinates, never as 3x3 octonion matrices:
``sharp`` reads the norm and adjoint kernels, ``symmetric_product`` the
trace form and adjoint (its docstring says why its diagonal needs no check),
and the cubic norm is an explicit degree-3 polynomial.  The adjoint
identities X o X# = N(X) I and (X#)# = N(X) X are property-tested rather
than assumed, since they pin these formulas against each other.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import _numerators, inverse, is_odd_prime, nullspace


class RationalScalars:
    """Exact rational scalar ring.

    Integers stay plain ints (they interoperate exactly with Fraction and
    are an order of magnitude faster); Fractions appear only on division.
    Values need no reduction: ``red`` returns its argument and ``vec`` only
    makes a tuple.
    """

    vec = staticmethod(tuple)

    @staticmethod
    def red(x):
        return x

    def of(self, x):
        if isinstance(x, int):
            return x
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def scaled(self, mat: list, den: int) -> "ScaledMatrix":
        """mat/den with the common factor of den and every entry removed."""
        g = den
        for row in mat:
            for v in row:
                g = math.gcd(g, v)
                if g == 1:
                    return ScaledMatrix(mat, den)
        if g > 1:
            return ScaledMatrix([[v // g for v in row] for row in mat], den // g)
        return ScaledMatrix(mat, den)

    def draws(self, rng: random.Random, count: int, lo=-3, hi=3) -> tuple:
        return _below(rng, hi - lo + 1, count, lo)


class PrimeFieldScalars:
    """Integers modulo an odd prime, represented as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_odd_prime(p):
            raise ValueError("need an odd prime")
        self.p = p

    def red(self, x) -> int:
        return x % self.p

    def vec(self, xs) -> tuple:
        p = self.p
        return tuple([x % p for x in xs])

    def of(self, x) -> int:
        """The residue of an int, or of a/b as a * b^-1 (b prime to p)."""
        if isinstance(x, int):
            return x % self.p
        f = Fraction(x)
        return f.numerator * self.inv(f.denominator) % self.p

    def inv(self, x) -> int:
        x = x % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def scaled(self, mat: list, den: int) -> "ScaledMatrix":
        """mat/den as one residue matrix over the denominator 1."""
        p = self.p
        inv = self.inv(den)
        return ScaledMatrix([[v * inv % p for v in row] for row in mat], 1)

    def draws(self, rng: random.Random, count: int, lo=None, hi=None) -> tuple:
        return _below(rng, self.p, count)


def _below(rng: random.Random, n: int, count: int, lo: int = 0) -> tuple:
    """count draws of lo + rng.randrange(n): getrandbits(n.bit_length()),
    drawn again until below n, as random.Random draws below n, so the values
    and the generator's state after them are randrange's and randint's."""
    bits, k, out = rng.getrandbits, n.bit_length(), []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(lo + r)
    return tuple(out)


def _build_table(gammas: Sequence[int]) -> dict[tuple[int, int], tuple[int, int]]:
    """Structure constants e_i e_j = sign * e_k by iterated doubling.  With
    (a,b)(c,d) = (ac + g d* b, d a + b c*), e_0* = e_0 and e_q* = -e_q for
    q > 0, the four blocks read off the smaller table are

        (e_p,0)(e_q,0) = (e_p e_q, 0),    (e_p,0)(0,e_q) = (0, e_q e_p),
        (0,e_p)(e_q,0) = (0, e_p e_q*),   (0,e_p)(0,e_q) = (g e_q* e_p, 0)."""
    table, dim = {(0, 0): (0, 1)}, 1
    for g in gammas:
        new = {}
        for i in range(2 * dim):
            for j in range(2 * dim):
                (b, p), (d, q) = divmod(i, dim), divmod(j, dim)
                k, sg = table[(q, p) if d else (p, q)]
                if b:
                    sg *= (g if d else 1) * (1 if q == 0 else -1)
                new[i, j] = (k + dim * (b ^ d), sg)
        table, dim = new, 2 * dim
    return table


_CONJ = (1,) + (-1,) * 7   # x* = diag(1, -1, ..., -1) x
_UPPER = [(i, j) for i in range(8) for j in range(i + 1, 8)]


def _signed(terms) -> str:
    """A signed sum of (sign, term) pairs as source text."""
    return " ".join(f"{'+' if sg > 0 else '-'} {t}" for sg, t in terms).lstrip("+ ")


def _source(name: str, octonions: str, value: str, scalar: str = "") -> str:
    """def name([scalar,] *octonions), each octonion parameter (one letter)
    unpacked into its eight coordinates, returning value."""
    params = ([scalar] if scalar else []) + list(octonions)
    lines = [f"def {name}({', '.join(params)}):"]
    lines += [f"    {', '.join(f'{x}{i}' for i in range(8))} = {x}" for x in octonions]
    return "\n".join(lines + [f"    return {value}", ""])


def _kernel_sources(table: dict[tuple[int, int], tuple[int, int]]) -> dict[str, str]:
    """The source text of the octonion kernels, each compiled from the
    structure constants: every output coordinate is one signed sum of
    products, with no per-term dispatch.  They take any scalars and stay in
    ints on ints.

        product(x, y)         x y
        norm(x)               N(x) = x x*, a quadratic form in x
        trace_form(u, v)      (u v*)_0, half of tr(u v*)
        adjoint(c, x, y, z)   (y z)* + c x: sharp's slot for c = -c_i, and a
                              half of a Jordan product slot

    Coordinates 1-7 of x x* must vanish for every x: each is a quadratic
    form in x whose coefficients are read off the table, and a nonzero one
    raises ValueError naming its coordinate."""
    prods: list[list[tuple[int, int, int]]] = [[] for _ in range(8)]
    for (i, j), (k, sg) in sorted(table.items()):
        prods[k].append((sg, i, j))
    # x x* coordinate by coordinate: coefficient of x_i x_j, i <= j
    square: list[dict[tuple[int, int], int]] = [{} for _ in range(8)]
    for k in range(8):
        for sg, i, j in prods[k]:
            key = (min(i, j), max(i, j))
            square[k][key] = square[k].get(key, 0) + sg * _CONJ[j]
    for k in range(1, 8):
        stray = [f"{v} x{i} x{j}" for (i, j), v in square[k].items() if v]
        if stray:
            raise ValueError(f"x x* is not scalar: coordinate {k} has the term {stray[0]}")
    norm = [(v, f"{abs(v)} * " * (abs(v) != 1) + f"x{i} * x{j}")
            for (i, j), v in square[0].items() if v]

    def coords(terms) -> str:
        return f"({', '.join(_signed(terms(k)) for k in range(8))})"

    return {
        "product": _source("product", "xy", coords(
            lambda k: [(sg, f"x{i} * y{j}") for sg, i, j in prods[k]])),
        "norm": _source("norm", "x", _signed(norm)),
        "trace_form": _source("trace_form", "uv", _signed(
            [(sg * _CONJ[j], f"u{i} * v{j}") for sg, i, j in prods[0]])),
        "adjoint": _source("adjoint", "xyz", coords(
            lambda k: [(sg * _CONJ[k], f"y{i} * z{j}") for sg, i, j in prods[k]]
            + [(1, f"c * x{k}")]), scalar="c"),
    }


class OctonionAlgebra:
    """An 8-dimensional composition algebra over a scalar ring.

    Elements are plain 8-tuples of scalars, interpreted relative to one
    algebra object; all operations are methods of that object, which is the
    guard against mixing flavors.
    """

    def __init__(self, scalars, gammas: Sequence[int], flavor: str):
        if len(gammas) != 3:
            raise ValueError("three doubling parameters define an octonion algebra")
        self.scalars = scalars
        self.gammas = tuple(gammas)
        self.flavor = flavor
        self.table = _build_table(gammas)
        self.kernel_sources = _kernel_sources(self.table)
        kernels: dict = {}
        for src in self.kernel_sources.values():
            exec(src, kernels)
        self._product, self._norm, self._trace_form, self._adjoint = (
            kernels[name] for name in self.kernel_sources)
        # b e_j and e_j b as signed permutations of b: (b e_j)_k = sg b_i
        # for e_i e_j = sg e_k, each k once; right[j][k] = (i, sg)
        self._right = [[(0, 0)] * 8 for _ in range(8)]
        self._left = [[(0, 0)] * 8 for _ in range(8)]
        for (i, j), (k, sg) in self.table.items():
            self._right[j][k] = (i, sg)
            self._left[i][k] = (j, sg)
        # norm signature: N(e_k) for each basis vector
        self.signature = tuple(self._basis_norm(k) for k in range(8))
        # e_i e_i = sq_sign[i] * e_0; gives tr(xy) = 2 sum sq_sign[i] x_i y_i
        self.sq_sign = tuple(self.table[(k, k)][1] for k in range(8))

    def _basis_norm(self, k: int) -> int:
        # e_k e_k^* = N(e_k) 1; for doubled bases this is +-1
        kk, sg = self.table[(k, k)]
        assert kk == 0
        return sg if k == 0 else -sg

    def of_coords(self, coords) -> tuple:
        if len(coords) != 8:
            raise ValueError("octonions have eight coordinates")
        return tuple(self.scalars.of(c) for c in coords)

    def zero(self) -> tuple:
        z = self.scalars.of(0)
        return (z,) * 8

    def basis(self, k: int) -> tuple:
        return tuple(self.scalars.of(int(i == k)) for i in range(8))

    def mul(self, x, y) -> tuple:
        return self.scalars.vec(self._product(x, y))

    def conj(self, x) -> tuple:
        return self.scalars.vec([x[0]] + [-c for c in x[1:]])

    def trace(self, x):
        return self.scalars.red(x[0] + x[0])

    def norm(self, x):
        """N(x) = x x*, read off the compiled quadratic form: that the other
        seven coordinates of x x* vanish was checked on the structure
        constants when the algebra was built."""
        return self.scalars.red(self._norm(x))

    def trilinear(self, x1, x2, x3):
        """tr(x1 (x2 x3)); agrees with tr((x1 x2) x3) (tested, not assumed)."""
        return self.trace(self.mul(x1, self.mul(x2, x3)))

    def add(self, x, y) -> tuple:
        return self.scalars.vec([a + b for a, b in zip(x, y)])

    def scale(self, c, x) -> tuple:
        c = self.scalars.of(c)
        return self.scalars.vec([c * a for a in x])

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def random(self, rng: random.Random, lo=-3, hi=3) -> tuple:
        return self.scalars.draws(rng, 8, lo, hi)

    def random_imaginary(self, rng: random.Random) -> tuple:
        return (self.scalars.of(0),) + self.scalars.draws(rng, 7, -2, 2)

    def _cayley(self, rng: random.Random) -> tuple[tuple, int]:
        """A norm-1 element (1-u)(1+u)^{-1} = (1 - 2u - N(u)) / (1 + N(u)),
        the Cayley transform of a trace-0 u, as (numerator, denominator) with
        an integral numerator; its norm is checked as N(num) = den^2
        (degree 2)."""
        ring = self.scalars
        while True:
            u = self.random_imaginary(rng)
            n = self.norm(u)
            den = ring.red(1 + n)
            if den != 0:
                break
        num = ring.vec([1 - n] + [-2 * c for c in u[1:]])
        assert self.norm(num) == ring.red(den * den)
        return num, den


def split_octonions(gammas, scalars=None) -> OctonionAlgebra:
    return OctonionAlgebra(scalars or RationalScalars(), gammas, "split")


# ---------------------------------------------------------------------------
# the cubic Jordan algebra H3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanElement:
    """(c1,c2,c3; x1,x2,x3): the Hermitian 3x3 layout with x3 in the (1,2)
    slot, x2* in the (1,3) slot and x1 in the (2,3) slot."""

    c: tuple
    x: tuple  # three octonion coordinate 8-tuples

    def is_zero(self) -> bool:
        return (all(v == 0 for v in self.c)
                and all(all(u == 0 for u in v) for v in self.x))


class JordanAlgebra:
    def __init__(self, oct_alg: OctonionAlgebra):
        self.oct = oct_alg
        self.scalars = oct_alg.scalars

    # -- construction ------------------------------------------------------

    def element(self, c, x) -> JordanElement:
        return JordanElement(tuple(self.scalars.of(v) for v in c),
                             tuple(self.oct.of_coords(v) for v in x))

    def zero(self) -> JordanElement:
        z = self.oct.zero()
        return JordanElement((self.scalars.of(0),) * 3, (z, z, z))

    def identity(self) -> JordanElement:
        z = self.oct.zero()
        one = self.scalars.of(1)
        return JordanElement((one, one, one), (z, z, z))

    def diag(self, c1, c2, c3) -> JordanElement:
        z = self.oct.zero()
        return JordanElement((self.scalars.of(c1), self.scalars.of(c2),
                              self.scalars.of(c3)), (z, z, z))

    def e11(self) -> JordanElement:
        return self.diag(1, 0, 0)

    def basis(self) -> list[JordanElement]:
        """The 27 standard coordinates: three diagonal, three octonion slots."""
        out = [self.diag(*(int(i == k) for i in range(3))) for k in range(3)]
        z = self.oct.zero()
        for slot in range(3):
            for k in range(8):
                xs = [z, z, z]
                xs[slot] = self.oct.basis(k)
                out.append(JordanElement((self.scalars.of(0),) * 3, tuple(xs)))
        return out

    def coords(self, el: JordanElement) -> tuple:
        return tuple(el.c) + el.x[0] + el.x[1] + el.x[2]

    def from_coords(self, vec) -> JordanElement:
        vec = list(vec)
        return self.element(vec[:3], (vec[3:11], vec[11:19], vec[19:27]))

    def random(self, rng: random.Random) -> JordanElement:
        d = self.scalars.draws(rng, 27, -2, 2)
        return JordanElement(d[:3], (d[3:11], d[11:19], d[19:27]))

    # -- linear structure ----------------------------------------------------

    def add(self, a: JordanElement, b: JordanElement) -> JordanElement:
        return JordanElement(self.scalars.vec([u + v for u, v in zip(a.c, b.c)]),
                             tuple(self.oct.add(u, v) for u, v in zip(a.x, b.x)))

    def sub(self, a: JordanElement, b: JordanElement) -> JordanElement:
        return self.add(a, self.scale(-1, b))

    def scale(self, k, a: JordanElement) -> JordanElement:
        k = self.scalars.of(k)
        return JordanElement(self.scalars.vec([k * v for v in a.c]),
                             tuple(self.oct.scale(k, v) for v in a.x))

    # -- multiplicative structure ---------------------------------------------

    def trace(self, a: JordanElement):
        return self.scalars.red(a.c[0] + a.c[1] + a.c[2])

    def jordan_product(self, a: JordanElement, b: JordanElement) -> JordanElement:
        """(ab + ba)/2, back in Hermitian coordinates, each coordinate a
        value of the scalar ring (an integral rational is an int)."""
        half = self.scale(self.scalars.inv(self.scalars.of(2)), self.symmetric_product(a, b))
        return self.element(half.c, half.x)

    def symmetric_product(self, a: JordanElement, b: JordanElement) -> JordanElement:
        """ab + ba = 2 (a o b) in Hermitian coordinates: the Jordan product
        with its denominator cleared, integral on integral a, b.  For
        a = (c; x), b = (d; y) and (i, j, k) a cyclic order of (1, 2, 3),
        diagonal i is 2 (c_i d_i + (x_j y_j*)_0 + (x_k y_k*)_0) and slot i is
        (c_j + c_k) y_i + (d_j + d_k) x_i + (x_j y_k)* + (y_j x_k)*.

        The matrix diagonal is scalar with no check here: its imaginary part
        comes from u v* + v u* and u* v + v* u, the polarizations of x x* and
        of x* x = x x* (as x* = 2 x_0 - x), and coordinates 1-7 of x x*
        vanish by the build-time check of ``_kernel_sources``."""
        form, adjoint, vec = self.oct._trace_form, self.oct._adjoint, self.scalars.vec
        c, x, d, y = a.c, a.x, b.c, b.x
        t = [form(u, v) for u, v in zip(x, y)]
        cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        return JordanElement(
            vec([2 * (c[i] * d[i] + t[j] + t[k]) for i, j, k in cyc]),
            tuple(vec(map(operator.add, adjoint(c[j] + c[k], y[i], x[j], y[k]),
                          adjoint(d[j] + d[k], x[i], y[j], x[k])))
                  for i, j, k in cyc))

    def square(self, a: JordanElement) -> JordanElement:
        return self.jordan_product(a, a)

    def sharp(self, a: JordanElement) -> JordanElement:
        """The quadratic adjoint in coordinates: c1# = c2 c3 - N(x1) and
        x1# = (x2 x3)* - c1 x1, cyclically."""
        norm, adjoint = self.oct._norm, self.oct._adjoint
        vec, of = self.scalars.vec, self.scalars.of
        c1, c2, c3 = a.c
        x1, x2, x3 = a.x
        cs = (c2 * c3 - norm(x1), c1 * c3 - norm(x2), c1 * c2 - norm(x3))
        return JordanElement(vec(cs), (vec(adjoint(of(-c1), x1, x2, x3)),
                                       vec(adjoint(of(-c2), x2, x3, x1)),
                                       vec(adjoint(of(-c3), x3, x1, x2))))

    def norm(self, a: JordanElement):
        """N(X) = c1 c2 c3 - sum c_i N(x_i) + tr(x1 (x2 x3))."""
        o = self.oct
        val = a.c[0] * a.c[1] * a.c[2]
        for ci, xi in zip(a.c, a.x):
            val -= ci * o._norm(xi)
        val += o.trilinear(a.x[0], a.x[1], a.x[2])
        return self.scalars.red(val)

    def rank(self, a: JordanElement) -> int:
        if a.is_zero():
            return 0
        if self.sharp(a).is_zero():
            return 1
        if self.norm(a) == 0:
            return 2
        return 3

    def trace_pairing(self, a: JordanElement, b: JordanElement):
        """(X, Y) = sum c_i(X) c_i(Y) + sum tr(x_i(X) x_i(Y)^*), where
        tr(u v*) = 2 (u v*)_0."""
        val = sum(map(operator.mul, a.c, b.c))
        return self.scalars.red(val + 2 * sum(map(self.oct._trace_form, a.x, b.x)))


def rank_one_rep(jalg: JordanAlgebra,
                 rng: random.Random) -> tuple[JordanElement, JordanElement, int]:
    """(Z, Y, d) for a pseudorandom rank-one sample Z = Y# drawn from rng.

    Y = d y is an integral rank-two element: N(y) is affine in c1 once the
    other coordinates are fixed, so c1 is solved for to force N(y) = 0, and
    d = dN/dc1 is its cleared denominator.  Then Z# = N(Y) Y = 0 while
    Z = d^2 y# != 0.  The checks N(Y) = 0 (degree 3), Z != 0 (degree 2) and
    Z# = 0 (degree 4) have the verdicts they have on y."""
    o = jalg.oct
    for _ in range(200):
        y = jalg.random(rng)
        d = jalg.scalars.red(y.c[1] * y.c[2] - o.norm(y.x[0]))  # dN/dc1
        if d == 0:
            continue
        rest = jalg.element((0, y.c[1], y.c[2]), y.x)
        # c1 = -N(rest)/d, so d y has first coordinate -N(rest)
        dy = jalg.scale(d, rest)
        dy = JordanElement((jalg.scalars.red(-jalg.norm(rest)),) + dy.c[1:], dy.x)
        assert jalg.norm(dy) == 0
        z = jalg.sharp(dy)
        if not z.is_zero():
            assert jalg.sharp(z).is_zero()
            return z, dy, d
    raise RuntimeError("rank-one sampler failed to produce a sample")


# ---------------------------------------------------------------------------
# cubic etale subalgebras
# ---------------------------------------------------------------------------


class CubicEtale:
    """An embedded cubic etale subalgebra E of H3 and its trace-pairing
    complement V_E.

    descriptors: ("split3",) for Q^3 diagonally, ("QxF", d) for Q x Q(sqrt d),
    ("field", (a0,a1,a2)) for Q[t]/(t^3 + a2 t^2 + a1 t + a0) via a symmetric
    rational companion found by bounded search.
    """

    def __init__(self, jalg: JordanAlgebra, descriptor):
        self.jordan = jalg
        self.descriptor = tuple(descriptor)
        self.basis_elements = self._build()
        # (b, e_k) for each E-basis element b and standard coordinate e_k:
        # the trace pairing with b as a row acting on coordinates
        basis27 = jalg.basis()
        self._rows = [[jalg.trace_pairing(b, e) for e in basis27]
                      for b in self.basis_elements]
        self._gram_inv = ScaledMatrix(*inverse([self.pairings(b) for b in self.basis_elements]))
        self.ve_basis = self._complement()

    def _build(self) -> list[JordanElement]:
        j = self.jordan
        kind = self.descriptor[0]
        if kind == "split3":
            return [j.diag(1, 0, 0), j.diag(0, 1, 0), j.diag(0, 0, 1)]
        if kind == "QxF":
            d = Fraction(self.descriptor[1])
            if d <= 0 or d.denominator != 1:
                raise ValueError("QxF needs a positive integer discriminant parameter")
            if math.isqrt(d.numerator) ** 2 == d.numerator:
                raise ValueError("QxF discriminant must be a nonsquare")
            u = self._imaginary_of_norm(d.numerator - 1)
            z = j.oct.zero()
            # (1,0) -> diag(1,0,0); (0,1) -> diag(0,1,1); sqrt(d)-part has
            # x2 = x3 = 0 and squares to d on the F-component.
            e3 = JordanElement((j.scalars.of(0), j.scalars.of(1), j.scalars.of(-1)),
                               (u, z, z))
            return [j.diag(1, 0, 0), j.diag(0, 1, 1), e3]
        if kind == "field":
            return self._field_embedding(self.descriptor[1])
        raise ValueError(f"unknown etale descriptor {kind!r}")

    def _imaginary_of_norm(self, n: int) -> tuple:
        """A trace-zero integral octonion of norm n >= 0 (definite flavor):
        n = a^2 + b^2 + c^2 + e^2 on e1..e4, with a, b and c each counted
        down from its largest value and e read off the remainder.  By
        Lagrange's four-square theorem the search always ends."""
        for a in range(math.isqrt(n), -1, -1):
            for b in range(math.isqrt(n - a * a), -1, -1):
                for c in range(math.isqrt(n - a * a - b * b), -1, -1):
                    rem = n - a * a - b * b - c * c
                    e = math.isqrt(rem)
                    if e * e == rem:
                        return self.jordan.oct.of_coords((0, a, b, c, e, 0, 0, 0))

    def _field_embedding(self, minpoly) -> list[JordanElement]:
        """Search a symmetric integer companion (trace, second coefficient,
        determinant matching the monic cubic) at desk scale."""
        a0, a1, a2 = (Fraction(c) for c in minpoly)
        j = self.jordan
        from itertools import product
        bound = 2
        rng = range(-bound, bound + 1)
        for d1, d2, d3, o1, o2, o3 in product(rng, repeat=6):
            if d1 + d2 + d3 != -a2:
                continue
            s2 = d1 * d2 + d1 * d3 + d2 * d3 - o1 * o1 - o2 * o2 - o3 * o3
            if s2 != a1:
                continue
            det = d1 * d2 * d3 - d1 * o1 * o1 - d2 * o2 * o2 - d3 * o3 * o3 \
                + 2 * o1 * o2 * o3
            if det != -a0:
                continue
            m = j.element((d1, d2, d3),
                          ([o1] + [0] * 7, [o2] + [0] * 7, [o3] + [0] * 7))
            return [j.identity(), m, j.square(m)]
        raise ValueError("no symmetric rational companion found at desk scale")

    def embed(self, coeffs) -> JordanElement:
        j = self.jordan
        out = j.zero()
        for c, b in zip(coeffs, self.basis_elements):
            out = j.add(out, j.scale(c, b))
        return out

    def _complement(self) -> list[JordanElement]:
        """Exact nullspace of the 3x27 pairing matrix with the E-basis."""
        j = self.jordan
        out = [j.from_coords(v) for v in nullspace(self._rows)]
        assert len(out) == 27 - len(self.basis_elements)
        return out

    def pairings(self, el: JordanElement) -> tuple:
        """The trace pairings (el, b) with the E-basis elements b."""
        coords = self.jordan.coords(el)
        return tuple(sum(map(operator.mul, row, coords)) for row in self._rows)

    def coefficients(self, el: JordanElement) -> tuple:
        """The E-coefficients of el, solved against the Gram inverse of the
        E-basis: the E-part of el along J = E + V_E is embed(coefficients)."""
        inv = self._gram_inv
        rhs = self.pairings(el)
        return tuple(Fraction(sum(map(operator.mul, row, rhs)), inv.den) for row in inv.mat)

    def project(self, el: JordanElement) -> tuple[tuple, JordanElement]:
        """Split x = x_E + x_V along J = E + V_E; returns (E-coefficients,
        V_E component)."""
        coeffs = self.coefficients(el)
        return coeffs, self.jordan.sub(el, self.embed(coeffs))

    def in_ve(self, el: JordanElement) -> bool:
        return not any(self.pairings(el))


# ---------------------------------------------------------------------------
# Freudenthal space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreudenthalElement:
    a: Fraction
    b: JordanElement
    c: JordanElement
    d: Fraction


def freudenthal_r0(jalg: JordanAlgebra, z: JordanElement,
                   lam=Fraction(1)) -> FreudenthalElement:
    """lam * (1, -Z, Z#, -N(Z))."""
    lam = Fraction(lam)
    return FreudenthalElement(lam, jalg.scale(-lam, z),
                              jalg.scale(lam, jalg.sharp(z)),
                              -lam * jalg.norm(z))


def we_projection(w: FreudenthalElement, etale: CubicEtale):
    """Split (a, b, c, d) along W_J = W_E + V_E^2."""
    bE, bV = etale.project(w.b)
    cE, cV = etale.project(w.c)
    return (w.a, bE, cE, w.d), (bV, cV)


def we_part_is_zero(we_part) -> bool:
    a, bE, cE, d = we_part
    return a == 0 and d == 0 and all(c == 0 for c in bE) and all(c == 0 for c in cE)


# ---------------------------------------------------------------------------
# triality
# ---------------------------------------------------------------------------
#
# Triality components are orthogonal 8x8 matrices with rational entries of
# bounded denominator.  They are carried as (integer matrix, denominator)
# pairs so that the whole verification runs on machine/big integers; the
# scalar ring's ``scaled`` normalises each pair (over a prime field the
# denominator is 1 and entries are residues mod p).

@dataclass
class ScaledMatrix:
    mat: list            # square list of int rows (8x8 for triality)
    den: int


def _smat_mul(ring, a: ScaledMatrix, b: ScaledMatrix) -> ScaledMatrix:
    cols = list(zip(*b.mat))
    out = [[sum(map(operator.mul, row, col)) for col in cols] for row in a.mat]
    return ring.scaled(out, a.den * b.den)


def _smat_product(ring, factors: list) -> ScaledMatrix:
    """The product of a nonempty list of scaled matrices."""
    out = factors[0]
    for m in factors[1:]:
        out = _smat_mul(ring, out, m)
    return out


def _reflection_pair(o: OctonionAlgebra, av, bv, na, nb) -> ScaledMatrix:
    """s_a s_b from cleared coordinates av, bv of norms na, nb != 0, where
    s_c(x) = x - ((x,c)/N(c)) c and (x, c) = 2 sum_j eta_j x_j c_j in the CD
    basis (s_c is unchanged by scaling c).  Times na nb, entry (i, j) is
    na nb [i = j] - 2 nb a_i eta_j a_j - 2 na b_i eta_j b_j
    + 4 (sum_r eta_r a_r b_r) a_i eta_j b_j."""
    eta = o.signature
    ab = 4 * sum(e * x * y for e, x, y in zip(eta, av, bv))
    ea = [-2 * nb * e * v for e, v in zip(eta, av)]
    eb = [e * v for e, v in zip(eta, bv)]
    mat = [[ai * x + (ab * ai - 2 * na * bi) * y for x, y in zip(ea, eb)]
           for ai, bi in zip(av, bv)]
    for i in range(8):
        mat[i][i] += na * nb
    return o.scalars.scaled(mat, na * nb)


def _mult_pair(o: OctonionAlgebra, a, b, side: str) -> ScaledMatrix:
    """x -> a (b x) on the left, x -> (x b) a on the right, for a = av/ad
    and b = bv/bd given by cleared coordinates: column j is one product,
    with b e_j or e_j b, a signed permutation of b."""
    (av, ad), (bv, bd) = a, b
    prod = o._product
    if side == "left":
        cols = [prod(av, [sg * bv[i] for i, sg in perm]) for perm in o._right]
    else:
        cols = [prod([sg * bv[i] for i, sg in perm], av) for perm in o._left]
    return o.scalars.scaled([list(row) for row in zip(*cols)], ad * bd)


def hat(m: ScaledMatrix) -> ScaledMatrix:
    """hat(t)(x) = (t(x*))*: conjugate by diag(1,-1,...,-1)."""
    sg = [1] + [-1] * 7
    return ScaledMatrix([[sg[i] * sg[j] * m.mat[i][j] for j in range(8)]
                         for i in range(8)], m.den)


@dataclass
class TrialityTriple:
    """(g1, g2, g3) with t1(xy) = t2(x) t3(y) for the unhatted t1 = raw_t1;
    g1 = hat(t1) so that the triple preserves the trilinear form."""

    g1: ScaledMatrix
    g2: ScaledMatrix
    g3: ScaledMatrix
    raw_t1: ScaledMatrix


def triality_triple(o: OctonionAlgebra, pairs) -> TrialityTriple:
    """t1 = prod s_a s_b, t2 = prod l_a l_{b*}, t3 = prod r_a r_{b*} for the
    listed (a, b); requires every norm nonzero and prod N(a)N(b) = 1."""
    ring = o.scalars
    # prod N(a)N(b) = num/den, from the cleared coordinates: N(v/d) = N(v)/d^2
    num = den = 1
    f1, f2, f3 = [], [], []
    for a, b in pairs:
        (av, ad), (bv, bd) = _numerators(a), _numerators(b)
        na, nb = o.norm(av), o.norm(bv)
        if na == 0 or nb == 0:
            raise ValueError("triality generators need nonzero norms")
        num, den = num * na * nb, den * (ad * bd) ** 2
        bc = (o.conj(bv), bd)
        f1.append(_reflection_pair(o, av, bv, na, nb))
        f2.append(_mult_pair(o, (av, ad), bc, "left"))
        f3.append(_mult_pair(o, (av, ad), bc, "right"))
    if ring.red(num - den) != 0:
        raise ValueError("product of generator norms must be 1")
    t1 = _smat_product(ring, f1)
    return TrialityTriple(hat(t1), _smat_product(ring, f2), _smat_product(ring, f3), t1)


def triality_verify(o: OctonionAlgebra, triple: TrialityTriple) -> bool:
    """Check t1(xy) = t2(x) t3(y) on all basis pairs, preservation of the
    norm form by each component (via its Gram matrix), and the Gram identity
    g1^T diag(sq_sign) t1 = g1.den d1 diag(sq_sign) that ties g1 to t1.

    The Gram identity stands for invariance of the trilinear form under the
    hatted triple, tr(g1(e_c) (t2(e_j) t3(e_k))) = tr(e_c (e_j e_k)) on the
    512 entries of the basis cube.  The identity check runs first; once it
    has passed, t2(e_j) t3(e_k) = sg t1(e_m) whenever e_j e_k = sg e_m, so
    cube entry (c; j, k) reads sg tr(g1(e_c) t1(e_m)) = sg tr(e_c e_m).
    Since e_0 e_m = e_m, every m is reached: the cube holds iff
    tr(g1(e_c) t1(e_m)) = tr(e_c e_m) = 2 sq_sign_c [c = m] for all c, m,
    and with tr(x y) = 2 sum_r sq_sign_r x_r y_r that is the Gram identity
    on the integer matrices, halved and times g1.den d1.  The argument holds
    mod p too, where every denominator is 1 and 2 is a unit.

    All checks run on the cleared-denominator integer matrices, comparing
    cross-multiplied sides after a ``vec`` of the scalar ring: each product
    t2(e_i) t3(e_j) against its signed, scaled column of t1, and each block
    of Gram entries, read off the compiled trace form, against zero."""
    vec, form = o.scalars.vec, o._trace_form
    t1, t2, t3, g1 = triple.raw_t1, triple.g2, triple.g3, triple.g1
    cols1, cols2, cols3 = (list(zip(*m.mat)) for m in (t1, t2, t3))
    # identity on the basis square: t1(e_i e_j) = sg t1(e_k) is a signed
    # column of t1, and d1 t2(e_i) t3(e_j) = sg d2 d3 t1(e_k) is compared
    # with g = gcd(d1, d2 d3) divided out; the product is bilinear, so d1/g
    # scales the columns of t3 once
    g = math.gcd(t1.den, t2.den * t3.den)
    scale = t2.den * t3.den // g
    signed = {sg: [vec([sg * scale * a for a in col]) for col in cols1] for sg in (1, -1)}
    if t1.den != g:
        cols3 = [[t1.den // g * v for v in col] for col in cols3]
    prod = o._product
    for (i, j), (k, sg) in o.table.items():
        if vec(prod(cols2[i], cols3[j])) != signed[sg][k]:
            return False
    # norm preservation: M^T diag(eta) M = den^2 diag(eta), upper triangle;
    # the trace form (u v*)_0 = sum_r eta_r u_r v_r gives each entry
    eta = o.signature
    for m in (g1, t2, t3):
        cols, sq = list(zip(*m.mat)), m.den * m.den
        if any(vec([form(u, u) - e * sq for e, u in zip(eta, cols)]
                   + [form(cols[i], cols[j]) for i, j in _UPPER])):
            return False
    # the Gram identity, row c: sum_r sq_sign_r g1(e_c)_r t1(e_m)_r for each
    # column m of t1, which is the trace form of g1(e_c)* and t1(e_m)
    sq, scale = o.sq_sign, g1.den * t1.den
    gram = []
    for c, col in enumerate(zip(*g1.mat)):
        u = [a * s for a, s in zip(col, _CONJ)]
        gram += [form(u, col1) for col1 in cols1]
        gram[c - 8] -= sq[c] * scale
    return not any(vec(gram))


def random_triality_pairs(o: OctonionAlgebra, rng: random.Random) -> list:
    """One or two random generator pairs with each N(a)N(b) = 1, via
    b = c a*/N(a) for a random norm-1 factor c.

    c = num/den comes from the Cayley transform, so b = (num a*)/(den N(a))
    has an integral numerator, and N(a)N(b) = 1 is checked as
    N(num a*) = den^2 N(a) (degree 2)."""
    ring = o.scalars
    pairs = []
    for _ in range(rng.randint(1, 2)):
        while True:
            a = o.random(rng, -2, 2)
            na = o.norm(a)
            if na != 0:
                break
        num, den = o._cayley(rng)
        bnum = o.mul(num, o.conj(a))
        assert ring.red(o.norm(bnum) - den * den * na) == 0
        inv = ring.inv(ring.red(den * na))
        pairs.append((a, ring.vec([v * inv for v in bnum])))
    return pairs
