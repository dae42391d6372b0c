"""Octonions, the 27-dimensional cubic Jordan algebra, and triality.

All arithmetic is exact over a pluggable scalar ring: rationals
(:class:`fractions.Fraction`) or a prime field.  The octonion multiplication
table is produced by three Cayley-Dickson doublings from the base ring; the
doubling parameters are data, with (-1,-1,-1) giving the definite flavor
(norm = sum of eight squares) and (-1,-1,+1) the split flavor.

The quadratic adjoint on H3 is defined through the matrix square:

    X# = X.X - tr(X) X + sigma(X) I,   sigma = (tr(X)^2 - tr(X.X)) / 2,

and the cubic norm by an explicit degree-3 polynomial; the classical adjoint
identities X o X# = N(X) I and (X#)# = N(X) X are property-tested rather
than assumed, since they pin the two formulas against each other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import nullspace, solve


class RationalScalars:
    """Exact rational scalar ring.

    Integers stay plain ints (they interoperate exactly with Fraction and
    are an order of magnitude faster); Fractions appear only on division.
    """

    name = "Q"
    characteristic = 0

    def of(self, x):
        if isinstance(x, int):
            return x
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(x)

    def randint(self, rng: random.Random, lo=-3, hi=3):
        return rng.randint(lo, hi)


class PrimeFieldScalars:
    """Integers modulo an odd prime, represented as ints in [0, p)."""

    characteristic = None

    def __init__(self, p: int):
        if p < 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("need an odd prime")
        self.p = p
        self.name = f"GF({p})"
        self.characteristic = p

    def of(self, x):
        return int(x) % self.p

    def inv(self, x):
        x = x % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def randint(self, rng: random.Random, lo=None, hi=None):
        return rng.randrange(self.p)


def _build_table(gammas: Sequence[int]) -> dict[tuple[int, int], tuple[int, int]]:
    """Structure constants e_i e_j = sign * e_k by iterated doubling,
    using (a,b)(c,d) = (ac + g d* b, d a + b c*)."""
    table = {(0, 0): (0, 1)}
    dim = 1
    for g in gammas:
        def conj(v, dm):
            return [v[0]] + [-x for x in v[1:dm]]

        def mul(x, y, dm, tbl):
            out = [0] * dm
            for (i, j), (k, sg) in tbl.items():
                if x[i] and y[j]:
                    out[k] += sg * x[i] * y[j]
            return out

        dim2 = dim * 2
        new = {}
        for i in range(dim2):
            a = [int(t == i) for t in range(dim)]
            b = [int(t == i - dim) for t in range(dim)]
            for j in range(dim2):
                c = [int(t == j) for t in range(dim)]
                d = [int(t == j - dim) for t in range(dim)]
                p1 = [u + g * v for u, v in
                      zip(mul(a, c, dim, table), mul(conj(d, dim), b, dim, table))]
                p2 = [u + v for u, v in
                      zip(mul(d, a, dim, table), mul(b, conj(c, dim), dim, table))]
                vec = p1 + p2
                nz = [(k, vec[k]) for k in range(dim2) if vec[k]]
                assert len(nz) == 1 and nz[0][1] in (1, -1)
                new[(i, j)] = nz[0]
        table = new
        dim = dim2
    return table


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
        # flat (i, j, k, sign) list and per-i rows for fast multiplication
        self._ops = [(i, j, k, sg) for (i, j), (k, sg) in sorted(self.table.items())]
        self._rows = [[(j, k, sg) for (i2, j, k, sg) in self._ops if i2 == i]
                      for i in range(8)]
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

    def one(self) -> tuple:
        return self.basis(0)

    def basis(self, k: int) -> tuple:
        return tuple(self.scalars.of(int(i == k)) for i in range(8))

    def mul(self, x, y) -> tuple:
        out = [self.scalars.of(0)] * 8
        for i in range(8):
            xi = x[i]
            if not xi:
                continue
            for j, k, sg in self._rows[i]:
                if y[j]:
                    out[k] = out[k] + xi * y[j] if sg > 0 else out[k] - xi * y[j]
        if self.scalars.characteristic:
            p = self.scalars.characteristic
            out = [c % p for c in out]
        return tuple(out)

    def trace_of_product(self, x, y):
        """tr(x y) without forming the product: 2 sum_i sq_sign_i x_i y_i."""
        t = 2 * sum(sg * a * b for sg, a, b in zip(self.sq_sign, x, y))
        return t % self.scalars.characteristic if self.scalars.characteristic else t

    def conj(self, x) -> tuple:
        return (x[0],) + tuple(-c if not self.scalars.characteristic
                               else (-c) % self.scalars.characteristic
                               for c in x[1:])

    def trace(self, x):
        return x[0] + x[0] if not self.scalars.characteristic else (2 * x[0]) % self.scalars.characteristic

    def norm(self, x):
        prod = self.mul(x, self.conj(x))
        assert all(c == 0 for c in prod[1:]), "x x* is not scalar"
        return prod[0]

    def bilinear(self, x, y):
        """(x, y) = N(x+y) - N(x) - N(y)."""
        s = tuple(a + b for a, b in zip(x, y))
        if self.scalars.characteristic:
            p = self.scalars.characteristic
            s = tuple(c % p for c in s)
            return (self.norm(s) - self.norm(x) - self.norm(y)) % p
        return self.norm(s) - self.norm(x) - self.norm(y)

    def trilinear(self, x1, x2, x3):
        """tr(x1 (x2 x3)); agrees with tr((x1 x2) x3) (tested, not assumed)."""
        return self.trace(self.mul(x1, self.mul(x2, x3)))

    def add(self, x, y) -> tuple:
        if self.scalars.characteristic:
            p = self.scalars.characteristic
            return tuple((a + b) % p for a, b in zip(x, y))
        return tuple(a + b for a, b in zip(x, y))

    def scale(self, c, x) -> tuple:
        c = self.scalars.of(c)
        if self.scalars.characteristic:
            p = self.scalars.characteristic
            return tuple((c * a) % p for a in x)
        return tuple(c * a for a in x)

    def is_zero(self, x) -> bool:
        return all(c == 0 for c in x)

    def random(self, rng: random.Random, lo=-3, hi=3) -> tuple:
        return tuple(self.scalars.randint(rng, lo, hi) for _ in range(8))

    def random_imaginary(self, rng: random.Random, lo=-2, hi=2) -> tuple:
        return (self.scalars.of(0),) + tuple(self.scalars.randint(rng, lo, hi)
                                             for _ in range(7))

    def unit_norm_element(self, rng: random.Random) -> tuple:
        """A norm-1 element via the Cayley transform of a trace-0 u:
        (1-u)(1+u)^{-1} = (1 - 2u - N(u)) / (1 + N(u))."""
        while True:
            u = self.random_imaginary(rng)
            n = self.norm(u)
            denom = self.scalars.of(1) + n
            if self.scalars.characteristic:
                denom = denom % self.scalars.characteristic
            if denom != 0:
                break
        inv = self.scalars.inv(denom)
        head = (self.scalars.of(1) - n) * inv
        rest = tuple(self.scalars.of(-2) * c * inv for c in u[1:])
        out = (head,) + rest
        if self.scalars.characteristic:
            out = tuple(c % self.scalars.characteristic for c in out)
        assert self.norm(out) == self.scalars.of(1)
        return out


def definite_octonions(gammas=(-1, -1, -1)) -> OctonionAlgebra:
    return OctonionAlgebra(RationalScalars(), gammas, "definite")


def split_octonions(scalars=None, gammas=(-1, -1, 1)) -> OctonionAlgebra:
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

    def random(self, rng: random.Random, lo=-2, hi=2) -> JordanElement:
        return JordanElement(tuple(self.scalars.randint(rng, lo, hi) for _ in range(3)),
                             tuple(self.oct.random(rng, lo, hi) for _ in range(3)))

    # -- linear structure ----------------------------------------------------

    def add(self, a: JordanElement, b: JordanElement) -> JordanElement:
        return JordanElement(tuple(u + v for u, v in zip(a.c, b.c)),
                             tuple(self.oct.add(u, v) for u, v in zip(a.x, b.x)))

    def sub(self, a: JordanElement, b: JordanElement) -> JordanElement:
        return self.add(a, self.scale(-1, b))

    def scale(self, k, a: JordanElement) -> JordanElement:
        k = self.scalars.of(k)
        ch = self.scalars.characteristic
        cs = tuple((k * v) % ch if ch else k * v for v in a.c)
        return JordanElement(cs, tuple(self.oct.scale(k, v) for v in a.x))

    # -- multiplicative structure ---------------------------------------------

    def trace(self, a: JordanElement):
        t = a.c[0] + a.c[1] + a.c[2]
        ch = self.scalars.characteristic
        return t % ch if ch else t

    def _matrix(self, a: JordanElement):
        o = self.oct
        c1, c2, c3 = ((v,) + (self.scalars.of(0),) * 7 for v in a.c)
        x1, x2, x3 = a.x
        return ((c1, x3, o.conj(x2)),
                (o.conj(x3), c2, x1),
                (x2, o.conj(x1), c3))

    def matmul(self, a: JordanElement, b: JordanElement):
        """Full 3x3 octonion matrix product (not Hermitian in general)."""
        o = self.oct
        ma, mb = self._matrix(a), self._matrix(b)
        return tuple(tuple(
            o.add(o.add(o.mul(ma[i][0], mb[0][j]), o.mul(ma[i][1], mb[1][j])),
                  o.mul(ma[i][2], mb[2][j]))
            for j in range(3)) for i in range(3))

    def jordan_product(self, a: JordanElement, b: JordanElement) -> JordanElement:
        """(ab + ba)/2, back in Hermitian coordinates."""
        if self.scalars.characteristic == 2:
            raise ValueError("jordan product needs 2 invertible")
        half = self.scalars.inv(self.scalars.of(2))
        m1, m2 = self.matmul(a, b), self.matmul(b, a)
        sym = tuple(tuple(self.oct.scale(half, self.oct.add(m1[i][j], m2[i][j]))
                          for j in range(3)) for i in range(3))
        for i in range(3):
            assert all(c == 0 for c in sym[i][i][1:]), "diagonal is not scalar"
        return JordanElement((sym[0][0][0], sym[1][1][0], sym[2][2][0]),
                             (sym[1][2], sym[2][0], sym[0][1]))

    def square(self, a: JordanElement) -> JordanElement:
        return self.jordan_product(a, a)

    def sharp(self, a: JordanElement) -> JordanElement:
        """Quadratic adjoint from the sigma-based definition; in coordinates
        c1# = c2 c3 - N(x1) (cyclically) and x1# = (x2 x3)* - c1 x1."""
        o = self.oct
        n = [o.norm(v) for v in a.x]
        c1, c2, c3 = a.c
        cs = (c2 * c3 - n[0], c1 * c3 - n[1], c1 * c2 - n[2])
        xs = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            prod = o.conj(o.mul(a.x[j], a.x[k]))
            xs.append(o.add(prod, o.scale(-a.c[i], a.x[i])))
        ch = self.scalars.characteristic
        if ch:
            cs = tuple(v % ch for v in cs)
        return JordanElement(tuple(cs), tuple(xs))

    def norm(self, a: JordanElement):
        """N(X) = c1 c2 c3 - sum c_i N(x_i) + tr(x1 (x2 x3))."""
        o = self.oct
        val = a.c[0] * a.c[1] * a.c[2]
        for ci, xi in zip(a.c, a.x):
            val -= ci * o.norm(xi)
        val += o.trilinear(a.x[0], a.x[1], a.x[2])
        ch = self.scalars.characteristic
        return val % ch if ch else val

    def rank(self, a: JordanElement) -> int:
        if a.is_zero():
            return 0
        if self.sharp(a).is_zero():
            return 1
        if self.norm(a) == 0:
            return 2
        return 3

    def trace_pairing(self, a: JordanElement, b: JordanElement):
        """(X, Y) = sum c_i(X) c_i(Y) + sum tr(x_i(X) x_i(Y)^*)."""
        o = self.oct
        val = sum(u * v for u, v in zip(a.c, b.c))
        for u, v in zip(a.x, b.x):
            val += o.trace(o.mul(u, o.conj(v)))
        ch = self.scalars.characteristic
        return val % ch if ch else val


def rank_one_sample(jalg: JordanAlgebra, rng: random.Random,
                    max_attempts: int = 200) -> JordanElement:
    """A pseudorandom rank-one element, produced as Y# for Y of rank two.

    N(Y) is affine in c1 once the other coordinates are fixed, so c1 can be
    solved for to force N(Y) = 0; then (Y#)# = N(Y) Y = 0 while Y# != 0.
    """
    o = jalg.oct
    for _ in range(max_attempts):
        y = jalg.random(rng)
        coeff = y.c[1] * y.c[2] - o.norm(y.x[0])  # dN/dc1
        if coeff == 0:
            continue
        rest = jalg.element((0, y.c[1], y.c[2]), y.x)
        c1 = -jalg.norm(rest) * jalg.scalars.inv(coeff)
        y = jalg.element((c1, y.c[1], y.c[2]), y.x)
        assert jalg.norm(y) == 0
        z = jalg.sharp(y)
        if not z.is_zero():
            assert jalg.sharp(z).is_zero()
            return z
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
        self._gram = [[jalg.trace_pairing(a, b) for b in self.basis_elements]
                      for a in self.basis_elements]
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
            u = self._imaginary_of_norm(d - 1)
            z = j.oct.zero()
            # (1,0) -> diag(1,0,0); (0,1) -> diag(0,1,1); sqrt(d)-part has
            # x2 = x3 = 0 and squares to d on the F-component.
            e3 = JordanElement((j.scalars.of(0), j.scalars.of(1), j.scalars.of(-1)),
                               (u, z, z))
            return [j.diag(1, 0, 0), j.diag(0, 1, 1), e3]
        if kind == "field":
            return self._field_embedding(self.descriptor[1])
        raise ValueError(f"unknown etale descriptor {kind!r}")

    def _imaginary_of_norm(self, n: Fraction) -> tuple:
        """A trace-zero octonion of the given norm (definite flavor: an
        integral sum-of-squares representation on the imaginary units)."""
        n = Fraction(n)
        if n.denominator != 1 or n < 0:
            raise ValueError("need a nonnegative integer norm at desk scale")
        target = n.numerator
        # greedy four-square decomposition over the first imaginary units
        coords = [0] * 8
        rem = target
        idx = 1
        while rem > 0 and idx < 8:
            c = int(math.isqrt(rem))
            while c > 0 and not _is_sum_of_squares(rem - c * c, 7 - idx):
                c -= 1
            coords[idx] = c
            rem -= c * c
            idx += 1
        if rem != 0:
            raise ValueError(f"cannot represent {target} on seven imaginary units")
        return self.jordan.oct.of_coords(coords)

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
        basis27 = j.basis()
        rows = [[j.trace_pairing(e, b) for b in basis27] for e in self.basis_elements]
        out = [j.from_coords(v) for v in nullspace(rows)]
        assert len(out) == 27 - len(self.basis_elements)
        return out

    def project(self, el: JordanElement) -> tuple[tuple, JordanElement]:
        """Split x = x_E + x_V along J = E + V_E; returns (E-coefficients,
        V_E component)."""
        j = self.jordan
        rhs = [j.trace_pairing(el, b) for b in self.basis_elements]
        coeffs = solve(self._gram, rhs)
        ve = j.sub(el, self.embed(coeffs))
        return tuple(coeffs), ve

    def in_ve(self, el: JordanElement) -> bool:
        j = self.jordan
        return all(j.trace_pairing(el, b) == 0 for b in self.basis_elements)


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
# pairs so that the whole verification runs on machine/big integers; over a
# prime field the denominator is 1 and entries are reduced mod p.

Matrix8 = tuple[tuple, ...]


@dataclass
class ScaledMatrix:
    mat: list            # 8x8 list of ints
    den: int

    def reduce(self, ch: int | None) -> "ScaledMatrix":
        if ch:
            return ScaledMatrix([[v % ch for v in row] for row in self.mat], 1)
        g = self.den
        for row in self.mat:
            for v in row:
                g = math.gcd(g, v)
                if g == 1:
                    return self
        if g > 1:
            return ScaledMatrix([[v // g for v in row] for row in self.mat],
                                self.den // g)
        return self

    def rational(self) -> Matrix8:
        if self.den == 1:
            return tuple(tuple(row) for row in self.mat)
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.mat)


def _smat_mul(a: ScaledMatrix, b: ScaledMatrix, ch: int | None) -> ScaledMatrix:
    bm = b.mat
    cols = list(zip(*bm))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.mat]
    return ScaledMatrix(out, a.den * b.den).reduce(ch)


def _sidentity() -> ScaledMatrix:
    return ScaledMatrix([[int(i == j) for j in range(8)] for i in range(8)], 1)


def _int_coords(x) -> tuple[list[int], int]:
    """Clear denominators: x = vec/den with integer vec."""
    den = 1
    for c in x:
        if isinstance(c, Fraction):
            den = den * c.denominator // math.gcd(den, c.denominator)
    vec = [int(c * den) for c in x]
    return vec, den


def reflection_matrix(o: OctonionAlgebra, c) -> ScaledMatrix:
    """s_c(x) = x - ((x,c)/N(c)) c; (e_j, c) = 2 eta_j c_j in the CD basis."""
    ch = o.scalars.characteristic
    cv, cden = _int_coords(c) if not ch else (list(c), 1)
    # norm of the cleared vector, as an integer (or mod p)
    n = sum(e * v * v for e, v in zip(o.signature, cv))
    if ch:
        n %= ch
    if n == 0:
        raise ValueError("reflection needs a nonzero-norm vector")
    mat = [[n * int(i == j) - 2 * o.signature[j] * cv[j] * cv[i]
            for j in range(8)] for i in range(8)]
    if ch:
        inv = pow(n, ch - 2, ch)
        return ScaledMatrix([[(v * inv) % ch for v in row] for row in mat], 1)
    return ScaledMatrix(mat, n).reduce(None)


def _mult_matrix(o: OctonionAlgebra, c, side: str) -> ScaledMatrix:
    ch = o.scalars.characteristic
    cv, cden = _int_coords(c) if not ch else (list(c), 1)
    cols = [[0] * 8 for _ in range(8)]
    for i, j, k, sg in o._ops:
        if side == "left":
            if cv[i]:
                cols[j][k] += sg * cv[i]
        else:
            if cv[j]:
                cols[i][k] += sg * cv[j]
    mat = [[cols[j][i] for j in range(8)] for i in range(8)]
    return ScaledMatrix(mat, cden).reduce(ch)


def left_mult_matrix(o: OctonionAlgebra, c) -> ScaledMatrix:
    return _mult_matrix(o, c, "left")


def right_mult_matrix(o: OctonionAlgebra, c) -> ScaledMatrix:
    return _mult_matrix(o, c, "right")


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
    ch = o.scalars.characteristic
    prod_norm = o.scalars.of(1)
    t1 = t2 = t3 = _sidentity()
    for a, b in pairs:
        na, nb = o.norm(a), o.norm(b)
        if na == 0 or nb == 0:
            raise ValueError("triality generators need nonzero norms")
        prod_norm = prod_norm * na * nb
        if ch:
            prod_norm %= ch
        t1 = _smat_mul(t1, _smat_mul(reflection_matrix(o, a),
                                     reflection_matrix(o, b), ch), ch)
        t2 = _smat_mul(t2, _smat_mul(left_mult_matrix(o, a),
                                     left_mult_matrix(o, o.conj(b)), ch), ch)
        t3 = _smat_mul(t3, _smat_mul(right_mult_matrix(o, a),
                                     right_mult_matrix(o, o.conj(b)), ch), ch)
    if prod_norm != o.scalars.of(1):
        raise ValueError("product of generator norms must be 1")
    return TrialityTriple(hat(t1), t2, t3, t1)


def _int_mul(o: OctonionAlgebra, x, y) -> list[int]:
    out = [0] * 8
    for i in range(8):
        xi = x[i]
        if not xi:
            continue
        for j, k, sg in o._rows[i]:
            if y[j]:
                out[k] = out[k] + xi * y[j] if sg > 0 else out[k] - xi * y[j]
    return out


def triality_verify(o: OctonionAlgebra, triple: TrialityTriple) -> bool:
    """Check t1(xy) = t2(x) t3(y) on all basis pairs, preservation of the
    norm form by each component (via its Gram matrix), and invariance of the
    trilinear form under the hatted triple on the full basis cube.

    All checks run on the cleared-denominator integer matrices, comparing
    cross-multiplied sides."""
    ch = o.scalars.characteristic

    def zero(v) -> bool:
        return v % ch == 0 if ch else v == 0

    t1, t2, t3 = triple.raw_t1, triple.g2, triple.g3
    g1 = triple.g1
    cols1h = list(zip(*g1.mat))
    cols2 = list(zip(*t2.mat))
    cols3 = list(zip(*t3.mat))
    d1, d2, d3 = t1.den, t2.den, t3.den
    # identity on the basis square: t1(e_i e_j) is a signed column of t1
    for i in range(8):
        for j in range(8):
            k, sg = o.table[(i, j)]
            rhs = _int_mul(o, cols2[i], cols3[j])
            for r in range(8):
                if not zero(sg * t1.mat[r][k] * d2 * d3 - rhs[r] * d1):
                    return False
    # norm preservation: M^T diag(eta) M = den^2 diag(eta)
    eta = o.signature
    for m in (g1, t2, t3):
        dd = m.den * m.den
        for i in range(8):
            for j in range(i, 8):
                v = sum(eta[r] * m.mat[r][i] * m.mat[r][j] for r in range(8))
                if not zero(v - (eta[i] * dd if i == j else 0)):
                    return False
    # trilinear invariance on the basis cube: tr(x y) = 2 sum_r sq_sign_r x_r y_r
    w = [2 * sg for sg in o.sq_sign]
    dall = g1.den * d2 * d3
    for j in range(8):
        for k in range(8):
            p = _int_mul(o, cols2[j], cols3[k])
            q = [w[r] * p[r] for r in range(8)]
            m, sg = o.table[(j, k)]
            for i in range(8):
                got = sum(q[r] * cols1h[i][r] for r in range(8))
                want = (2 * sg * o.sq_sign[i] * dall) if i == m else 0
                if not zero(got - want):
                    return False
    return True


class QuadraticExtensionRequired(ValueError):
    """A constructive move needs a square root the base field lacks."""


def _rational_sqrt(q) -> Fraction | None:
    q = Fraction(q)
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


def _prime_sqrt(a: int, p: int) -> int | None:
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _unit_scale(o: OctonionAlgebra, prod):
    """mu with mu^2 * prod = 1, or None if the field has no such square root."""
    if o.scalars.characteristic:
        p = o.scalars.characteristic
        root = _prime_sqrt(pow(int(prod) % p, p - 2, p), p)
        return root
    root = _rational_sqrt(1 / Fraction(prod))
    return root


def norm_transitivity_move(o: OctonionAlgebra, x, y,
                           rng: random.Random | None = None) -> TrialityTriple:
    """A triality triple whose first (unhatted) component sends x to y.

    Needs N(x) = N(y) != 0.  Built from at most two reflections per the
    constructive recipe: s_{x-y} after a reflection fixing x, or the
    two-step route through -y.  The generator pair must be rescaled so the
    norm product is 1; when the required square root does not exist in the
    base field the move raises QuadraticExtensionRequired rather than
    approximating.
    """
    nx, ny = o.norm(x), o.norm(y)
    if nx != ny or nx == 0:
        raise ValueError("move needs equal nonzero norms")
    rng = rng or random.Random(0)
    candidates: list[list] = []
    diff = tuple(a - b for a, b in zip(x, y))
    if o.scalars.characteristic:
        diff = tuple(c % o.scalars.characteristic for c in diff)
    if not o.is_zero(diff) and o.norm(diff) != 0:
        # companions fixing x: small vectors orthogonal to x, then random
        # projections (orthogonality makes the extra reflection fix x)
        from itertools import combinations
        small = []
        for i in range(8):
            for s in (1, -1):
                v = [0] * 8
                v[i] = s
                small.append(o.of_coords(v))
        for i, j in combinations(range(8), 2):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    small.append(o.of_coords(v))
        for b in small:
            if o.bilinear(b, x) == 0 and o.norm(b) != 0:
                candidates.append([(diff, b)])
        for _ in range(40):
            b = o.random(rng, -2, 2)
            coeff = o.bilinear(b, x)
            # project away the x-component: b - ((b,x)/2N(x)) x
            twon = 2 * nx
            if o.scalars.characteristic:
                p = o.scalars.characteristic
                b = tuple((bi * twon - coeff * xi) % p for bi, xi in zip(b, x))
            else:
                b = tuple(bi * twon - coeff * xi for bi, xi in zip(b, x))
            if not o.is_zero(b) and o.norm(b) != 0:
                candidates.append([(diff, b)])
    ssum = tuple(a + b for a, b in zip(x, y))
    if o.scalars.characteristic:
        ssum = tuple(c % o.scalars.characteristic for c in ssum)
    if not o.is_zero(ssum) and o.norm(ssum) != 0:
        candidates.append([(y, ssum)])
    last = None
    for pairs in candidates:
        prod = o.scalars.of(1)
        for a, b in pairs:
            prod = prod * o.norm(a) * o.norm(b)
            if o.scalars.characteristic:
                prod %= o.scalars.characteristic
        mu = _unit_scale(o, prod)
        if mu is None:
            last = QuadraticExtensionRequired(
                f"norm product {prod} has no inverse square root in {o.scalars.name}")
            continue
        (a0, b0), rest = pairs[0], pairs[1:]
        scaled = [(o.scale(mu, a0), b0)] + rest
        triple = triality_triple(o, scaled)
        # confirm the move on the cleared-denominator matrix
        mat, den = triple.raw_t1.mat, triple.raw_t1.den
        got = [sum(mat[i][k] * x[k] for k in range(8)) for i in range(8)]
        want = [den * y[i] for i in range(8)]
        if o.scalars.characteristic:
            p = o.scalars.characteristic
            ok = all((g - w) % p == 0 for g, w in zip(got, want))
        else:
            ok = got == want
        if ok:
            return triple
    raise last or QuadraticExtensionRequired("no admissible reflection route found")


def random_triality_pairs(o: OctonionAlgebra, rng: random.Random,
                          npairs: int | None = None) -> list:
    """Random generator pairs with each N(a)N(b) = 1, via b = c a*/N(a) for
    a random norm-1 factor c."""
    npairs = npairs or rng.randint(1, 2)
    pairs = []
    for _ in range(npairs):
        while True:
            a = o.random(rng, -2, 2)
            na = o.norm(a)
            if na != 0:
                break
        c = o.unit_norm_element(rng)
        inv = o.scalars.inv(na)
        b = o.scale(inv, o.mul(c, o.conj(a)))
        prod = o.norm(a) * o.norm(b)
        if o.scalars.characteristic:
            prod %= o.scalars.characteristic
        assert prod == o.scalars.of(1)
        pairs.append((a, b))
    return pairs


def _is_sum_of_squares(n: int, k: int) -> bool:
    """Whether n is a sum of k squares (small n; k >= 4 is always true by
    Lagrange for n >= 0)."""
    if n < 0:
        return False
    if n == 0:
        return True
    if k <= 0:
        return False
    if k >= 4:
        return True
    c = int(math.isqrt(n))
    for a in range(c, -1, -1):
        if _is_sum_of_squares(n - a * a, k - 1):
            return True
    return False
