"""Octonion and Jordan helpers that only the tests use.

The algebra suites work on cleared-denominator integer representatives
(`compalg.rank_one_rep`, `ScaledMatrix`).  The functions here give the
normalised Fraction values, and the polarised norm form, that the tests
compare those representatives against.

They also hold the test-side references for `compalg.triality_verify`:
`rational_triality_verify` checks the defining identities on the Fraction
matrices, and `cube_triality_verify` is the integer verifier that checks
invariance of the trilinear form on the full 512-entry basis cube, which
`triality_verify` replaced by the 64-entry Gram identity.

And they hold the references for the octonion kernels compiled from the
structure constants: `reference_norm` forms the full product x x* and
asserts it scalar, `reference_sharp` and `reference_trace_pairing` build
the adjoint and the trace pairing from octonion products, conjugates and
scalings, and `reference_symmetric_product` forms ab + ba from two 3x3
octonion matrix products and asserts its diagonal scalar.
test_jordan_differential.py compares the compiled path against them.

`ve_basis` gives V_E as elements, the Fraction nullspace of an etale's
pairing rows; `CubicEtale` keeps only the rows and the kernel's dimension.

Last, `reference_table` is the Cayley-Dickson structure table as
`compalg._build_table` built it before it read the four block rules off the
smaller table: each entry a doubling product of basis vectors, formed with
the conjugate and the product of the smaller algebra.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from exceis.compalg import (CubicEtale, JordanAlgebra, JordanElement, OctonionAlgebra,
                            RationalScalars, ScaledMatrix, TrialityTriple, rank_one_rep)
from linalg_reference import nullspace


# the doubling parameters of the configured split flavor (algebras.split)
SPLIT_GAMMAS = (-1, -1, 1)


def definite_octonions(gammas=(-1, -1, -1)) -> OctonionAlgebra:
    return OctonionAlgebra(RationalScalars(), gammas, "definite")


def bilinear(o: OctonionAlgebra, x, y):
    """(x, y) = N(x+y) - N(x) - N(y)."""
    return o.scalars.red(o.norm(o.add(x, y)) - o.norm(x) - o.norm(y))


def unit_norm_element(o: OctonionAlgebra, rng: random.Random) -> tuple:
    """The norm-1 Cayley transform of a trace-0 u, (1 - 2u - N(u)) / (1 + N(u))."""
    num, den = o._cayley(rng)
    inv = o.scalars.inv(den)
    return o.scalars.vec([c * inv for c in num])


def ve_basis(etale: CubicEtale) -> list[JordanElement]:
    """A basis of V_E: the nullspace of the etale's 3x27 pairing rows, each
    coordinate vector read back as an element."""
    j = etale.jordan
    return [j.element(v[:3], (v[3:11], v[11:19], v[19:27])) for v in nullspace(etale._rows)]


def rank_one_sample(jalg: JordanAlgebra, rng: random.Random) -> JordanElement:
    """The rank-one sample of rank_one_rep normalised: y# = Z/d^2 for y = Y/d."""
    _, y, d = rank_one_rep(jalg, rng)
    return jalg.sharp(jalg.element([Fraction(v, d) for v in y.c],
                                   [[Fraction(v, d) for v in x] for x in y.x]))


def reference_norm(o: OctonionAlgebra, x):
    """N(x) as the 0-coordinate of the full product x x*, asserted scalar."""
    prod = o.mul(x, o.conj(x))
    assert all(c == 0 for c in prod[1:]), "x x* is not scalar"
    return prod[0]


def reference_sharp(jalg: JordanAlgebra, a: JordanElement) -> JordanElement:
    """The quadratic adjoint in coordinates: c1# = c2 c3 - N(x1) (cyclically)
    and x1# = (x2 x3)* - c1 x1, from octonion products and conjugates."""
    o = jalg.oct
    n = [reference_norm(o, v) for v in a.x]
    c1, c2, c3 = a.c
    cs = (c2 * c3 - n[0], c1 * c3 - n[1], c1 * c2 - n[2])
    xs = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        prod = o.conj(o.mul(a.x[j], a.x[k]))
        xs.append(o.add(prod, o.scale(-a.c[i], a.x[i])))
    return JordanElement(jalg.scalars.vec(cs), tuple(xs))


def reference_trace_pairing(jalg: JordanAlgebra, a: JordanElement, b: JordanElement):
    """(X, Y) = sum c_i(X) c_i(Y) + sum tr(x_i(X) x_i(Y)^*), each trace read
    off a full octonion product."""
    o = jalg.oct
    val = sum(u * v for u, v in zip(a.c, b.c))
    for u, v in zip(a.x, b.x):
        val += o.trace(o.mul(u, o.conj(v)))
    return jalg.scalars.red(val)


def _matrix(jalg: JordanAlgebra, a: JordanElement):
    """The Hermitian 3x3 octonion matrix of a."""
    o = jalg.oct
    c1, c2, c3 = ((v,) + (jalg.scalars.of(0),) * 7 for v in a.c)
    x1, x2, x3 = a.x
    return ((c1, x3, o.conj(x2)),
            (o.conj(x3), c2, x1),
            (x2, o.conj(x1), c3))


def matmul(jalg: JordanAlgebra, a: JordanElement, b: JordanElement):
    """Full 3x3 octonion matrix product (not Hermitian in general)."""
    o = jalg.oct
    ma, mb = _matrix(jalg, a), _matrix(jalg, b)
    return tuple(tuple(
        o.add(o.add(o.mul(ma[i][0], mb[0][j]), o.mul(ma[i][1], mb[1][j])),
              o.mul(ma[i][2], mb[2][j]))
        for j in range(3)) for i in range(3))


def reference_symmetric_product(jalg: JordanAlgebra, a: JordanElement,
                                b: JordanElement) -> JordanElement:
    """ab + ba from the two 3x3 octonion matrix products, its diagonal
    asserted scalar, read back in Hermitian coordinates."""
    m1 = matmul(jalg, a, b)
    m2 = m1 if b is a else matmul(jalg, b, a)
    sym = tuple(tuple(jalg.oct.add(m1[i][j], m2[i][j]) for j in range(3))
                for i in range(3))
    for i in range(3):
        assert all(c == 0 for c in sym[i][i][1:]), "diagonal is not scalar"
    return JordanElement((sym[0][0][0], sym[1][1][0], sym[2][2][0]),
                         (sym[1][2], sym[2][0], sym[0][1]))


def reference_table(gammas) -> dict[tuple[int, int], tuple[int, int]]:
    """Structure constants e_i e_j = sign * e_k by iterated doubling,
    using (a,b)(c,d) = (ac + g d* b, d a + b c*) on coordinate vectors."""
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


def rational(m: ScaledMatrix) -> tuple[tuple, ...]:
    """The rational matrix m.mat / m.den."""
    if m.den == 1:
        return tuple(tuple(row) for row in m.mat)
    return tuple(tuple(Fraction(v, m.den) for v in row) for row in m.mat)


def rational_triality_verify(o: OctonionAlgebra, triple: TrialityTriple) -> bool:
    """triality_verify from its definition, on the Fraction matrices:
    t1(xy) = t2(x) t3(y), (g(x), g(y)) = (x, y) for each component, and
    tr(g1(x) (t2(y) t3(z))) = tr(x (yz)), all on basis vectors."""
    mats = [rational(m) for m in (triple.g1, triple.raw_t1, triple.g2, triple.g3)]
    g1, t1, t2, t3 = ([tuple(row[i] for row in m) for i in range(8)] for m in mats)
    e = [o.basis(k) for k in range(8)]

    def t1_of(x):
        return tuple(sum(c * v for c, v in zip(x, coords)) for coords in zip(*t1))

    prods = [[o.mul(t2[j], t3[k]) for k in range(8)] for j in range(8)]
    for j in range(8):
        for k in range(8):
            if t1_of(o.mul(e[j], e[k])) != prods[j][k]:
                return False
    for g in (g1, t2, t3):
        for i in range(8):
            for j in range(i, 8):
                if bilinear(o, g[i], g[j]) != bilinear(o, e[i], e[j]):
                    return False
    for c in range(8):
        for j in range(8):
            for k in range(8):
                if o.trace(o.mul(g1[c], prods[j][k])) != o.trilinear(e[c], e[j], e[k]):
                    return False
    return True


def cube_triality_verify(o: OctonionAlgebra, triple: TrialityTriple) -> bool:
    """The integer verifier with the trilinear form checked on the full
    basis cube: t1(xy) = t2(x) t3(y) on all basis pairs, preservation of the
    norm form by each component (via its Gram matrix), and
    tr(g1(e_c) (t2(e_j) t3(e_k))) = tr(e_c (e_j e_k)) for all 512 (c, j, k).

    All checks run on the cleared-denominator integer matrices, comparing
    cross-multiplied sides.  The 64 products t2(e_i) t3(e_j) are formed
    once and feed both the identity and the trilinear check."""
    vec = o.scalars.vec
    t1, t2, t3, g1 = triple.raw_t1, triple.g2, triple.g3, triple.g1
    d1, d2, d3 = t1.den, t2.den, t3.den
    cols3 = list(zip(*t3.mat))
    # p[8i + j] = t2(e_i) t3(e_j), unreduced: every check reduces its differences
    p = [o._product(c2, c3) for c2 in zip(*t2.mat) for c3 in cols3]
    # identity on the basis square: t1(e_i e_j) = sg t1(e_k) is a signed column of t1
    cols1 = list(zip(*t1.mat))
    for (i, j), (k, sg) in o.table.items():
        s = sg * d2 * d3
        if any(vec([s * a - d1 * b for a, b in zip(cols1[k], p[8 * i + j])])):
            return False
    # norm preservation: M^T diag(eta) M = den^2 diag(eta), upper triangle
    eta = o.signature
    for m in (g1, t2, t3):
        cols = list(zip(*m.mat))
        gram = []
        for i in range(8):
            ecol = [e * v for e, v in zip(eta, cols[i])]
            gram += [sum(map(operator.mul, ecol, cols[j])) for j in range(i, 8)]
            gram[-(8 - i)] -= eta[i] * m.den * m.den
        if any(vec(gram)):
            return False
    # the trilinear form on the basis cube, where tr(g1(e_c) x) is the dot
    # product of x with the form 2 sq_sign * g1(e_c), since
    # tr(x y) = 2 sum_r sq_sign_r x_r y_r
    forms = [[2 * sg * v for sg, v in zip(o.sq_sign, col)] for col in zip(*g1.mat)]
    got = [[sum(map(operator.mul, f, x)) for x in p] for f in forms]
    dall = g1.den * d2 * d3
    for (j, k), (m, sg) in o.table.items():
        got[m][8 * j + k] -= 2 * sg * o.sq_sign[m] * dall
    return not any(any(vec(row)) for row in got)
