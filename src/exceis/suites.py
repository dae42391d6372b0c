"""The seeded algebra suites: octonions, the Albert algebra, V_E, Freudenthal
corners and triality.  In the package only ``cases.algebra_report`` imports
this module, so a table query never loads ``compalg``."""

from __future__ import annotations

import itertools

from . import compalg
from .config import Config


def _small_height(jalg, diagonals, unit_counts):
    """Sparse elements of the Jordan algebra: diagonal entries drawn from
    the given ranges, and octonion slot i zero or a signed basis unit, among
    the first unit_counts[i] of (0, e0, -e0, e1, -e1, ...)."""
    units = [jalg.oct.zero()]
    for k in range(8):
        units.append(jalg.oct.basis(k))
        units.append(jalg.oct.scale(-1, jalg.oct.basis(k)))
    for c in itertools.product(*diagonals):
        for x in itertools.product(*(units[:k] for k in unit_counts)):
            yield jalg.element(c, x)


def _composition(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    algs = [jalg.oct, compalg.split_octonions(cfg.algebras["split"])]
    fails = 0
    for alg in algs:
        for _ in range(count):
            x, y = alg.random(rng), alg.random(rng)   # integral samples
            # N(xy) = N(x) N(y): degree 2 in each of x and y
            if alg.norm(alg.mul(x, y)) != alg.norm(x) * alg.norm(y):
                fails += 1
    return {"cases": count * len(algs), "failures": fails}


def _sharp_failures(jalg: compalg.JordanAlgebra, x: compalg.JordanElement) -> int:
    """The failed adjoint identities x o x# = N(x) 1, checked doubled as
    x x# + x# x = 2 N(x) 1 (degree 3), and (x#)# = N(x) x (degree 4)."""
    s = jalg.sharp(x)
    n = jalg.norm(x)
    fails = int(jalg.symmetric_product(x, s) != jalg.scale(2 * n, jalg.identity()))
    return fails + (jalg.sharp(s) != jalg.scale(n, x))


def _sharp(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    fails = 0
    for _ in range(count):
        fails += _sharp_failures(jalg, jalg.random(rng))
    return {"cases": 2 * count, "failures": fails}


def _trace_failures(jalg: compalg.JordanAlgebra, x: compalg.JordanElement) -> int:
    """1 unless tr(x)^2 - tr(x o x) = 2 tr(x#) (degree 2), checked doubled
    as 2 tr(x)^2 - tr(x x + x x) = 4 tr(x#)."""
    lhs = 2 * jalg.trace(x) ** 2 - jalg.trace(jalg.symmetric_product(x, x))
    return int(lhs != 4 * jalg.trace(jalg.sharp(x)))


def _trace_identity(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    fails = 0
    for _ in range(count):
        fails += _trace_failures(jalg, jalg.random(rng))
    return {"cases": count, "failures": fails}


def _positivity(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    fails = 0
    for _ in range(count):
        x = jalg.random(rng)
        q = jalg.trace_pairing(x, x)   # degree 2, on an integral sample
        if x.is_zero():
            continue
        if not q > 0:
            fails += 1
    return {"cases": count, "failures": fails}


def _rank_one_failures(jalg: compalg.JordanAlgebra, z: compalg.JordanElement) -> int:
    """1 unless z is a nonzero element with z# = 0 (degree 2) and rank 1
    (unchanged by a nonzero scale)."""
    return int(z.is_zero() or not jalg.sharp(z).is_zero() or jalg.rank(z) != 1)


def _rank_one(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    fails = 0
    for _ in range(count):
        z, _y, _d = compalg.rank_one_rep(jalg, rng)   # z = d^2 rank_one_sample
        fails += _rank_one_failures(jalg, z)
    return {"cases": count, "failures": fails}


def _ve_claims(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    split3 = compalg.CubicEtale(jalg, ("split3",))
    qxf = compalg.CubicEtale(jalg, ("QxF", cfg.claims.qxf_disc))
    fails = 0
    dims_ok = split3.ve_dim == 24 and qxf.ve_dim == 24
    for _ in range(count):
        z, _y, _d = compalg.rank_one_rep(jalg, rng)   # z = d^2 rank_one_sample
        for et in (split3, qxf):
            if et.in_ve(z):  # linear: degree 1
                fails += 1   # nonzero rank one inside V_E
    # exhaustive small-height sweep: no sparse rank-one element lies in
    # either complement
    hits = 0
    for v in _small_height(jalg, ((-1, 0, 1),) * 3, (9, 5, 3)):
        if not v.is_zero() and jalg.rank(v) == 1:
            hits += 1
            if split3.in_ve(v) or qxf.in_ve(v):
                fails += 1
    return {"cases": 2 * count, "failures": fails,
            "dims_ok": dims_ok, "small_height_rank_ones": hits}


def _rank_one_c1(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    fails = 0
    for _ in range(count):
        x = jalg.random(rng)
        v = jalg.element((0, x.c[1], x.c[2]), x.x)
        sh = jalg.sharp(v)
        # with c1 = 0 the adjoint diagonal reads off -N(x2), -N(x3) (degree 2)
        if sh.c[1] != -jalg.oct.norm(v.x[1]) or sh.c[2] != -jalg.oct.norm(v.x[2]):
            fails += 1
        # rank <= 1 forces x2 = x3 = 0 (rank is scale-invariant)
        if jalg.rank(v) <= 1 and not (jalg.oct.is_zero(v.x[1])
                                      and jalg.oct.is_zero(v.x[2])):
            fails += 1
    # directed family: rank-one elements (0, c2, N(x1)/c2; x1, 0, 0) with
    # c1 = 0, checked as c2 times the element (rank is scale-invariant)
    for _ in range(count // 10):
        x1 = jalg.oct.random(rng)
        c2, = jalg.scalars.draws(rng, 1)
        if c2 == 0:
            continue
        v = jalg.element((0, c2 * c2, jalg.oct.norm(x1)),
                         (jalg.oct.scale(c2, x1), [0] * 8, [0] * 8))
        if jalg.rank(v) > 1:
            fails += 1
    # exhaustive small-height search over sparse elements with c1 = 0
    hits = 0
    for v in _small_height(jalg, ((0,), (-1, 0, 1), (-1, 0, 1)), (17, 9, 3)):
        if jalg.rank(v) <= 1 and not v.is_zero():
            hits += 1
            if not (jalg.oct.is_zero(v.x[1]) and jalg.oct.is_zero(v.x[2])):
                fails += 1
    return {"cases": count, "failures": fails, "small_height_rank_ones": hits}


def _f_complement(jalg: compalg.JordanAlgebra, qxf: compalg.CubicEtale):
    """x -> D v, where v is x with its F-components (the span of e2, e3 in
    Q x F) projected away and D the denominator of qxf's Gram inverse:
    D v = D x - k2 e2 - k3 e3, with (k1, k2, k3) over D the E-coefficients
    of x, is integral for integral x.  The Gram matrix is diag(1, 2, 2d):
    e1 is orthogonal to e2 and e3, so the F-rows of its inverse are the
    inverse of the F-block, over the same denominator 2d.  The projection
    is linear (degree 1)."""
    e2, e3 = qxf.basis_elements[1:]

    def project(x: compalg.JordanElement) -> compalg.JordanElement:
        (_, k2, k3), den = qxf.coefficients(x)
        return jalg.sub(jalg.scale(den, x), jalg.add(jalg.scale(k2, e2), jalg.scale(k3, e3)))
    return project


def _orth_f_failures(jalg: compalg.JordanAlgebra, v: compalg.JordanElement,
                     e11: compalg.JordanElement) -> int:
    """The failed claims for v orthogonal to F: orthogonality forces
    c3 = -c2 (degree 1); then c1 of the adjoint is -c2^2 - N(x1) (degree 2),
    which vanishes only when both pieces do, so rank <= 1 (scale-invariant)
    puts v on the line through e11 (degree 1)."""
    fails = 0
    if v.c[2] != -v.c[1]:
        fails += 1
    if jalg.sharp(v).c[0] != -(v.c[1] ** 2) - jalg.oct.norm(v.x[0]):
        fails += 1
    if jalg.rank(v) <= 1 and not jalg.sub(v, jalg.scale(v.c[0], e11)).is_zero():
        fails += 1
    return fails


def _rank_one_orth_f(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    qxf = compalg.CubicEtale(jalg, ("QxF", cfg.claims.qxf_disc))
    u = qxf.basis_elements[2].x[0]
    e11 = jalg.e11()
    project = _f_complement(jalg, qxf)
    fails = 0
    for _ in range(count):
        fails += _orth_f_failures(jalg, project(jalg.random(rng)), e11)
    # small-height directed search within the orthogonal complement
    hits = 0
    for c1 in range(-2, 3):
        for c2 in range(-1, 2):
            for t in range(-1, 2):
                v = jalg.element((c1, c2, -c2), (jalg.oct.scale(t, u),
                                                 [0] * 8, [0] * 8))
                if v.is_zero():
                    continue
                if jalg.rank(v) <= 1:
                    hits += 1
                    if not jalg.sub(v, jalg.scale(v.c[0], e11)).is_zero():
                        fails += 1
    return {"cases": count, "failures": fails, "small_height_rank_ones": hits}


def _we_failures(etales, w: compalg.FreudenthalElement) -> int:
    """For each etale E: 1 if the W_E-part (a, b_E, c_E, d) of w is zero,
    and 1 if that of its symplectic flip (-d, c, -b, a) is zero.  Both are
    linear in w (degree 1); the flip reuses the E-coefficients of b and c,
    read as numerators since only their vanishing matters, and the V_E-parts
    are not needed."""
    fails = 0
    for et in etales:
        b_e, c_e = et.coefficients(w.b)[0], et.coefficients(w.c)[0]
        if compalg.we_part_is_zero((w.a, b_e, c_e, w.d)):
            fails += 1
        # symplectic flip translate keeps a nonzero corner too
        if compalg.we_part_is_zero((-w.d, c_e, tuple(-v for v in b_e), w.a)):
            fails += 1
    return fails


def _freudenthal(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    etales = (compalg.CubicEtale(jalg, ("split3",)),
              compalg.CubicEtale(jalg, ("QxF", cfg.claims.qxf_disc)))
    fails = 0
    for _ in range(count):
        z = jalg.random(rng)
        num = rng.randint(1, 5)
        rng.randint(1, 3)   # lam = num/den; den r0(z, lam) = r0(z, num) is integral
        if rng.randrange(2):
            num = -num
        w = compalg.freudenthal_r0(jalg, z, num)
        # the rank-one relations b# = a c and c# = d b (degree 2), whose
        # sides are lam^2 Z# and lam^2 N(Z) Z for r0(z, lam)
        fails += (_we_failures(etales, w) + (jalg.sharp(w.b) != jalg.scale(w.a, w.c))
                  + (jalg.sharp(w.c) != jalg.scale(w.d, w.b)))
    return {"cases": count, "failures": fails}


def _triality(cfg: Config, jalg: compalg.JordanAlgebra, count: int, rng) -> dict:
    # each triple is carried as integer matrices over denominators, and
    # triality_verify compares cross-multiplied sides: t1(xy) = t2(x) t3(y)
    # and the Gram identity g1^T diag(sq_sign) t1 = diag(sq_sign), which
    # stands for the trilinear form once the first holds, have degree 1 in
    # each matrix, the norm form degree 2
    primes = cfg.claims.primes
    algs = [jalg.oct] + [compalg.split_octonions(cfg.algebras["split"],
                                                 compalg.PrimeFieldScalars(p)) for p in primes]
    fails = 0
    for alg in algs:
        for _ in range(count):
            triple = compalg.triality_triple(alg, compalg.random_triality_pairs(alg, rng))
            if not compalg.triality_verify(alg, triple):
                fails += 1
    return {"cases": count * len(algs), "failures": fails,
            "fields": ["Q"] + [f"GF({p})" for p in primes]}


# The suites in report order.  Each returns its counts and extras;
# algebra_report adds the name and derives the status.
SUITES = (
    ("composition", _composition),
    ("sharp", _sharp),
    ("trace-identity", _trace_identity),
    ("positivity", _positivity),
    ("rank-one", _rank_one),
    ("ve-claims", _ve_claims),
    ("rank-one-c1", _rank_one_c1),
    ("rank-one-orth-f", _rank_one_orth_f),
    ("freudenthal", _freudenthal),
    ("triality", _triality),
)
