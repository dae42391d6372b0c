"""Octonion and Jordan helpers that only the tests use.

The algebra suites work on cleared-denominator integer representatives
(`compalg.rank_one_rep`, `ScaledMatrix`).  The functions here give the
normalised Fraction values, and the polarised norm form, that the tests
compare those representatives against.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exceis.compalg import (JordanAlgebra, JordanElement, OctonionAlgebra,
                            RationalScalars, ScaledMatrix, rank_one_rep)


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


def rank_one_sample(jalg: JordanAlgebra, rng: random.Random,
                    max_attempts: int = 200) -> JordanElement:
    """The rank-one sample of rank_one_rep normalised: y# = Z/d^2 for y = Y/d."""
    _, y, d = rank_one_rep(jalg, rng, max_attempts)
    return jalg.sharp(jalg.element([Fraction(v, d) for v in y.c],
                                   [[Fraction(v, d) for v in x] for x in y.x]))


def rational(m: ScaledMatrix) -> tuple[tuple, ...]:
    """The rational matrix m.mat / m.den."""
    if m.den == 1:
        return tuple(tuple(row) for row in m.mat)
    return tuple(tuple(Fraction(v, m.den) for v in row) for row in m.mat)
