"""The Euclidean matrix action of a Weyl group, as a reference for the tests.

The verifier holds Weyl elements as integer root permutations
(`RootSystem.element`).  This module builds the same group a second way:
each simple reflection as the matrix I - 2 a a^T / (a, a), a word as the
product of its letters' matrices, and the whole group by a breadth-first
search over matrices.  The differential tests compare the integer kernel,
and `RootSystem.word_matrix`, against it.

It also holds the root-system facts that only the tests use: positivity of
a vector, |W| from the heights of the positive roots, the size of a Levi's
positive system, the longest minimal coset representative, the sign
normalisation of an affine pairing, and the Gindikin-Karpelevich
c-function of a word over a split system, read off its inversion set.
"""

from __future__ import annotations

from fractions import Fraction

from exceis.eiscalc import CoordVector, ZetaFactor, ZetaProduct
from exceis.exactnum import AffineForm
from exceis.rootsys import Matrix, ParabolicSpec, Vector, Word, dot


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def simple_mats(sys) -> list[Matrix]:
    """The matrices of the simple reflections s_1, ..., s_rank."""
    return [tuple(tuple(Fraction(int(i == j)) - 2 * a[i] * a[j] / dot(a, a)
                        for j in range(sys.dim)) for i in range(sys.dim))
            for a in sys.simples]


def word_matrix(sys, word) -> Matrix:
    """The product of the simple reflection matrices of the word's letters."""
    mats = simple_mats(sys)
    m = identity_matrix(sys.dim)
    for i in word:
        m = mat_mul(m, mats[i - 1])
    return m


def enumerate_group(sys, max_order: int = 2000) -> dict[Matrix, tuple[int, ...]]:
    """Full BFS enumeration of W (rank <= 4 scale oracle), keyed by the
    matrices of its elements, each with a word of minimal length."""
    mats = simple_mats(sys)
    seen = {identity_matrix(sys.dim): ()}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for i in range(1, sys.rank + 1):
                m2 = mat_mul(mats[i - 1], m)
                if m2 not in seen:
                    seen[m2] = (i,) + seen[m]
                    new.append(m2)
                    if len(seen) > max_order:
                        raise ValueError("group larger than the oracle bound")
        frontier = new
    return seen


def is_positive_root(sys, v: Vector) -> bool:
    return v in sys.positives


def weyl_order(sys) -> int:
    """|W| from the height partition of the positive roots.

    The partition of Phi+ by height is conjugate to the partition given
    by the exponents, and |W| is the product of (exponent + 1).
    """
    heights = [sum(sys.coords(r)) for r in sys.positives]
    counts = [heights.count(h) for h in range(1, max(heights) + 1)]
    order = 1
    for k in range(1, sys.rank + 1):
        order *= 1 + sum(1 for c in counts if c >= k)
    return order


def levi_positive_count(sys, p: ParabolicSpec) -> int:
    return len(sys.positives) - len(sys.radical_roots(p))


def longest_rep(sys, right: ParabolicSpec) -> Word:
    """The unique maximal-length element of [W/W_M]."""
    reps = sys.coset_reps(right)
    top = len(reps[-1])
    longest = [w for w in reps if len(w) == top]
    if len(longest) != 1:
        raise ValueError("[W/W_M] has no unique longest element?")
    return longest[0]


def normalized_sign(form: AffineForm) -> AffineForm:
    """The form with positive leading coefficient (for sign-insensitive matching)."""
    lead = form.slope if form.slope != 0 else form.intercept
    return form if lead >= 0 else -form


def gk_cfunction(sys, lam: CoordVector, word) -> ZetaProduct:
    """Finite-place c-function over a split system: the product over the
    positive roots a flipped by w of zeta(<lam, a^vee>)/zeta(<lam, a^vee>+1)."""
    zs = [lam.pairing(sys, root) for root in sys.inversions(tuple(word))]
    return ZetaProduct([(ZetaFactor("zeta", z), 1) for z in zs]
                       + [(ZetaFactor("zeta", z.shift(1)), -1) for z in zs])
