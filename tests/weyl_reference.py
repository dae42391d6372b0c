"""The Euclidean matrix action of a Weyl group, as a reference for the tests.

The verifier holds Weyl elements as integer root permutations
(`RootSystem.element`).  This module builds the same group a second way:
each simple reflection as the matrix I - 2 a a^T / (a, a), a word as the
product of its letters' matrices, and the whole group by a breadth-first
search over matrices.  The differential tests compare the integer kernel,
and `RootSystem.word_matrix`, against it.

It also holds the root-system facts that only the tests use: the
Euclidean vector of each root index, positivity of a vector, |W| from the
heights of the positive roots, the size of a Levi's positive system, the
longest minimal coset representative, the sign normalisation of an affine
pairing, and the Gindikin-Karpelevich c-function of a word over a split
system, read off its inversion set, with the Euclidean coroot pairing
<lam, a^vee> = 2 (lam, a)/(a, a).

Last, `fraction_trace` is the verifier's lambda-trace as it stood before
the trace carried simple-coroot labels: Fraction vectors reflected step by
step, with the Euclidean cross-check of the final vector on the roots and
orthogonal basis of a `ReferenceSystem`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

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


@cache
def root_vectors(sys) -> list[Vector]:
    """The Euclidean vector of each root, by root index."""
    return [sys.vector(c) for c in sys.coords]


@cache
def positive_roots(sys) -> list[Vector]:
    """The Euclidean vectors of the positive roots, by root index."""
    return [v for v, c in zip(root_vectors(sys), sys.coords) if min(c) >= 0]


def is_positive_root(sys, v: Vector) -> bool:
    return v in positive_roots(sys)


def weyl_order(sys) -> int:
    """|W| from the height partition of the positive roots.

    The partition of Phi+ by height is conjugate to the partition given
    by the exponents, and |W| is the product of (exponent + 1).
    """
    heights = [sum(c) for c in sys.coords if min(c) >= 0]
    counts = [heights.count(h) for h in range(1, max(heights) + 1)]
    order = 1
    for k in range(1, sys.rank + 1):
        order *= 1 + sum(1 for c in counts if c >= k)
    return order


def levi_positive_count(sys, p: ParabolicSpec) -> int:
    """The number of positive roots of the Levi: those with no coordinate on a
    simple root of the radical."""
    return sum(min(c) >= 0 and all(c[i - 1] == 0 for i in p.radical) for c in sys.coords)


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
    return form if lead >= 0 else form.scale(-1)


def coroot_pairing(lam: CoordVector, root: Vector) -> AffineForm:
    """<lam, root^vee> = 2 (lam, root)/(root, root), on Fraction vectors."""
    na = dot(root, root)
    return AffineForm(2 * dot(lam.slope, root) / na, 2 * dot(lam.icept, root) / na)


def printed_pairing(ref, lam: CoordVector, root: Vector) -> AffineForm:
    """<lam, root^vee> in the display normalization of a ReferenceSystem."""
    return coroot_pairing(lam, root).scale(ref.print_scale[ref.roots.index(root)])


def label_pairing(sys, lam: CoordVector, root: Vector) -> AffineForm:
    """<lam, root^vee> as the verifier reads it: lam's simple-coroot labels
    against the root's coroot coordinates."""
    (ls, li), den = sys.labels(lam.slope, lam.icept)
    c = sys.coroot_coords[root_vectors(sys).index(root)]
    return AffineForm(Fraction(dot(c, ls), den), Fraction(dot(c, li), den))


def gk_product(lam: CoordVector, roots) -> ZetaProduct:
    """The product over the given roots a of zeta(<lam, a^vee>)/zeta(<lam, a^vee>+1)."""
    zs = [coroot_pairing(lam, root) for root in roots]
    return ZetaProduct([(ZetaFactor("zeta", z), 1) for z in zs]
                       + [(ZetaFactor("zeta", z.shift(1)), -1) for z in zs])


def gk_cfunction(sys, lam: CoordVector, word) -> ZetaProduct:
    """Finite-place c-function over a split system: the GK product over the
    positive roots flipped by w."""
    return gk_product(lam, sys.inversions(tuple(word)))


# ----- the Euclidean build and trace: every sum over Fractions ------------
#
# The verifier builds a system on integer numerators over one denominator
# and takes two dot products per trace step.  What follows is the same
# build over exact rationals throughout, a Fraction sum for every (root,
# simple root, coordinate) triple, and the trace loop that takes eight dot
# products per step; tests/test_kernel_differential.py compares the two.


def reference_reflect(alpha: Vector, v: Vector) -> Vector:
    """v - 2 (v, alpha)/(alpha, alpha) alpha."""
    c = 2 * dot(v, alpha) / dot(alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


class ReferenceSystem:
    """A configured system entry (a config.SystemSpec) built over Fractions:
    the roots sorted by their Euclidean vectors, each with its simple-root
    coordinates, squared length, multiplicity and print scale, and the
    Cartan matrix, weighted rho and the orthogonal basis."""

    def __init__(self, spec):
        from linalg_reference import nullspace
        self.simples = [tuple(Fraction(c) for c in v) for v in spec.simple_roots]
        self.rank, self.dim = len(self.simples), len(self.simples[0])
        self.cartan = [[int(2 * dot(a, b) / dot(b, b)) for b in self.simples]
                       for a in self.simples]
        vectors = {c: self.vector(c) for c in self._close()}
        self.coords = sorted(vectors, key=vectors.__getitem__)
        self.roots = [vectors[c] for c in self.coords]
        self.norm2 = [dot(r, r) for r in self.roots]
        self.mult = [spec.multiplicities.get(n, 1) for n in self.norm2]
        self.scales = spec.print_scale
        self.print_scale = [self.scales.get(n, Fraction(1)) for n in self.norm2]
        acc = tuple(Fraction(0) for _ in range(self.dim))
        for c, r, m in zip(self.coords, self.roots, self.mult):
            if all(x >= 0 for x in c):
                acc = tuple(x + m * y for x, y in zip(acc, r))
        self.rho = tuple(x / 2 for x in acc)
        self.orthogonal = [tuple(v) for v in nullspace(self.simples)]

    def vector(self, coords) -> Vector:
        return tuple(sum(c * a[d] for c, a in zip(coords, self.simples))
                     for d in range(self.dim))

    def _close(self) -> set[tuple[int, ...]]:
        def reflect(i, c):
            k = sum(x * row[i] for x, row in zip(c, self.cartan))
            return c[:i] + (c[i] - k,) + c[i + 1:]
        units = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        roots = set(units) | {tuple(-x for x in e) for e in units}
        frontier = set(roots)
        while frontier:
            new = {reflect(i, c) for c in frontier for i in range(self.rank)} - roots
            roots |= new
            frontier = new
        return roots

    def trace(self, slope: Vector, icept: Vector, word):
        """The steps (letter, pairing, printed pairing, slope, intercept) of
        the word, rightmost letter first, each pairing taken before its
        reflection: three dot products for the pairing, two for each
        reflection and one for the print scale."""
        steps = []
        for i in reversed(tuple(word)):
            alpha = self.simples[i - 1]
            na = dot(alpha, alpha)
            pairing = AffineForm(2 * dot(slope, alpha) / na, 2 * dot(icept, alpha) / na)
            slope, icept = reference_reflect(alpha, slope), reference_reflect(alpha, icept)
            scale = self.scales.get(dot(alpha, alpha), Fraction(1))
            steps.append((i, pairing, pairing.scale(scale), slope, icept))
        return steps


def fraction_trace(sys, ref: ReferenceSystem, lam: CoordVector, word):
    """The steps (letter, pairing, printed pairing, slope, intercept) of the
    word, rightmost letter first: two dot products against the simple
    coroot for the pairing, and RootSystem.reflect by it, with the print
    scales of the reference build.  The final vector is cross-checked
    through the root permutation of the word on the reference build's
    roots: <w lam, w a> = <lam, a> for every simple root a, and w fixes
    every vector of the reference's orthogonal basis."""
    word = tuple(word)
    if not sys.is_reduced(word):
        raise ValueError(f"word {list(word)} is not reduced")
    sl, ic = lam.slope, lam.icept
    steps = []
    for i in reversed(word):
        alpha, coroot = sys.simples[i - 1], sys.coroots[i - 1]
        pairing = AffineForm(dot(sl, coroot), dot(ic, coroot))
        sl = sys.reflect(alpha, sl, pairing.slope)
        ic = sys.reflect(alpha, ic, pairing.intercept)
        steps.append((i, pairing, pairing.scale(ref.print_scale[ref.roots.index(alpha)]), sl, ic))
    p = sys.element(word)
    images = [ref.roots[p[ref.roots.index(a)]] for a in ref.simples]
    for got, start in ((sl, lam.slope), (ic, lam.icept)):
        if ([dot(got, b) for b in images + ref.orthogonal]
                != [dot(start, a) for a in ref.simples + ref.orthogonal]):
            raise AssertionError("trace disagrees with the root permutation")
    return steps
