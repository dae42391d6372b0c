"""Root systems, Weyl groups, and minimal coset representatives.

A :class:`RootSystem` is generated from an explicit list of simple roots in
Euclidean coordinates, given as rationals and held as integer numerators
over one denominator.  Its roots are closed under the simple reflections in
simple-root coordinates, with the integer Cartan matrix.  A root is its
index: every table is a list by root index (simple-root coordinates,
squared length, multiplicity, coroot in simple-coroot coordinates), and
the squared lengths and the multiplicity-weighted root sums behind rho and
the modulus characters are integer sums.  A vector v is read by its labels
<v, alpha_j^vee>, integer numerators over one denominator (`labels`): s_j
subtracts <v, alpha_j^vee> times row j of the Cartan matrix from them, and
<v, a^vee> is the labels against a's coroot coordinates, so pairings never
touch a rational vector.  Rational vectors are made only at the boundary
(input, printed exponents, characters; `vector`).  Weyl elements are
canonically the permutations they induce on the root indices, a faithful
action; bracket words [i1,...,iN] are reduced expressions used for
display and for factoring intertwining operators, with the rightmost letter
acting first on vectors.  `RootSystem.word_matrix` is the Euclidean matrix of
a word, kept as a reference for the tests.

Minimal coset representatives follow the positivity definitions

    [W/W_M]      = { w : w(alpha) > 0 for all simple alpha of M },
    [W_L\\W]      = { w : w^{-1}(beta) > 0 for all simple beta of L },
    [W_L\\W/W_M]  = intersection of the two,

enumerated by a breadth-first search over the orbit of a weight whose
stabilizer is W_M, then filtered by the left condition.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import rank

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Word = tuple[int, ...]
Coords = tuple[int, ...]
Element = tuple[int, ...]


def dot(x: Vector, y: Vector) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum(map(operator.mul, x, y))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def smul(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def builtin_parabolics(rank: int) -> dict[str, frozenset[int]]:
    """The parabolic labels every system knows, each with its radical's
    simple roots: G itself as `full` or `G`, the Borel as `P0` or `B`."""
    borel = frozenset(range(1, rank + 1))
    return {"full": frozenset(), "G": frozenset(), "P0": borel, "B": borel}


class ParabolicSpec(NamedTuple):
    """Standard parabolic, identified by the simple roots in its unipotent
    radical (empty set means P = G)."""

    radical: frozenset[int]

    def levi(self, rank: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, rank + 1) if i not in self.radical)

    def is_maximal(self) -> bool:
        return len(self.radical) == 1


class RootSystem:
    def __init__(self, name: str, simple_roots: Sequence[Sequence],
                 multiplicities: dict[Fraction, int] | None = None,
                 print_coroot_scale: dict[Fraction, Fraction] | None = None,
                 nu: Sequence | None = None,
                 parabolic_labels: dict[str, frozenset[int]] | None = None):
        self.name = name
        self.simples: list[Vector] = [tuple(Fraction(c) for c in v) for v in simple_roots]
        self.rank = len(self.simples)
        self.dim = len(self.simples[0])
        # the simple roots as integer numerators over one denominator den > 0
        den = math.lcm(*(c.denominator for v in self.simples for c in v))
        nums = [tuple(c.numerator * (den // c.denominator) for c in v) for v in self.simples]
        if rank(nums) != self.rank:
            raise ValueError(f"{name}: simple roots are linearly dependent")
        gram = [[sum(map(operator.mul, a, b)) for b in nums] for a in nums]
        if any(2 * g % gram[j][j] for row in gram for j, g in enumerate(row)):
            raise ValueError(f"{name}: Cartan matrix is not integral")
        # <alpha_i, alpha_j^vee>
        self.cartan = [[2 * g // gram[j][j] for j, g in enumerate(row)] for row in gram]
        self._nums, self._gdiag = nums, [row[i] for i, row in enumerate(gram)]
        self._cartan_cols = list(zip(*self.cartan))
        self._den, self._cols = den, list(zip(*nums))
        images = self._close()
        numerators = {c: tuple(sum(map(operator.mul, c, col)) for col in self._cols)
                      for c in images}
        # the roots' simple-root coordinates, indexed in the order of their vectors
        self.coords: list[Coords] = sorted(numerators, key=numerators.__getitem__)
        norms = [sum(x * x for x in numerators[c]) for c in self.coords]
        # the one table of squared lengths, read by every length-keyed question
        self.lengths: list[Fraction] = [Fraction(n, den * den) for n in norms]
        mult = {Fraction(k): int(v) for k, v in (multiplicities or {}).items()}
        self.mults = [mult.get(x, 1) for x in self.lengths]
        # a^vee = sum_i c_i (alpha_i, alpha_i)/(a, a) alpha_i^vee for a = sum_i c_i alpha_i
        self.coroot_coords: list[Coords] = [
            tuple(x * g // n for x, g in zip(c, self._gdiag)) for c, n in zip(self.coords, norms)]
        index = {c: k for k, c in enumerate(self.coords)}
        self._positive = [all(x >= 0 for x in c) for c in self.coords]
        if any(not p and any(x > 0 for x in c) for p, c in zip(self._positive, self.coords)):
            raise ValueError(f"{name}: simple roots do not form a simple system")
        self._pos_idx = [k for k, p in enumerate(self._positive) if p]
        self._simple_idx = [index[tuple(int(i == j) for j in range(self.rank))]
                            for i in range(self.rank)]
        # alpha^vee = 2 alpha / (alpha, alpha), one per simple root
        self.coroots: list[Vector] = [tuple(Fraction(2 * x * den, row[i]) for x in n)
                                      for i, (n, row) in enumerate(zip(nums, gram))]
        self._reflections = [tuple(index[images[c][i]] for c in self.coords)
                             for i in range(self.rank)]
        self.nu: Vector | None = tuple(Fraction(c) for c in nu) if nu is not None else None
        self.parabolic_labels = dict(parabolic_labels or {})
        self._parabolics = {**builtin_parabolics(self.rank), **self.parabolic_labels}
        # rho from its doubled simple-root coordinates, and its labels <rho, alpha_j^vee>
        rho2 = self._weighted_coeffs(self._pos_idx)
        self._rho = tuple(x / 2 for x in self.vector(rho2))
        self.rho_labels = [Fraction(sum(map(operator.mul, rho2, col)), 2)
                           for col in self._cartan_cols]
        self.simple_lengths = [self.lengths[k] for k in self._simple_idx]
        # each simple root's display scale of coroot pairings, as the verified tables print
        scales = {Fraction(k): Fraction(v) for k, v in (print_coroot_scale or {}).items()}
        self.simple_scales = [scales.get(x, Fraction(1)) for x in self.simple_lengths]
        self._coset_cache: dict[frozenset[int], list[Word]] = {}

    # ----- construction -------------------------------------------------

    def reflect(self, alpha: Vector, v: Vector, k: Fraction) -> Vector:
        """v - k alpha: the reflection of v in alpha when k = <v, alpha^vee>."""
        return tuple(x - k * a for x, a in zip(v, alpha))

    def _reflect_coords(self, i: int, c: Coords) -> Coords:
        """s_{i+1} on simple-root coordinates: c - <c, alpha_{i+1}^vee> e_{i+1}."""
        k = sum(map(operator.mul, c, self._cartan_cols[i]))
        return c[:i] + (c[i] - k,) + c[i + 1:]

    def _close(self) -> dict[Coords, list[Coords]]:
        """The coordinates of every root, each with its images under s_1, ...,
        s_rank, by breadth-first search from the simple roots and their
        negatives."""
        units = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        images: dict[Coords, list[Coords]] = {}
        frontier = set(units) | {tuple(-x for x in e) for e in units}
        while frontier:
            for c in frontier:
                images[c] = [self._reflect_coords(i, c) for i in range(self.rank)]
            frontier = {d for c in frontier for d in images[c]} - images.keys()
        return images

    def vector(self, coords: Sequence, d: int = 1) -> Vector:
        """The Euclidean vector sum_i coords[i]/d * alpha_{i+1}."""
        return tuple(Fraction(sum(map(operator.mul, coords, col)), self._den * d)
                     for col in self._cols)

    def labels(self, *vectors: Vector) -> tuple[list[list[int]], int]:
        """The labels <v, alpha_j^vee> = 2 (v, alpha_j)/(alpha_j, alpha_j),
        j = 1..rank, of each vector, integer numerators over one denominator."""
        e, top = math.lcm(*(x.denominator for v in vectors for x in v)), math.lcm(*self._gdiag)
        us = [[x.numerator * (e // x.denominator) for x in v] for v in vectors]
        nums = [[2 * self._den * (top // g) * sum(map(operator.mul, u, n))
                 for n, g in zip(self._nums, self._gdiag)] for u in us]
        d = math.gcd(e * top, *(x for row in nums for x in row))
        return [[x // d for x in row] for row in nums], e * top // d

    def _weighted_coeffs(self, indices: list[int]) -> list[int]:
        """The simple-root coordinates of the sum of the roots at the given
        indices, each times its multiplicity."""
        return [sum(self.mults[k] * self.coords[k][i] for k in indices)
                for i in range(self.rank)]

    # ----- characters -----------------------------------------------------

    def rho_weighted(self) -> Vector:
        """Half the multiplicity-weighted sum of positive roots."""
        return self._rho

    # ----- words and group elements -------------------------------------

    def element(self, word: Sequence[int]) -> Element:
        """The word's group element as the permutation p of the root indices,
        w(root k) = root p[k]; equal elements give equal tuples."""
        p = tuple(range(len(self.coords)))
        for i in word:
            p = tuple(map(p.__getitem__, self._reflections[i - 1]))
        return p

    def word_matrix(self, word: Sequence[int]) -> Matrix:
        """The orthogonal matrix of the word's group element, whose column d
        is the image of the d-th standard basis vector.  The tests' Euclidean
        reference, kept by name for the benchmark's tracer; the verifier never
        calls it."""
        cols = []
        for d in range(self.dim):
            v = tuple(Fraction(int(i == d)) for i in range(self.dim))
            for i in reversed(word):
                v = self.reflect(self.simples[i - 1], v, dot(v, self.coroots[i - 1]))
            cols.append(v)
        return tuple(zip(*cols))

    def inversion_indices(self, word: Sequence[int]) -> list[int]:
        """The indices of the positive roots sent negative by the word's
        group element."""
        p = self.element(word)
        return [k for k in self._pos_idx if not self._positive[p[k]]]

    def inversions(self, word: Sequence[int]) -> list[Vector]:
        """Positive roots sent negative by the word's group element, as vectors."""
        return [self.vector(self.coords[k]) for k in self.inversion_indices(word)]

    def length(self, word: Sequence[int]) -> int:
        return len(self.inversion_indices(word))

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length(word) == len(word)

    # ----- parabolic data -------------------------------------------------

    def parabolic(self, label: str) -> ParabolicSpec:
        """The parabolic of a configured label, or else of a built-in one."""
        if label not in self._parabolics:
            raise KeyError(f"unknown parabolic {label!r} for system {self.name}")
        return ParabolicSpec(self._parabolics[label])

    def _radical(self, p: ParabolicSpec) -> list[int]:
        """Indices of the positive roots in the unipotent radical of P."""
        levi = set(p.levi(self.rank))
        nodes = [i for i in range(self.rank) if i + 1 not in levi]
        return [k for k in self._pos_idx if any(self.coords[k][i] for i in nodes)]

    def modulus_exponent(self, p: ParabolicSpec) -> Fraction:
        """Exponent s_P with delta_P = |nu|^{s_P}, for maximal P.

        delta_P is the multiplicity-weighted sum of the radical roots; it
        must be proportional to the configured character vector nu.
        """
        if not p.is_maximal():
            raise ValueError("modulus exponent needs a maximal parabolic")
        if self.nu is None:
            raise ValueError(f"system {self.name} has no configured character nu")
        # proportionality is only required on the root lattice (characters may
        # differ by a central direction, e.g. the sum-zero-plane systems), so
        # on the labels; the config rejects a nu orthogonal to every simple root
        coeffs = self._weighted_coeffs(self._radical(p))
        acc = [sum(map(operator.mul, coeffs, col)) for col in self._cartan_cols]
        (nu,), d = self.labels(self.nu)
        j = next(j for j, x in enumerate(nu) if x)
        if any(a * nu[j] != x * acc[j] for a, x in zip(acc, nu)):
            raise ValueError("delta_P is not proportional to nu on the root lattice")
        return Fraction(acc[j] * d, nu[j])

    # ----- coset enumeration ----------------------------------------------

    def coset_reps(self, right: ParabolicSpec) -> list[Word]:
        """Minimal-length representatives of W/W_M, M the Levi of `right`.

        BFS over the W-orbit of the weight sum_{i not in M} omega_i, held as
        its Dynkin labels, whose stabilizer is exactly W_M; the BFS depth
        equals the minimal length, and ties pick the lexicographically
        smallest word.  Sorted by (length, word).
        """
        levi = frozenset(right.levi(self.rank))
        if levi in self._coset_cache:
            return self._coset_cache[levi]
        base = tuple(int(i not in levi) for i in range(1, self.rank + 1))
        words: dict[tuple[int, ...], Word] = {base: ()}
        frontier = [base]
        while frontier:
            new: dict[tuple[int, ...], Word] = {}
            for pt in frontier:
                w = words[pt]
                for i in range(1, self.rank + 1):
                    d = pt[i - 1]
                    pt2 = tuple(x - d * a for x, a in zip(pt, self.cartan[i - 1]))
                    if pt2 in words:
                        continue
                    cand = (i,) + w
                    if pt2 not in new or cand < new[pt2]:
                        new[pt2] = cand
            words.update(new)
            frontier = list(new)
        reps = sorted(words.values(), key=lambda w: (len(w), w))
        self._coset_cache[levi] = reps
        return reps

    def in_left_set(self, word: Sequence[int], left: ParabolicSpec) -> bool:
        inv = self.element(tuple(reversed(word)))
        return all(self._positive[inv[self._simple_idx[j - 1]]]
                   for j in left.levi(self.rank))

    def double_coset_reps(self, left: ParabolicSpec, right: ParabolicSpec) -> list[Word]:
        return [w for w in self.coset_reps(right) if self.in_left_set(w, left)]

    def associated_simple_roots(self, word: Sequence[int],
                                left: ParabolicSpec, source: ParabolicSpec) -> tuple[int, ...]:
        """Simple roots beta of the Levi L with w^{-1}(beta) in the radical
        of the source parabolic, for w a representative of
        double_coset_reps(left, source), as the census matched it."""
        inv = self.element(tuple(reversed(word)))
        rad = set(self._radical(source))
        return tuple(j for j in left.levi(self.rank)
                     if inv[self._simple_idx[j - 1]] in rad)
