"""Root systems, Weyl groups, and minimal coset representatives.

A :class:`RootSystem` is generated from an explicit list of simple roots in
Euclidean coordinates (exact rationals).  Weyl elements are canonically the
orthogonal matrices they induce; bracket words [i1,...,iN] are reduced
expressions used for display and for factoring intertwining operators, with
the rightmost letter acting first on vectors.

Minimal coset representatives follow the positivity definitions

    [W/W_M]      = { w : w(alpha) > 0 for all simple alpha of M },
    [W_L\\W]      = { w : w^{-1}(beta) > 0 for all simple beta of L },
    [W_L\\W/W_M]  = intersection of the two,

enumerated by a breadth-first search over the orbit of a point whose
stabilizer is W_M, then filtered by the left condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactnum import AffineForm, inverse

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Word = tuple[int, ...]


def dot(x: Vector, y: Vector) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(x, y))


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def smul(c: Fraction, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


class NotMinimalRepresentativeError(ValueError):
    pass


@dataclass(frozen=True)
class ParabolicSpec:
    """Standard parabolic, identified by the simple roots in its unipotent
    radical (empty set means P = G)."""

    radical: frozenset[int]

    @classmethod
    def of(cls, radical: Iterable[int]) -> "ParabolicSpec":
        return cls(frozenset(radical))

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
        self.roots: list[Vector] = self._close()
        self._pos_set: set[Vector] = set()
        self.positives: list[Vector] = []
        self._gram_inv = inverse([[dot(a, b) for b in self.simples] for a in self.simples])
        self._coords_cache: dict[Vector, tuple[Fraction, ...]] = {}
        for r in self.roots:
            if self._is_positive(r):
                self.positives.append(r)
                self._pos_set.add(r)
        self._mult = {Fraction(k): int(v) for k, v in (multiplicities or {}).items()}
        self._print_scale = {Fraction(k): Fraction(v)
                             for k, v in (print_coroot_scale or {}).items()}
        self.nu: Vector | None = tuple(Fraction(c) for c in nu) if nu is not None else None
        self.parabolic_labels = dict(parabolic_labels or {})
        self._simple_mats = [self._reflection_matrix(a) for a in self.simples]
        self._coset_cache: dict[frozenset[int], list[Word]] = {}
        self._census_cache: dict[tuple[frozenset[int], frozenset[int]], list[Word]] = {}

    # ----- construction -------------------------------------------------

    def reflect(self, alpha: Vector, v: Vector) -> Vector:
        c = 2 * dot(v, alpha) / dot(alpha, alpha)
        return vsub(v, smul(c, alpha))

    def _close(self) -> list[Vector]:
        roots = set(self.simples) | {smul(Fraction(-1), a) for a in self.simples}
        frontier = set(roots)
        while frontier:
            new = set()
            for r in frontier:
                for a in self.simples:
                    r2 = self.reflect(a, r)
                    if r2 not in roots:
                        new.add(r2)
            roots |= new
            frontier = new
        return sorted(roots)

    def coords(self, root: Vector) -> tuple[Fraction, ...]:
        """Coordinates of a root in the simple-root basis."""
        if root not in self._coords_cache:
            self._coords_cache[root] = mat_vec(self._gram_inv,
                                               tuple(dot(root, a) for a in self.simples))
        return self._coords_cache[root]

    def _is_positive(self, root: Vector) -> bool:
        for c in self.coords(root):
            if c != 0:
                return c > 0
        return False

    def is_positive_root(self, v: Vector) -> bool:
        return v in self._pos_set

    def _reflection_matrix(self, alpha: Vector) -> Matrix:
        cols = []
        for j in range(self.dim):
            e = tuple(Fraction(int(i == j)) for i in range(self.dim))
            cols.append(self.reflect(alpha, e))
        return tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim))

    # ----- multiplicities and characters ---------------------------------

    def multiplicity(self, root: Vector) -> int:
        return self._mult.get(dot(root, root), 1)

    def rho_weighted(self) -> Vector:
        """Half the multiplicity-weighted sum of positive roots."""
        acc = tuple(Fraction(0) for _ in range(self.dim))
        for r in self.positives:
            acc = vadd(acc, smul(Fraction(self.multiplicity(r)), r))
        return smul(Fraction(1, 2), acc)

    def weyl_order(self) -> int:
        """|W| from the height partition of the positive roots.

        The partition of Phi+ by height is conjugate to the partition given
        by the exponents, and |W| is the product of (exponent + 1).
        """
        heights: dict[int, int] = {}
        for r in self.positives:
            h = sum(self.coords(r))
            assert h.denominator == 1
            heights[int(h)] = heights.get(int(h), 0) + 1
        counts = [heights.get(h, 0) for h in range(1, max(heights) + 1)]
        exps = []
        for k in range(1, len(self.simples) + 1):
            exps.append(sum(1 for c in counts if c >= k))
        order = 1
        for part in exps:
            order *= part + 1
        return order

    # ----- words and matrices -------------------------------------------

    def word_matrix(self, word: Sequence[int]) -> Matrix:
        m = identity_matrix(self.dim)
        for i in word:
            m = mat_mul(m, self._simple_mats[i - 1])
        return m

    def act(self, word: Sequence[int], v: Vector) -> Vector:
        for i in reversed(word):
            v = self.reflect(self.simples[i - 1], v)
        return v

    def inversions(self, word: Sequence[int]) -> list[Vector]:
        """Positive roots sent negative by the word's group element."""
        m = self.word_matrix(word)
        return [r for r in self.positives if mat_vec(m, r) not in self._pos_set]

    def length(self, word: Sequence[int]) -> int:
        return len(self.inversions(word))

    def is_reduced(self, word: Sequence[int]) -> bool:
        return self.length(word) == len(word)

    # ----- parabolic data -------------------------------------------------

    def parabolic(self, label_or_spec) -> ParabolicSpec:
        if isinstance(label_or_spec, ParabolicSpec):
            return label_or_spec
        if isinstance(label_or_spec, str):
            label = label_or_spec
            if label in self.parabolic_labels:
                return ParabolicSpec(self.parabolic_labels[label])
            if label in ("full", "G"):
                return ParabolicSpec(frozenset())
            if label in ("P0", "B"):
                return ParabolicSpec(frozenset(range(1, self.rank + 1)))
            raise KeyError(f"unknown parabolic {label!r} for system {self.name}")
        return ParabolicSpec.of(label_or_spec)

    def radical_roots(self, p: ParabolicSpec) -> list[Vector]:
        """Positive roots in the unipotent radical of P."""
        levi = set(p.levi(self.rank))
        out = []
        for r in self.positives:
            c = self.coords(r)
            if any(c[i - 1] != 0 for i in range(1, self.rank + 1) if i not in levi):
                out.append(r)
        return out

    def levi_positive_count(self, p: ParabolicSpec) -> int:
        return len(self.positives) - len(self.radical_roots(p))

    def modulus_exponent(self, p: ParabolicSpec) -> Fraction:
        """Exponent s_P with delta_P = |nu|^{s_P}, for maximal P.

        delta_P is the multiplicity-weighted sum of the radical roots; it
        must be proportional to the configured character vector nu.
        """
        if not p.is_maximal():
            raise ValueError("modulus exponent needs a maximal parabolic")
        if self.nu is None:
            raise ValueError(f"system {self.name} has no configured character nu")
        acc = tuple(Fraction(0) for _ in range(self.dim))
        for r in self.radical_roots(p):
            acc = vadd(acc, smul(Fraction(self.multiplicity(r)), r))
        # proportionality is only required on the root lattice (characters may
        # differ by a central direction, e.g. the sum-zero-plane systems)
        alpha = next(a for a in self.simples if dot(self.nu, a) != 0)
        k = dot(acc, alpha) / dot(self.nu, alpha)
        diff = vsub(acc, smul(k, self.nu))
        if any(dot(diff, a) != 0 for a in self.simples):
            raise ValueError("delta_P is not proportional to nu on the root lattice")
        return k

    # ----- pairings -------------------------------------------------------

    def coroot_pairing(self, slope: Vector, icept: Vector, root: Vector) -> AffineForm:
        """Pairing <a*s + b, root^vee> as an exact affine form."""
        na = dot(root, root)
        return AffineForm(Fraction(2) * dot(slope, root) / na,
                          Fraction(2) * dot(icept, root) / na)

    def print_scale(self, root: Vector) -> Fraction:
        """Scale applied to coroot pairings for display, matching the
        per-system convention used in the verified tables."""
        return self._print_scale.get(dot(root, root), Fraction(1))

    # ----- coset enumeration ----------------------------------------------

    def coset_reps(self, right: ParabolicSpec) -> list[Word]:
        """Minimal-length representatives of W/W_M, M the Levi of `right`.

        BFS over the W-orbit of a point stabilized exactly by W_M; the BFS
        depth equals the minimal length, and ties pick the lexicographically
        smallest word.  Sorted by (length, word).
        """
        levi = frozenset(right.levi(self.rank))
        if levi in self._coset_cache:
            return self._coset_cache[levi]
        rhs = tuple(Fraction(0) if (i + 1) in levi else Fraction(1) for i in range(self.rank))
        coeff = mat_vec(self._gram_inv, rhs)
        base = tuple(sum(coeff[i] * self.simples[i][d] for i in range(self.rank))
                     for d in range(self.dim))
        words: dict[Vector, Word] = {base: ()}
        frontier = [base]
        while frontier:
            new: dict[Vector, Word] = {}
            for pt in frontier:
                w = words[pt]
                for i in range(1, self.rank + 1):
                    pt2 = self.reflect(self.simples[i - 1], pt)
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
        minv = self.word_matrix(tuple(reversed(word)))
        return all(mat_vec(minv, self.simples[j - 1]) in self._pos_set
                   for j in left.levi(self.rank))

    def double_coset_reps(self, left: ParabolicSpec, right: ParabolicSpec) -> list[Word]:
        key = (left.radical, right.radical)
        if key not in self._census_cache:
            self._census_cache[key] = [w for w in self.coset_reps(right)
                                       if self.in_left_set(w, left)]
        return self._census_cache[key]

    def longest_rep(self, right: ParabolicSpec) -> Word:
        """The unique maximal-length element of [W/W_M]."""
        reps = self.coset_reps(right)
        top = len(reps[-1])
        longest = [w for w in reps if len(w) == top]
        if len(longest) != 1:
            raise ValueError("[W/W_M] has no unique longest element?")
        return longest[0]

    def associated_simple_roots(self, word: Sequence[int],
                                left: ParabolicSpec, source: ParabolicSpec) -> tuple[int, ...]:
        """Simple roots beta of the Levi L with w^{-1}(beta) in the radical
        of the source parabolic."""
        word = tuple(word)
        target = self.word_matrix(word)
        if not any(self.word_matrix(w) == target and len(w) == len(word)
                   for w in self.double_coset_reps(left, source)):
            raise NotMinimalRepresentativeError(
                f"{list(word)} is not a minimal double-coset representative")
        minv = self.word_matrix(tuple(reversed(word)))
        rad = set(self.radical_roots(source))
        return tuple(j for j in left.levi(self.rank)
                     if mat_vec(minv, self.simples[j - 1]) in rad)

    # ----- brute-force oracle ----------------------------------------------

    def enumerate_group(self, max_order: int = 2000) -> dict[Matrix, Word]:
        """Full BFS enumeration of W by matrices (rank <= 4 scale oracle)."""
        ident = identity_matrix(self.dim)
        seen: dict[Matrix, Word] = {ident: ()}
        frontier = [ident]
        while frontier:
            new = []
            for m in frontier:
                for i in range(1, self.rank + 1):
                    m2 = mat_mul(self._simple_mats[i - 1], m)
                    if m2 not in seen:
                        seen[m2] = (i,) + seen[m]
                        new.append(m2)
                        if len(seen) > max_order:
                            raise ValueError("group larger than the oracle bound")
            frontier = new
        return seen
