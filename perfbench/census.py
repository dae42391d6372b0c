"""Independent check of double-coset censuses.

This module does not import exceis.  It reads the simple roots and the
parabolic labels straight from the config file and applies its own exact
reflections, so a fault in ``exceis.rootsys`` cannot hide here.

For a census ``C`` of ``[W_L \\ W / W_M]`` it checks that

* every word is reduced: building ``w`` letter by letter, the prefix sends
  the next simple root to a positive root;
* every word is minimal on both sides: ``w(alpha) > 0`` for the simple roots
  ``alpha`` of the Levi ``M`` and ``w^-1(beta) > 0`` for those of ``L``;
* no two words are the same group element;
* Kilmoyer's identity holds:
  ``sum_w |W_L| |W_M| / |W_K| = |W|`` with
  ``K = {beta in Delta_L : w^-1(beta) in Delta_M}``.  The summand is the size
  of the double coset of ``w``, so the identity fails when a double coset is
  missing or counted twice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _dot(x: Vector, y: Vector) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a square exact matrix."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class Reflections:
    """The reflection group of one configured system, from its simple roots."""

    def __init__(self, name: str, simple_roots: Sequence[Sequence], labels: dict):
        self.name = name
        self.simples: list[Vector] = [tuple(Fraction(str(c)) for c in v) for v in simple_roots]
        self.rank = len(self.simples)
        self.labels = {lab: frozenset(int(i) for i in radical) for lab, radical in labels.items()}
        gram = [[_dot(a, b) for b in self.simples] for a in self.simples]
        self._gram_inv = _invert(gram)
        self._orders: dict[frozenset[int], int] = {}

    def reflect(self, i: int, v: Vector) -> Vector:
        a = self.simples[i - 1]
        c = 2 * _dot(v, a) / _dot(a, a)
        return tuple(x - c * y for x, y in zip(v, a))

    def act(self, word: Sequence[int], v: Vector) -> Vector:
        """Image of v under the word; the rightmost letter acts first."""
        for i in reversed(word):
            v = self.reflect(i, v)
        return v

    def is_positive(self, root: Vector) -> bool:
        """Sign of a root from its coordinates in the simple-root basis."""
        rhs = [_dot(root, a) for a in self.simples]
        coords = [sum((g * r for g, r in zip(row, rhs)), Fraction(0)) for row in self._gram_inv]
        if all(c >= 0 for c in coords) and any(c > 0 for c in coords):
            return True
        if all(c <= 0 for c in coords) and any(c < 0 for c in coords):
            return False
        raise ValueError(f"{self.name}: {root} is not a root")

    def levi(self, label: str) -> frozenset[int]:
        """Simple roots of the Levi of a parabolic label (radical complement)."""
        if label in self.labels:
            radical = self.labels[label]
        elif label in ("full", "G"):
            radical = frozenset()
        elif label in ("P0", "B"):
            radical = frozenset(range(1, self.rank + 1))
        else:
            raise KeyError(f"{self.name}: unknown parabolic {label!r}")
        return frozenset(range(1, self.rank + 1)) - radical

    def order(self, subset: Iterable[int]) -> int:
        """|W_J|, as the orbit size of a point regular for W_J.

        The point v in the span of Delta_J with <v, alpha_j> = 1 for every
        j in J lies in the open chamber of W_J, so its stabilizer is trivial.
        """
        gens = sorted(frozenset(subset))
        key = frozenset(gens)
        if key not in self._orders:
            sub_inv = _invert([[_dot(self.simples[a - 1], self.simples[b - 1]) for b in gens]
                               for a in gens])
            coeffs = [sum(row, Fraction(0)) for row in sub_inv]
            start = tuple(sum((c * self.simples[j - 1][d] for c, j in zip(coeffs, gens)),
                              Fraction(0)) for d in range(len(self.simples[0])))
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for pt in frontier:
                    for i in gens:
                        img = self.reflect(i, pt)
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
                frontier = nxt
            self._orders[key] = len(seen)
        return self._orders[key]


def load_systems(raw_config: dict) -> dict[str, Reflections]:
    """Every configured system, under its name and each of its aliases."""
    out: dict[str, Reflections] = {}
    for name, spec in raw_config["systems"].items():
        refl = Reflections(name, spec["simple_roots"], spec.get("parabolics") or {})
        out[name] = refl
        for alias in spec.get("aliases") or []:
            out.setdefault(alias, refl)
    return out


def census_errors(refl: Reflections, left: str, right: str,
                  words: Sequence[Sequence[int]]) -> list[str]:
    """Reasons why ``words`` is not the census [W_left \\ W / W_right]; empty
    when it is."""
    lev_l, lev_m = refl.levi(left), refl.levi(right)
    errors: list[str] = []
    seen: dict[tuple, list[int]] = {}
    total = Fraction(0)
    for word in words:
        word = list(word)
        tag = f"{refl.name} {left}\\W/{right} word {word}"
        if any(not 1 <= i <= refl.rank for i in word):
            errors.append(f"{tag}: letter out of range")
            continue
        if not all(refl.is_positive(refl.act(word[:k], refl.simples[word[k] - 1]))
                   for k in range(len(word))):
            errors.append(f"{tag}: not reduced")
        if not all(refl.is_positive(refl.act(word, refl.simples[a - 1])) for a in lev_m):
            errors.append(f"{tag}: not minimal on the right")
        inverse = word[::-1]
        if not all(refl.is_positive(refl.act(inverse, refl.simples[b - 1])) for b in lev_l):
            errors.append(f"{tag}: not minimal on the left")
        element = tuple(refl.act(word, a) for a in refl.simples)
        if element in seen:
            errors.append(f"{tag}: same element as {seen[element]}")
        seen[element] = word
        levi_m_roots = {refl.simples[a - 1] for a in lev_m}
        k = [b for b in lev_l if refl.act(inverse, refl.simples[b - 1]) in levi_m_roots]
        total += Fraction(refl.order(lev_l) * refl.order(lev_m), refl.order(k))
    full = refl.order(range(1, refl.rank + 1))
    if total != full:
        errors.append(f"{refl.name} {left}\\W/{right}: Kilmoyer sum {total} != |W| = {full}")
    return errors
