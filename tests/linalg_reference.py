"""Exact linear algebra over Fractions, as a reference for the tests.

The verifier eliminates fraction-free on integer rows (`exactnum._eliminate`)
and returns integer numerators over one denominator.  This module keeps the
Gauss-Jordan elimination over `fractions.Fraction` that came before: every
pivot row is divided by its pivot, so the reduced row echelon form is read
off directly.  `tests/test_linalg_differential.py` compares the two.
"""

from __future__ import annotations

from fractions import Fraction


def eliminate(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form on its first
    `ncols` columns (later columns ride along as an augmentation) and
    return the pivot columns."""
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
    return pivots


def solve(a, b) -> list[Fraction]:
    """The unique x with a x = b; ValueError if the square matrix a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    if len(eliminate(m, n)) < n:
        raise ValueError("singular system")
    return [row[n] for row in m]


def inverse(a) -> list[list[Fraction]]:
    """The inverse of a square matrix; ValueError if it is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    if len(eliminate(m, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in m]


def nullspace(a) -> list[list[Fraction]]:
    """The basis of {v : a v = 0} read off the reduced row echelon form: one
    vector per free column, with a 1 there and 0 in the other free columns."""
    ncols = len(a[0])
    m = [[Fraction(x) for x in row] for row in a]
    pivots = eliminate(m, ncols)
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(ncols)]
        for row, pc in zip(m, pivots):
            v[pc] = -row[free]
        out.append(v)
    return out


def pivot_count(a) -> int:
    """The rank of a, as the number of pivot columns."""
    return len(eliminate([[Fraction(x) for x in row] for row in a], len(a[0])))
