"""The verifier's fraction-free linear algebra (`exactnum.solve`,
`inverse`, `nullspace`, `rank`) against the Fraction Gauss-Jordan path kept
in tests/linalg_reference.py, on rational matrices, singular and
rank-deficient ones included: each matrix goes to the verifier with its
denominators cleared, and the answers are read back as Fractions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from exceis import exactnum

scalars = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def matrices(draw, square=False):
    """A rational matrix; about half the time its last row is a rational
    combination of the others, so singular matrices come up often."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        c = draw(st.lists(scalars, min_size=nrows - 1, max_size=nrows - 1))
        rows[-1] = [sum(ci * row[j] for ci, row in zip(c, rows)) for j in range(ncols)]
    return rows


def cleared(rows):
    """Rational rows as integer rows m * rows, with m their least common
    denominator."""
    m = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * m) for x in row] for row in rows], m


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None)
@given(matrices(square=True), st.data())
def test_solve(a, data):
    """a x = b and (m a) x = m b have one solution x."""
    b = data.draw(st.lists(scalars, min_size=len(a), max_size=len(a)))
    rows, _ = cleared([row + [y] for row, y in zip(a, b)])
    got = outcome(exactnum.solve, [row[:-1] for row in rows], [row[-1] for row in rows])
    want = outcome(ref.solve, a, b)
    if want is ValueError:
        assert got is ValueError
    else:
        nums, den = got
        assert [Fraction(x, den) for x in nums] == want


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_inverse(a):
    """(m a)^-1 = a^-1 / m."""
    rows, m = cleared(a)
    got, want = outcome(exactnum.inverse, rows), outcome(ref.inverse, a)
    if want is ValueError:
        assert got is ValueError
    else:
        inv, den = got
        assert [[Fraction(m * x, den) for x in row] for row in inv] == want


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace(a):
    """Each integer vector is a positive multiple of the reference vector
    for the same free column, which has a 1 there."""
    rows, _ = cleared(a)
    got, want = exactnum.nullspace(rows), ref.nullspace(a)
    ncols = len(a[0])
    pivots = ref.eliminate([[Fraction(x) for x in row] for row in a], ncols)
    frees = [c for c in range(ncols) if c not in pivots]
    assert len(got) == len(want) == len(frees)
    for v, w, free in zip(got, want, frees):
        assert w[free] == 1 and v[free] > 0 and v == [v[free] * x for x in w]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank(a):
    assert exactnum.rank(cleared(a)[0]) == ref.pivot_count(a)


def test_rejects_rational_entries():
    """Floor division on a Fraction is no exact division: rational entries
    are refused, not eliminated."""
    for call in (lambda: exactnum.solve([[Fraction(1, 2)]], [1]),
                 lambda: exactnum.inverse([[1, 0], [0, Fraction(1, 2)]]),
                 lambda: exactnum.nullspace([[Fraction(1, 2), 1]]),
                 lambda: exactnum.rank([[1, Fraction(1, 2)]])):
        with pytest.raises(TypeError, match="integer entries"):
            call()
