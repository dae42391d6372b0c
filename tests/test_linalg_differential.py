"""The verifier's fraction-free linear algebra (`exactnum.inverse` and
`rank`) against the Fraction Gauss-Jordan path kept
in tests/linalg_reference.py, on rational matrices, singular and
rank-deficient ones included: each matrix goes to the verifier with its
denominators cleared, and the answers are read back as Fractions.  Two of
its callers are compared with a reference solve as well: the fundamental
weights of the oracles' absolute systems, and the E-parts of the etale
projection."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from compalg_reference import definite_octonions
from exceis import compalg, exactnum
from exceis.config import load_config

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
def test_rank(a):
    assert exactnum.rank(cleared(a)[0]) == ref.pivot_count(a)


def test_rejects_rational_entries():
    """Floor division on a Fraction is no exact division: Fraction entries
    are refused, not eliminated, an integral one as well."""
    for bad in (Fraction(1, 2), Fraction(2, 1)):
        for call in (lambda: exactnum.inverse([[1, 0], [0, bad]]),
                     lambda: exactnum.rank([[1, bad]])):
            with pytest.raises(TypeError, match="integer entries"):
                call()


def test_fundamental_weights():
    """omega_node has the coefficients c with C^T c = e_node, C the Cartan
    matrix of the oracle's absolute system."""
    cfg = load_config()
    names = [name for name, case in sorted(cfg.cases.items()) if case.oracle]
    assert names
    for name in names:
        oracle = cfg.oracle(name)
        sys = oracle.absolute
        cartan_t = [list(col) for col in zip(*sys.cartan)]
        for node in range(1, sys.rank + 1):
            coeff = ref.solve(cartan_t, [int(j + 1 == node) for j in range(sys.rank)])
            assert oracle.fundamental_weight(node) == sys.vector(coeff), (name, node)


@pytest.mark.parametrize("descriptor", [("split3",), ("QxF", 2), ("field", (1, -2, -1))])
def test_etale_projection(descriptor):
    """The E-coefficients of x are the solution of the Gram system of the
    E-basis against the pairings (x, b), and x minus its E-part is in V_E."""
    jalg = compalg.JordanAlgebra(definite_octonions())
    et = compalg.CubicEtale(jalg, descriptor)
    basis = et.basis_elements
    gram = [[jalg.trace_pairing(a, b) for b in basis] for a in basis]
    rng = random.Random(f"projection:{descriptor[0]}")
    for _ in range(50):
        x = jalg.random(rng)
        coeffs, v = et.project(x)
        assert list(coeffs) == ref.solve(gram, [jalg.trace_pairing(x, b) for b in basis])
        assert et.in_ve(v) and jalg.add(et.embed(coeffs), v) == x
