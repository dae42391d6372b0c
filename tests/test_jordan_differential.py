"""The octonion norm, the Jordan adjoint, the trace pairing and the doubled
Jordan product against the references kept in tests/compalg_reference.py,
which build them from full octonion products, conjugates and scalings, and
the product from 3x3 octonion matrices.  Over definite Q, split Q,
GF(11) and GF(13) the two paths give the same values of the same types,
compared as repr: ints stay ints, a Fraction input gives a Fraction, and
over GF(p) an unreduced input gives the reduced residue.

One difference in type is by design: the matrix reference multiplies
zero-padded diagonal entries, so a Fraction in one coordinate of x_i makes
every coordinate of slot i a Fraction, where the coordinate formula keeps
the others ints.  The drawn elements rarely hold so lone a Fraction, and
test_lone_fraction_stays_in_its_coordinate pins that case."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from compalg_reference import (SPLIT_GAMMAS, definite_octonions, reference_norm,
                               reference_sharp, reference_symmetric_product,
                               reference_trace_pairing)
from exceis.compalg import JordanAlgebra, JordanElement, PrimeFieldScalars, split_octonions

ALGEBRAS = {"definite-Q": JordanAlgebra(definite_octonions()),
            "split-Q": JordanAlgebra(split_octonions(SPLIT_GAMMAS)),
            "GF(11)": JordanAlgebra(split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(11))),
            "GF(13)": JordanAlgebra(split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(13)))}

# Over Q: ints, Fractions, and integral Fractions, which keep their type.
# Over GF(p): ints in and out of [0, p), as the cleared triality
# coordinates reach the norm unreduced.
RATIONAL = st.one_of(st.integers(-30, 30),
                     st.fractions(-10, 10, max_denominator=6),
                     st.integers(-30, 30).map(Fraction))
RESIDUE = st.integers(-40, 40)


@st.composite
def elements(draw, name: str) -> JordanElement:
    s = RESIDUE if name.startswith("GF") else RATIONAL
    return JordanElement(draw(st.tuples(s, s, s)),
                         tuple(draw(st.tuples(*[s] * 8)) for _ in range(3)))


@st.composite
def cases(draw, arity: int):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    return (ALGEBRAS[name], *(draw(elements(name)) for _ in range(arity)))


@settings(max_examples=200, deadline=None)
@given(cases(1))
def test_norm(case):
    jalg, a = case
    for x in a.x:
        assert repr(jalg.oct.norm(x)) == repr(reference_norm(jalg.oct, x))


@settings(max_examples=200, deadline=None)
@given(cases(1))
def test_sharp(case):
    jalg, a = case
    assert repr(jalg.sharp(a)) == repr(reference_sharp(jalg, a))


@settings(max_examples=200, deadline=None)
@given(cases(2))
def test_trace_pairing(case):
    jalg, a, b = case
    assert repr(jalg.trace_pairing(a, b)) == repr(reference_trace_pairing(jalg, a, b))


@settings(max_examples=200, deadline=None)
@given(cases(2), st.booleans())
def test_symmetric_product(case, same):
    # b is a: the square, where the reference forms one matrix product
    jalg, a, b = case
    if same:
        b = a
    assert repr(jalg.symmetric_product(a, b)) == repr(reference_symmetric_product(jalg, a, b))


def test_lone_fraction_stays_in_its_coordinate():
    jalg = ALGEBRAS["definite-Q"]
    z = (0,) * 8
    a = JordanElement((1, 2, 3), ((0, 0, 0, Fraction(2), 0, 0, 0, 0), z, z))
    b = JordanElement((1, 1, 1), ((1,) * 8, z, z))
    got, ref = jalg.symmetric_product(a, b), reference_symmetric_product(jalg, a, b)
    assert got == ref and got.x[0] == (5, 5, 5, 9, 5, 5, 5, 5)
    assert [type(v) for v in got.x[0]] == [int] * 3 + [Fraction] + [int] * 4
    assert all(type(v) is Fraction for v in ref.x[0])
