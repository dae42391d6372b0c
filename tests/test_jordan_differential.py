"""The octonion norm, the Jordan adjoint and the trace pairing against the
references kept in tests/compalg_reference.py, which build them from full
octonion products, conjugates and scalings.  Over definite Q, split Q,
GF(11) and GF(13) the two paths give the same values of the same types,
compared as repr: ints stay ints, a Fraction input gives a Fraction, and
over GF(p) an unreduced input gives the reduced residue."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from compalg_reference import (definite_octonions, reference_norm, reference_sharp,
                               reference_trace_pairing)
from exceis.compalg import JordanAlgebra, JordanElement, PrimeFieldScalars, split_octonions

ALGEBRAS = {"definite-Q": JordanAlgebra(definite_octonions()),
            "split-Q": JordanAlgebra(split_octonions()),
            "GF(11)": JordanAlgebra(split_octonions(PrimeFieldScalars(11))),
            "GF(13)": JordanAlgebra(split_octonions(PrimeFieldScalars(13)))}

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
