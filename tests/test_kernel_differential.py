"""The verifier's root-system build and lambda-traces against the Fraction
path kept in tests/weyl_reference.py.  On all 15 configured systems the two
give the same roots in the same order with the same coordinates, the same
Cartan matrix and weighted rho, labels zero on the reference's orthogonal
basis, the same squared length and multiplicity for every root and the
same print scale for every simple root; and the same trace (every step's
pairing, printed pairing and vector, the vector read as the final vector
of the word's suffix of that many letters) for every configured row word
and for random reduced words from random start vectors.  Each trace is
also compared with `fraction_trace`, the Fraction-vector trace the
verifier ran before it carried simple-coroot labels.  Last, the pairings
read off labels (the printed pairings of w(lambda) + rho, the oracle's GK
products) against Euclidean pairings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exceis.config import load_config
from exceis.eiscalc import CoordVector, apply_word, shifted_exponent, shifted_label
from weyl_reference import ReferenceSystem, fraction_trace, gk_product, printed_pairing

CFG = load_config()
NAMES = sorted(CFG.raw["systems"])
REFERENCE = {name: ReferenceSystem(CFG.systems[name]) for name in NAMES}


def test_every_configured_system():
    assert len(NAMES) == 15 and {"E6abs", "E7abs", "E8abs"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
class TestBuild:
    def test_roots_in_order_with_coordinates(self, name):
        sys, ref = CFG.system(name), REFERENCE[name]
        assert [sys.vector(c) for c in sys.coords] == ref.roots
        assert sys.coords == ref.coords
        assert sys._pos_idx == [k for k, c in enumerate(ref.coords) if min(c) >= 0]

    def test_cartan_rho_orthogonal(self, name):
        sys, ref = CFG.system(name), REFERENCE[name]
        assert sys.cartan == ref.cartan
        assert sys.rho_weighted() == ref.rho
        # W fixes the vectors orthogonal to every root: their labels are zero
        assert sys.labels(*ref.orthogonal)[0] == [[0] * sys.rank] * (sys.dim - sys.rank)

    def test_length_multiplicity_print_scale(self, name):
        sys, ref = CFG.system(name), REFERENCE[name]
        assert sys.lengths == ref.norm2
        assert sys.mults == ref.mult
        assert sys.simple_scales == [ref.print_scale[ref.roots.index(a)] for a in ref.simples]


def assert_same_trace(name, lam: CoordVector, word) -> None:
    sys, ref = CFG.system(name), REFERENCE[name]
    # the vector after each step is the final vector of the word's suffix
    # of that many letters
    finals = [apply_word(sys, lam, word[k:]).final for k in reversed(range(len(word)))]
    got = [(st.letter, st.pairing, st.printed, final.slope, final.icept)
           for st, final in zip(apply_word(sys, lam, word).steps, finals)]
    assert got == ref.trace(lam.slope, lam.icept, word), (name, word)
    assert got == fraction_trace(sys, ref, lam, word), (name, word)


def test_configured_row_words():
    words = 0
    for case in CFG.cases.values():
        sys = CFG.system(case.system)
        lam = CoordVector.lambda_s(sys)
        for table in case.tables:
            for row in table.rows:
                if sys.is_reduced(row.word):
                    assert_same_trace(case.system, lam, row.word)
                    words += 1
    assert words == sum(len(t.rows) for c in CFG.cases.values() for t in c.tables)


@st.composite
def traced_words(draw):
    """A configured system, a start vector of small rationals, and a
    reduced word grown letter by letter, each letter kept if the word stays
    reduced."""
    name = draw(st.sampled_from(NAMES))
    sys = CFG.system(name)
    entries = st.lists(st.fractions(-6, 6, max_denominator=5), min_size=sys.dim,
                       max_size=sys.dim).map(tuple)
    lam = CoordVector(draw(entries), draw(entries))
    word = ()
    for i in draw(st.lists(st.integers(1, sys.rank), max_size=14)):
        if sys.is_reduced((i,) + word):
            word = (i,) + word
    return name, lam, word


@settings(max_examples=120, deadline=None)
@given(traced_words())
def test_random_reduced_words(case):
    assert_same_trace(*case)


def test_shifted_labels_and_oracle_products():
    """The printed pairings of w(lambda) + rho with the simple roots, read
    off the trace's labels, against the Euclidean pairings of the Euclidean
    w(lambda) + rho; and each oracle's GK product, read off labels and
    coroot coordinates, against the Euclidean pairings of lambda_abs with
    the flipped absolute roots."""
    rows = products = 0
    for name, case in CFG.cases.items():
        sys = CFG.system(case.system)
        lam = CoordVector.lambda_s(sys)
        words = {r.word for t in case.tables for r in t.rows if sys.is_reduced(r.word)}
        for word in words:
            trace = apply_word(sys, lam, word)
            lp = shifted_exponent(sys, trace)
            assert [shifted_label(sys, trace, j) for j in range(1, sys.rank + 1)] \
                == [printed_pairing(REFERENCE[case.system], lp, a) for a in sys.simples], \
                (name, word)
            rows += 1
        if case.oracle:
            oracle = CFG.oracle(name)
            for word in words:
                flipped = set(sys.inversion_indices(word))
                ref = REFERENCE[oracle.absolute.name]
                roots = [r for r, c, k in zip(ref.roots, ref.coords, oracle.images)
                         if min(c) >= 0 and k in flipped]
                assert oracle.gk_restricted(word) == gk_product(oracle.lambda_abs, roots)
                products += 1
    assert rows > 0 and products > 0
