"""compalg.triality_verify against the cube verifier kept in
tests/compalg_reference.py.  The two differ only in how they tie g1 to t1:
the cube checks the trilinear form on all 512 basis triples, the verifier
the 64-entry Gram identity g1^T diag(sq_sign) t1 = g1.den d1 diag(sq_sign).
On clean triples and on one-entry plants in each of g1, raw_t1, g2 and g3,
over definite Q, split Q, GF(11) and GF(13), both give the same verdict: a
clean triple passes, and a plant fails."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from compalg_reference import SPLIT_GAMMAS, cube_triality_verify, definite_octonions
from exceis.compalg import (PrimeFieldScalars, ScaledMatrix, TrialityTriple,
                            random_triality_pairs, split_octonions, triality_triple,
                            triality_verify)

ALGEBRAS = {"definite-Q": definite_octonions(), "split-Q": split_octonions(SPLIT_GAMMAS),
            "GF(11)": split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(11)),
            "GF(13)": split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(13))}
MATRICES = ("g1", "raw_t1", "g2", "g3")


def plant(triple: TrialityTriple, name: str, entry: int, delta: int) -> TrialityTriple:
    """triple with delta added to one entry of the integer matrix of one
    component, over the same denominator."""
    m = getattr(triple, name)
    bad = [row[:] for row in m.mat]
    bad[entry // 8][entry % 8] += delta
    parts = {k: getattr(triple, k) for k in MATRICES}
    parts[name] = ScaledMatrix(bad, m.den)
    return TrialityTriple(**parts)


@settings(max_examples=60, deadline=None)
@given(alg=st.sampled_from(sorted(ALGEBRAS)), seed=st.integers(0, 2 ** 32),
       entry=st.integers(0, 63),
       delta=st.integers(1, 10).flatmap(lambda d: st.sampled_from([d, -d])))
def test_verdicts_agree(alg, seed, entry, delta):
    # |delta| <= 10 is nonzero modulo 11 and 13, so every plant changes a matrix
    o = ALGEBRAS[alg]
    triple = triality_triple(o, random_triality_pairs(o, random.Random(seed)))
    assert triality_verify(o, triple) is cube_triality_verify(o, triple) is True
    for name in MATRICES:
        planted = plant(triple, name, entry, delta)
        assert triality_verify(o, planted) is cube_triality_verify(o, planted) is False, name
