"""Differential tests: the algebra suites check cleared-denominator integer
representatives (Z = d^2 z, V = D v, W = den w), and each verdict must equal
the verdict of the public Fraction functions on the normalised element.
Every identity checked is homogeneous, so the verdicts agree; a planted
failing sample shows that both sides can fail."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalg_reference import rank_one_sample, rational_triality_verify, ve_basis
from exceis import compalg, suites
from exceis.config import load_config
from exceis.exactnum import inverse
from linalg_reference import solve

seeds = st.integers(min_value=0, max_value=2 ** 32)


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def jalg(cfg):
    return compalg.JordanAlgebra(compalg.OctonionAlgebra(
        compalg.RationalScalars(), cfg.algebras["definite"], "definite"))


@pytest.fixture(scope="module")
def etales(cfg, jalg):
    return (compalg.CubicEtale(jalg, ("split3",)),
            compalg.CubicEtale(jalg, ("QxF", cfg.claims.qxf_disc)))


def _shrink(jalg, el, k):
    """el / k, coordinate by coordinate, as a Fraction element."""
    return jalg.scale(Fraction(1, k), el)


class TestAdjointIdentities:
    """sharp and trace-identity check the Jordan product doubled, as the
    integral ab + ba, against the Fraction product (ab + ba)/2."""

    def _reference_failures(self, jalg, x, shift=0):
        s, n = jalg.sharp(x), jalg.norm(x) + shift
        fails = jalg.jordan_product(x, s) != jalg.scale(n, jalg.identity())
        return int(fails) + (jalg.sharp(s) != jalg.scale(n, x))

    def _reference_trace(self, jalg, x, shift=0):
        lhs = jalg.trace(x) ** 2 - jalg.trace(jalg.square(x))
        return int(lhs != 2 * (jalg.trace(jalg.sharp(x)) + shift))

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, den=st.integers(1, 4))
    def test_doubled_product_gives_the_verdict(self, jalg, seed, den):
        x = _shrink(jalg, jalg.random(random.Random(seed)), den)
        doubled = jalg.symmetric_product(x, jalg.sharp(x))
        assert jalg.scale(Fraction(1, 2), doubled) == jalg.jordan_product(x, jalg.sharp(x))
        assert suites._sharp_failures(jalg, x) == self._reference_failures(jalg, x) == 0
        assert suites._trace_failures(jalg, x) == self._reference_trace(jalg, x) == 0
        # planted: N(x) or tr(x#) one unit off
        with pytest.MonkeyPatch.context() as m:
            norm = compalg.JordanAlgebra.norm
            m.setattr(compalg.JordanAlgebra, "norm", lambda self, a: norm(self, a) + 1)
            assert suites._sharp_failures(jalg, x) == 2
        assert self._reference_failures(jalg, x, shift=1) == 2
        with pytest.MonkeyPatch.context() as m:
            sharp = compalg.JordanAlgebra.sharp
            m.setattr(compalg.JordanAlgebra, "sharp",
                      lambda self, a: self.add(sharp(self, a), self.diag(1, 0, 0)))
            assert suites._trace_failures(jalg, x) == 1
        assert self._reference_trace(jalg, x, shift=1) == 1


class TestRankOne:
    def _verdicts(self, jalg, etales, z):
        return (suites._rank_one_failures(jalg, z), [et.in_ve(z) for et in etales])

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds)
    def test_representative_gives_the_sample_verdict(self, jalg, etales, seed):
        big_z, y, d = compalg.rank_one_rep(jalg, random.Random(seed))
        z = rank_one_sample(jalg, random.Random(seed))
        assert all(isinstance(v, int) for v in jalg.coords(big_z) + jalg.coords(y))
        assert jalg.scale(d * d, z) == big_z
        assert self._verdicts(jalg, etales, big_z) == self._verdicts(jalg, etales, z)
        assert self._verdicts(jalg, etales, z) == (0, [False, False])
        # planted: Z + 1 has adjoint (1 + tr Z) 1 - Z != 0, so it is not rank one
        bad = jalg.add(big_z, jalg.identity())
        assert suites._rank_one_failures(jalg, bad) == 1
        assert suites._rank_one_failures(jalg, _shrink(jalg, bad, d * d)) == 1

    def test_ve_membership_is_scale_invariant(self, jalg, etales):
        for et in etales:
            assert et.ve_dim == 24
            for v in ve_basis(et)[:4]:
                assert et.in_ve(v) and et.in_ve(jalg.scale(6, v))
                assert et.in_ve(jalg.scale(Fraction(1, 6), v))


class TestOrthF:
    def _reference(self, jalg, qxf, x):
        """The projection away from span(e2, e3) by solving its Gram system."""
        e2, e3 = qxf.basis_elements[1:]
        gram = [[jalg.trace_pairing(a, b) for b in (e2, e3)] for a in (e2, e3)]
        coeff = solve(gram, [jalg.trace_pairing(x, e2), jalg.trace_pairing(x, e3)])
        return jalg.sub(x, jalg.add(jalg.scale(coeff[0], e2), jalg.scale(coeff[1], e3)))

    def _reference_failures(self, jalg, v):
        fails = int(v.c[2] != -v.c[1])
        fails += jalg.sharp(v).c[0] != -(v.c[1] ** 2) - jalg.oct.norm(v.x[0])
        if jalg.rank(v) <= 1:
            fails += not jalg.sub(v, jalg.scale(v.c[0], jalg.e11())).is_zero()
        return fails

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_cleared_projection_gives_the_verdict(self, jalg, etales, seed):
        qxf = etales[1]
        project = suites._f_complement(jalg, qxf)
        e2, e3 = qxf.basis_elements[1:]
        _, den = inverse([[jalg.trace_pairing(a, b) for b in (e2, e3)] for a in (e2, e3)])
        x = jalg.random(random.Random(seed))
        big_v, v = project(x), self._reference(jalg, qxf, x)
        assert all(isinstance(c, int) for c in jalg.coords(big_v))
        assert big_v == jalg.scale(den, v)
        got = suites._orth_f_failures(jalg, big_v, jalg.e11())
        assert got == self._reference_failures(jalg, v) == 0
        # planted: one more unit of c2 breaks c3 = -c2
        bad = jalg.add(big_v, jalg.diag(0, 1, 0))
        got = suites._orth_f_failures(jalg, bad, jalg.e11())
        assert got == self._reference_failures(jalg, _shrink(jalg, bad, den)) > 0


class TestFreudenthal:
    def _reference_failures(self, jalg, etales, w):
        fails = 0
        for et in etales:
            we, _ = compalg.we_projection(w, et)
            fails += compalg.we_part_is_zero(we)
            flip = compalg.FreudenthalElement(-w.d, w.c, jalg.scale(-1, w.b), w.a)
            fails += compalg.we_part_is_zero(compalg.we_projection(flip, et)[0])
        return fails

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, num=st.integers(-5, 5), den=st.integers(1, 3))
    def test_cleared_scale_gives_the_verdict(self, jalg, etales, seed, num, den):
        z = jalg.random(random.Random(seed))
        big_w = compalg.freudenthal_r0(jalg, z, num)
        w = compalg.freudenthal_r0(jalg, z, Fraction(num, den))
        assert (big_w.a, big_w.d) == (den * w.a, den * w.d)
        assert (big_w.b, big_w.c) == (jalg.scale(den, w.b), jalg.scale(den, w.c))
        assert all(isinstance(c, int) for c in jalg.coords(big_w.b) + jalg.coords(big_w.c))
        got = suites._we_failures(etales, big_w)
        assert got == self._reference_failures(jalg, etales, w) == 4 * (num == 0)
        # planted: lam = 0 leaves no nonzero corner
        zero = compalg.freudenthal_r0(jalg, z, Fraction(0, den))
        assert suites._we_failures(etales, zero) == \
            self._reference_failures(jalg, etales, zero) == 4


class TestRankOneC1Family:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, c2=st.integers(-3, 3).filter(bool))
    def test_cleared_family_gives_the_rank(self, jalg, seed, c2):
        o = jalg.oct
        x1 = o.random(random.Random(seed))
        v = jalg.element((0, c2, Fraction(o.norm(x1), c2)), (x1, [0] * 8, [0] * 8))
        big_v = jalg.element((0, c2 * c2, o.norm(x1)), (o.scale(c2, x1), [0] * 8, [0] * 8))
        assert big_v == jalg.scale(c2, v)
        assert jalg.rank(big_v) == jalg.rank(v) <= 1
        bad = jalg.add(big_v, jalg.diag(0, 0, 1))   # planted: N(x1) + 1 in c3
        assert jalg.rank(bad) == jalg.rank(_shrink(jalg, bad, c2)) > 1


class TestTriality:
    @settings(max_examples=6, deadline=None)
    @given(seed=seeds)
    def test_verdict_matches_rational_definition(self, jalg, seed):
        o = jalg.oct
        triple = compalg.triality_triple(o, compalg.random_triality_pairs(o, random.Random(seed)))
        assert compalg.triality_verify(o, triple) == rational_triality_verify(o, triple) is True
        bad = [row[:] for row in triple.g2.mat]
        bad[seed % 8][(seed // 8) % 8] += 1          # planted: one unit in g2
        broken = compalg.TrialityTriple(triple.g1, compalg.ScaledMatrix(bad, triple.g2.den),
                                        triple.g3, triple.raw_t1)
        assert compalg.triality_verify(o, broken) == rational_triality_verify(o, broken) is False
