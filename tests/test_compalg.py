import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalg_reference import (SPLIT_GAMMAS, bilinear, definite_octonions, rank_one_sample,
                               rational, reference_table, unit_norm_element, ve_basis)
from exceis import compalg, suites
from exceis.compalg import (CubicEtale, JordanAlgebra, PrimeFieldScalars, freudenthal_r0,
                            random_triality_pairs, split_octonions, triality_triple,
                            triality_verify, we_part_is_zero, we_projection)
from exceis.config import load_config


@pytest.fixture(scope="module")
def oct_def():
    return definite_octonions()


@pytest.fixture(scope="module")
def jalg(oct_def):
    return JordanAlgebra(oct_def)


class TestScalars:
    def test_prime_field_of_fraction(self):
        gf11 = PrimeFieldScalars(11)
        assert gf11.of(Fraction(1, 2)) == 6
        assert gf11.of(Fraction(-3, 4)) == 2         # 4 * 2 = 8 = -3 mod 11
        assert gf11.of(Fraction(22, 2)) == 0
        with pytest.raises(ZeroDivisionError):
            gf11.of(Fraction(1, 11))

    def test_prime_field_scale_by_fraction(self):
        alg = split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(11))
        assert alg.scale(Fraction(1, 2), alg.basis(0)) == (6,) + (0,) * 7

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=8), st.integers(-40, 40), st.integers(1, 300),
           st.sampled_from([3, 5, 7, 11, 13, 101, 65537]), st.integers(0, 30))
    def test_draws_are_the_generators_own(self, seed, lo, width, p, count):
        """The scalar rings' one-loop draws give the values of rng.randint
        (over Q) and rng.randrange (over GF(p)), and leave the generator in
        the same state."""
        hi = lo + width - 1
        for ours, theirs in [
                (lambda r: compalg.RationalScalars().draws(r, count, lo, hi),
                 lambda r: tuple(r.randint(lo, hi) for _ in range(count))),
                (lambda r: PrimeFieldScalars(p).draws(r, count),
                 lambda r: tuple(r.randrange(p) for _ in range(count)))]:
            a, b = random.Random(seed), random.Random(seed)
            assert ours(a) == theirs(b)
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_thousand_draws_mod_p(self, p):
        ours, theirs = random.Random(p), random.Random(p)
        assert PrimeFieldScalars(p).draws(ours, 1000) == tuple(
            theirs.randrange(p) for _ in range(1000))
        assert ours.random() == theirs.random()


class TestOctonions:
    def test_unit(self, oct_def):
        one = oct_def.basis(0)
        assert oct_def.norm(one) == 1
        assert oct_def.trace(one) == 2

    def test_definite_signature(self, oct_def):
        assert oct_def.signature == (1,) * 8

    def test_split_signature(self):
        alg = split_octonions(SPLIT_GAMMAS)
        assert sorted(alg.signature) == [-1] * 4 + [1] * 4

    def test_composition_law_samples(self, oct_def):
        rng = random.Random(3)
        for alg in (oct_def, split_octonions(SPLIT_GAMMAS)):
            for _ in range(200):
                x, y = alg.random(rng), alg.random(rng)
                assert alg.norm(alg.mul(x, y)) == alg.norm(x) * alg.norm(y)

    def test_conjugation_involution(self, oct_def):
        rng = random.Random(5)
        x = oct_def.random(rng)
        assert oct_def.conj(oct_def.conj(x)) == x
        # x + x* = tr(x) 1 and x x* = N(x) 1
        s = oct_def.add(x, oct_def.conj(x))
        assert s[0] == oct_def.trace(x) and all(c == 0 for c in s[1:])

    def test_trilinear_orderings_agree(self, oct_def):
        # tr(x(yz)) = tr((xy)z): tested, not assumed
        rng = random.Random(11)
        for _ in range(200):
            x, y, z = (oct_def.random(rng) for _ in range(3))
            assert oct_def.trilinear(x, y, z) == \
                oct_def.trace(oct_def.mul(oct_def.mul(x, y), z))

    def test_trilinear_of_units(self, oct_def):
        one = oct_def.basis(0)
        assert oct_def.trilinear(one, one, one) == 2


class TestKernelCompiler:
    """The kernels are compiled from the multiplication table, and the norm
    kernel is the 0-coordinate of x x*.  That the other seven coordinates
    vanish for every x is checked once, on the table's coefficients, when
    an algebra is built; a table with one flipped sign fails that check,
    naming the coordinate of x x* that is not scalar."""

    @pytest.mark.parametrize("gammas", list(itertools.product((1, -1), repeat=3)))
    def test_table_is_the_doubling_reference(self, gammas):
        table = compalg._build_table(gammas)
        assert table == reference_table(gammas)
        assert list(table) == [(i, j) for i in range(8) for j in range(8)]

    @staticmethod
    def flipped(entry, gammas=(-1, -1, -1)) -> tuple[dict, int]:
        table = dict(compalg._build_table(gammas))
        k, sg = table[entry]
        table[entry] = (k, -sg)
        return table, k

    @pytest.mark.parametrize("entry", [(0, 3), (1, 2), (6, 5), (7, 0)])
    def test_flipped_sign_is_not_scalar(self, entry):
        table, k = self.flipped(entry)
        with pytest.raises(ValueError, match=rf"^x x\* is not scalar: coordinate {k} has"):
            compalg._kernel_sources(table)

    def test_construction_checks_the_table(self, monkeypatch):
        table, k = self.flipped((2, 5), gammas=(-1, -1, 1))
        monkeypatch.setattr(compalg, "_build_table", lambda gammas: table)
        with pytest.raises(ValueError, match=rf"coordinate {k} has the term -?2 x2 x5$"):
            split_octonions(SPLIT_GAMMAS)

    @pytest.mark.parametrize("gammas", [(-1, -1, -1), (-1, -1, 1)])
    def test_norm_kernel_is_the_signature(self, gammas):
        o = compalg.OctonionAlgebra(compalg.RationalScalars(), gammas, "")
        assert [o.norm(o.basis(k)) for k in range(8)] == list(o.signature)
        assert set(o.kernel_sources) == {"product", "norm", "trace_form", "adjoint"}


class TestPlantedKernels:
    """The adjoint and trace-form kernels are pinned by the identity suites:
    every single-sign flip in the compiled source of one definite algebra
    fails ``_sharp_failures`` (x x# + x# x = 2 N(x) 1, (x#)# = N(x) x), and a
    flip in the trace form fails ``_trace_failures`` too, within a few seeded
    samples.  ``symmetric_product`` reads both kernels, so neither suite
    relies on a second representation of the Jordan product."""

    @staticmethod
    def planted(name: str) -> list[JordanAlgebra]:
        """One Jordan algebra per sign of the kernel's return expression,
        with that sign flipped."""
        head, body = definite_octonions().kernel_sources[name].split("return ")
        out = []
        for m in re.finditer(r" [+-] ", body):
            i = m.start() + 1
            ns: dict = {}
            exec(head + "return " + body[:i] + "+-"[body[i] == "+"] + body[i + 1:], ns)
            o = definite_octonions()
            setattr(o, "_" + name, ns[name])
            out.append(JordanAlgebra(o))
        return out

    @pytest.mark.parametrize("name, check", [("adjoint", "_sharp_failures"),
                                             ("trace_form", "_sharp_failures"),
                                             ("trace_form", "_trace_failures")])
    def test_every_flipped_sign_fails_the_suite(self, name, check):
        plants = self.planted(name)
        assert len(plants) == {"adjoint": 71, "trace_form": 7}[name]
        for n, jalg in enumerate(plants):
            rng = random.Random(7)
            assert any(getattr(suites, check)(jalg, jalg.random(rng)) for _ in range(5)), n


class TestJordan:
    def test_e11_sharp_rank(self, jalg):
        e11 = jalg.e11()
        assert jalg.sharp(e11).is_zero()
        assert jalg.rank(e11) == 1

    def test_diag_norm(self, jalg):
        assert jalg.norm(jalg.diag(2, 3, 5)) == 30

    def test_identity(self, jalg):
        ident = jalg.identity()
        assert jalg.sharp(ident) == ident
        assert jalg.norm(ident) == 1
        assert jalg.rank(ident) == 3

    def test_adjoint_identities(self, jalg):
        rng = random.Random(17)
        for _ in range(150):
            x = jalg.random(rng)
            s = jalg.sharp(x)
            n = jalg.norm(x)
            assert jalg.jordan_product(x, s) == jalg.scale(n, jalg.identity())
            assert jalg.sharp(s) == jalg.scale(n, x)

    def test_trace_identity(self, jalg):
        rng = random.Random(19)
        for _ in range(150):
            x = jalg.random(rng)
            assert jalg.trace(x) ** 2 - jalg.trace(jalg.square(x)) \
                == 2 * jalg.trace(jalg.sharp(x))

    def test_rank_cyclic_invariance(self, jalg):
        rng = random.Random(23)
        for _ in range(60):
            x = jalg.random(rng)
            rot = compalg.JordanElement((x.c[1], x.c[2], x.c[0]),
                                        (x.x[1], x.x[2], x.x[0]))
            assert jalg.rank(x) == jalg.rank(rot)

    def test_positive_definite_trace_form(self, jalg):
        rng = random.Random(29)
        for _ in range(100):
            x = jalg.random(rng)
            if not x.is_zero():
                assert jalg.trace_pairing(x, x) > 0


class TestRankOneSampler:
    def test_outputs(self, jalg):
        rng = random.Random(37)
        for _ in range(60):
            z = rank_one_sample(jalg, rng)
            assert not z.is_zero()
            assert jalg.sharp(z).is_zero()
            assert jalg.rank(z) == 1

    def test_diag_example(self, jalg):
        y = jalg.diag(1, 1, 0)
        z = jalg.sharp(y)
        assert z == jalg.diag(0, 0, 1)
        assert jalg.rank(z) == 1


class TestEtale:
    def test_split3(self, jalg):
        et = CubicEtale(jalg, ("split3",))
        assert et.embed((1, 1, 1)) == jalg.identity()
        ve = ve_basis(et)
        assert et.ve_dim == len(ve) == 24
        for b in ve:
            assert et.in_ve(b)
            for e in et.basis_elements:
                assert jalg.trace_pairing(b, e) == 0

    def test_qxf(self, jalg):
        et = CubicEtale(jalg, ("QxF", 2))
        assert et.basis_elements[0] == jalg.diag(1, 0, 0)
        assert et.basis_elements[1] == jalg.diag(0, 1, 1)
        assert et.ve_dim == len(ve_basis(et)) == 24
        # norm compatibility: N(a E1 + alpha E2 + beta E3) = a (alpha^2 - 2 beta^2)
        rng = random.Random(41)
        for _ in range(60):
            a, al, be = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            x = et.embed((a, al, be))
            assert jalg.norm(x) == a * (al * al - 2 * be * be)
            # the embedded algebra keeps the last two octonion slots empty
            assert all(c == 0 for c in x.x[1]) and all(c == 0 for c in x.x[2])

    def test_imaginary_of_norm(self, jalg):
        # Lagrange: every n >= 0 is a sum of four squares, here on e1..e4
        o, et = jalg.oct, CubicEtale(jalg, ("split3",))
        for n in range(2001):
            u = et._imaginary_of_norm(n)
            assert all(Fraction(c).denominator == 1 for c in u)
            assert o.trace(u) == 0 and o.norm(u) == n
            assert u[5:] == (0, 0, 0)

    def test_qxf_unit_is_e1(self, jalg):
        # d = 2 asks for norm d - 1 = 1: the first imaginary unit
        assert CubicEtale(jalg, ("QxF", 2)).basis_elements[2].x[0] == jalg.oct.basis(1)

    def test_split_gammas_are_the_configured_ones(self):
        assert tuple(load_config().algebras["split"]) == SPLIT_GAMMAS

    def test_qxf_square_disc_rejected(self, jalg):
        with pytest.raises(ValueError):
            CubicEtale(jalg, ("QxF", 4))

    def test_field(self, jalg):
        # t^3 - t^2 - 2t + 1, totally real
        et = CubicEtale(jalg, ("field", (1, -2, -1)))
        theta = et.basis_elements[1]
        assert jalg.trace(theta) == 1
        assert jalg.norm(theta) == -1
        assert jalg.trace(jalg.sharp(theta)) == -2
        assert et.ve_dim == len(ve_basis(et)) == 24

    def test_field_basis_coordinates_are_ints(self, jalg):
        # the Jordan product halves ab + ba and keeps an integral half an int
        et = CubicEtale(jalg, ("field", (1, -2, -1)))
        m = et.basis_elements[1]
        for el in et.basis_elements + [jalg.square(m)]:
            assert all(type(v) is int for v in jalg.coords(el)), el
        # a half that is not integral stays a Fraction
        assert set(map(type, jalg.coords(jalg.jordan_product(m, jalg.e11())))) == {int, Fraction}

    def test_projection_splits(self, jalg):
        et = CubicEtale(jalg, ("QxF", 2))
        rng = random.Random(43)
        x = jalg.random(rng)
        coeffs, ve = et.project(x)
        assert jalg.add(et.embed(coeffs), ve) == x
        assert et.in_ve(ve)
        # numerators over the Gram inverse's positive denominator; the
        # projection's integral coefficients are ints
        nums, den = et.coefficients(x)
        assert den > 0 and all(type(n) is int for n in nums)
        assert coeffs == tuple(Fraction(n, den) for n in nums)
        assert all(type(c) is int for c in coeffs if Fraction(c).denominator == 1)

    def test_rank_one_avoids_ve(self, jalg):
        rng = random.Random(47)
        for et in (CubicEtale(jalg, ("split3",)), CubicEtale(jalg, ("QxF", 2))):
            for _ in range(60):
                z = rank_one_sample(jalg, rng)
                assert not et.in_ve(z)


class TestFreudenthal:
    def test_r0_of_zero(self, jalg):
        w = freudenthal_r0(jalg, jalg.zero())
        assert w.a == 1 and w.b.is_zero() and w.c.is_zero() and w.d == 0

    def test_r0_keeps_an_int_lam_an_int(self, jalg):
        w = freudenthal_r0(jalg, jalg.random(random.Random(59)), 3)
        assert type(w.a) is int and type(w.d) is int

    def test_r0_of_identity(self, jalg):
        w = freudenthal_r0(jalg, jalg.identity())
        assert (w.a, w.d) == (1, -1)
        assert w.b == jalg.scale(-1, jalg.identity())
        assert w.c == jalg.identity()

    def test_we_projection_nonzero(self, jalg):
        et = CubicEtale(jalg, ("split3",))
        rng = random.Random(53)
        for _ in range(40):
            z = jalg.random(rng)
            w = freudenthal_r0(jalg, z, Fraction(3, 2))
            we, vepart = we_projection(w, et)
            assert not we_part_is_zero(we)
            assert et.in_ve(vepart[0]) and et.in_ve(vepart[1])


class TestTriality:
    def test_identity_triple(self, oct_def):
        one = oct_def.basis(0)
        triple = triality_triple(oct_def, [(one, one)])
        assert triality_verify(oct_def, triple)
        assert rational(triple.g2) == tuple(
            tuple(Fraction(int(i == j)) for j in range(8)) for i in range(8))

    def test_random_over_q(self, oct_def):
        rng = random.Random(59)
        for _ in range(40):
            pairs = random_triality_pairs(oct_def, rng)
            assert triality_verify(oct_def, triality_triple(oct_def, pairs))

    def test_random_over_prime_fields(self):
        for p in (11, 13):
            alg = split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(p))
            rng = random.Random(61 + p)
            for _ in range(40):
                pairs = random_triality_pairs(alg, rng)
                assert triality_verify(alg, triality_triple(alg, pairs))

    def test_pair_count(self, oct_def):
        # one or two pairs, the count drawn first from the stream itself
        counts = set()
        for seed in range(70, 80):
            want = random.Random(seed).randint(1, 2)
            assert len(random_triality_pairs(oct_def, random.Random(seed))) == want
            counts.add(want)
        assert counts == {1, 2}

    def test_norm_product_condition_enforced(self, oct_def):
        two = oct_def.scale(2, oct_def.basis(0))
        with pytest.raises(ValueError):
            triality_triple(oct_def, [(two, two)])

    def test_zero_norm_rejected(self):
        alg = split_octonions(SPLIT_GAMMAS)
        null = alg.of_coords([1, 0, 0, 0, 1, 0, 0, 0])   # norm 1 - 1 = 0
        assert alg.norm(null) == 0
        with pytest.raises(ValueError):
            triality_triple(alg, [(null, null)])

    def test_failure_detected(self, oct_def):
        # breaking one matrix entry must be caught by the verifier
        rng = random.Random(67)
        pairs = random_triality_pairs(oct_def, rng)
        triple = triality_triple(oct_def, pairs)
        bad = [row[:] for row in triple.g2.mat]
        bad[3][4] += triple.g2.den
        broken = compalg.TrialityTriple(triple.g1, compalg.ScaledMatrix(bad, triple.g2.den),
                                        triple.g3, triple.raw_t1)
        assert not triality_verify(oct_def, broken)

    def test_failure_detected_over_prime_field(self):
        # an entry off by a unit (not by a multiple of p) is caught mod p
        alg = split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(13))
        triple = triality_triple(alg, random_triality_pairs(alg, random.Random(71)))
        bad = [row[:] for row in triple.g3.mat]
        bad[2][5] += 1
        broken = compalg.TrialityTriple(triple.g1, triple.g2,
                                        compalg.ScaledMatrix(bad, 1), triple.raw_t1)
        assert not triality_verify(alg, broken)
        bad[2][5] += 12      # now a multiple of p away from the original
        assert triality_verify(alg, broken)

    @pytest.mark.parametrize("field", [None, 11, 13], ids=["Q", "GF(11)", "GF(13)"])
    @pytest.mark.parametrize("plant", ["identity", "unhatted"])
    def test_g1_defect_only_the_gram_identity_sees(self, oct_def, field, plant):
        # g1 = I and g1 = raw_t1 preserve the norm form, and g1 takes no part
        # in t1(xy) = t2(x) t3(y): only the Gram identity ties g1 to t1
        o = oct_def if field is None else split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(field))
        triple = triality_triple(o, random_triality_pairs(o, random.Random(79)))
        identity = compalg.ScaledMatrix([[int(i == j) for j in range(8)] for i in range(8)], 1)
        g1 = identity if plant == "identity" else triple.raw_t1
        cols, units = list(zip(*rational(g1))), [o.basis(k) for k in range(8)]
        assert all(bilinear(o, cols[i], cols[j]) == bilinear(o, units[i], units[j])
                   for i in range(8) for j in range(8))
        assert triality_verify(o, triple)
        assert not triality_verify(o, compalg.TrialityTriple(g1, triple.g2, triple.g3,
                                                             triple.raw_t1))


def _compalg_outputs() -> list:
    """Seeded outputs of the octonion, Jordan, triality and etale code over
    definite Q, split Q, split GF(11) and split GF(13).  Their repr pins the
    values, int versus Fraction, and the order in which samplers draw."""
    out = []
    algs = [definite_octonions(), split_octonions(SPLIT_GAMMAS),
            split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(11)), split_octonions(SPLIT_GAMMAS, PrimeFieldScalars(13))]
    for n, o in enumerate(algs):
        rng = random.Random(f"digest:{n}")
        for _ in range(6):
            x, y = o.random(rng), o.random(rng)
            k, = o.scalars.draws(rng, 1)
            out.append((o.mul(x, y), o.conj(x), o.add(x, y), o.scale(k, y),
                        o.norm(x), bilinear(o, x, y), o.trace(o.mul(x, y)),
                        o.trace(x)))
        out.append(unit_norm_element(o, rng))
        for _ in range(2):
            triple = triality_triple(o, random_triality_pairs(o, rng))
            out.append([(m.mat, m.den) for m in
                        (triple.g1, triple.g2, triple.g3, triple.raw_t1)])
            out.append(triality_verify(o, triple))
    jalg = JordanAlgebra(definite_octonions())
    rng = random.Random("digest:jordan")
    for _ in range(4):
        a, b = jalg.random(rng), jalg.random(rng)
        out.append((jalg.sharp(a), jalg.norm(a), jalg.jordan_product(a, b),
                    jalg.trace_pairing(a, b), jalg.rank(a),
                    rank_one_sample(jalg, rng)))
    qxf = CubicEtale(jalg, ("QxF", 2))
    out.append(qxf.project(jalg.random(rng)))
    return out


# recorded before the scalar rings took over modular reduction; recomputed
# without the norm-transitivity entries when that move was deleted, when
# the Jordan product's integral coordinates became ints, and when the
# projection's integral E-coefficients became ints (the same values)
COMPALG_DIGEST = "88bf2b26d47c787a6262a2d924d6fc2b1d7bc6e839365b4c63e479a1bc5c6795"


def test_compalg_value_digest():
    digest = hashlib.sha256(repr(_compalg_outputs()).encode()).hexdigest()
    assert digest == COMPALG_DIGEST
