import copy
import inspect
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exceis import eiscalc
from exceis.config import load_config
from exceis.eiscalc import (KINDS, CoordVector, ZetaFactor, ZetaProduct,
                            apply_word, convergence, order_report,
                            parse_factor, rational_cfunction, shifted_exponent,
                            shifted_label)
from exceis.exactnum import AffineForm
from exceis.rootsys import RootSystem, dot
from weyl_reference import ReferenceSystem, gk_cfunction, mat_vec, printed_pairing


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def forms(trace):
    return [str(st.printed) for st in trace.steps]


class TestLambdaAndTraces:
    def test_lambda_printed_vectors(self, cfg):
        for name in cfg.cases:
            case = cfg.cases[name]
            if case.lambda_printed is None:
                continue
            system = cfg.system(case.system)
            lam = CoordVector.lambda_s(system)
            assert list(lam.entries()) == case.lambda_printed, name

    def test_c3_trace(self, cfg):
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        tr = apply_word(c3, lam, (3, 2, 1, 3, 2, 3))
        assert forms(tr) == ["s-1", "2s-10", "s-9", "2s-18", "2s-26", "s-17"]
        assert [str(e) for e in tr.final.entries()] == ["-s+1", "-s+9", "-s+17"]

    def test_g2_trace(self, cfg):
        g2 = cfg.system("G2")
        lam = CoordVector.lambda_s(g2)
        tr = apply_word(g2, lam, (2, 1, 2, 1, 2))
        assert forms(tr) == ["s-1", "s-2", "2s-5", "s-3", "s-4"]

    def test_empty_trace(self, cfg):
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        tr = apply_word(c3, lam, ())
        assert tr.steps == () and tr.final == lam

    def test_non_reduced_rejected(self, cfg):
        c3 = cfg.system("C3")
        with pytest.raises(ValueError):
            apply_word(c3, CoordVector.lambda_s(c3), (3, 3))

    def test_shifted_exponents_c3(self, cfg):
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        assert [str(e) for e in shifted_exponent(c3, apply_word(c3, lam, (3, 2, 3))).entries()] \
            == ["s", "-s+10", "-s+10"]
        assert [str(e) for e in
                shifted_exponent(c3, apply_word(c3, lam, (3, 2, 1, 3, 2, 3))).entries()] \
            == ["-s+18", "-s+18", "-s+18"]

    def test_shifted_exponent_f4_pairings(self, cfg):
        f4 = cfg.system("F4")
        lam = CoordVector.lambda_s(f4)
        tr = apply_word(f4, lam, (3, 4, 2, 3, 2, 1))
        assert str(shifted_label(f4, tr, 1)) == "s-10"
        assert str(shifted_label(f4, tr, 2)) == "s-17"
        # the Euclidean pairings of the Euclidean w(lambda) + rho agree
        lp = shifted_exponent(f4, tr)
        ref = ReferenceSystem(cfg.systems["F4"])
        assert [printed_pairing(ref, lp, a) for a in f4.simples[:2]] \
            == [shifted_label(f4, tr, 1), shifted_label(f4, tr, 2)]


class TestTraceCrossCheck:
    """Planted defects in the trace loop must trip apply_word's end-of-word
    check, which reads the root permutation, the coroot coordinates and the
    Cartan columns, not the loop's steps."""

    @staticmethod
    def plant_shift(monkeypatch, system, letter, shift):
        """Make the step by the given letter add `shift` to the labels."""
        bad, reflect = system.cartan[letter - 1], RootSystem.reflect

        def shifted(self, alpha, v, k):
            out = reflect(self, alpha, v, k)
            return tuple(x + d for x, d in zip(out, shift)) if alpha is bad else out

        monkeypatch.setattr(RootSystem, "reflect", shifted)

    def test_shifted_reflection(self, cfg, monkeypatch):
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        word = (3, 2, 1, 3, 2, 3)
        apply_word(c3, lam, word)
        self.plant_shift(monkeypatch, c3, 1, (1, 0, 0))
        with pytest.raises(AssertionError, match="trace disagrees"):
            apply_word(c3, lam, word)

    def test_steps_in_the_wrong_order(self, cfg, monkeypatch):
        # the loop runs the leftmost letter first, so the trace ends at
        # w^{-1}(lambda); s3 s2 s1 is not an involution, so that is not w(lambda)
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        word = (3, 2, 1)
        assert c3.element(word) != c3.element(word[::-1])
        apply_word(c3, lam, word)
        monkeypatch.setattr(eiscalc, "reversed", iter, raising=False)
        with pytest.raises(AssertionError, match="trace disagrees"):
            apply_word(c3, lam, word)

    @pytest.mark.parametrize("name,entry", [("C3", (1, 0)), ("C3", (2, 1)),
                                            ("F4", (1, 2)), ("G2", (0, 1))])
    def test_changed_cartan_entry(self, cfg, name, entry):
        # a copy of the system whose Cartan matrix is off by one at one
        # off-diagonal entry, in the steps and the checks alike: the root
        # permutation and the coroot coordinates still disagree
        system = cfg.system(name)
        lam = CoordVector.lambda_s(system)
        word = system.coset_reps(system.parabolic("P1"))[-1]
        apply_word(system, lam, word)
        bad = copy.copy(system)
        bad.cartan = [list(row) for row in system.cartan]
        i, j = entry
        assert i != j and bad.cartan[i][j] != 0
        bad.cartan[i][j] -= 1
        with pytest.raises(AssertionError, match="trace disagrees"):
            apply_word(bad, lam, word)

    def test_dropped_coefficient_update(self, cfg):
        # the third step forgets to add its pairing to m_j: the labels are
        # right, lambda - sum m_j alpha_j is not
        src = textwrap.dedent(inspect.getsource(eiscalc.apply_word))
        old = "        ms[j] += a\n"
        assert src.count(old) == 1
        planted = dict(vars(eiscalc))
        exec(src.replace(old, "        ms[j] += a if len(steps) != 2 else 0\n"), planted)
        c3 = cfg.system("C3")
        lam = CoordVector.lambda_s(c3)
        word = (3, 2, 1, 3, 2, 3)
        assert planted["apply_word"] is not apply_word
        with pytest.raises(AssertionError, match="trace disagrees"):
            planted["apply_word"](c3, lam, word)


class TestZetaProducts:
    def test_parse_and_str(self):
        p = ZetaProduct.parse(["zeta(s-9)", "zeta(s)^-1", "poch(s/2-5/2;2)"])
        assert p.factors[ZetaFactor("zeta", AffineForm(1, -9))] == 1
        assert p.factors[ZetaFactor("zeta", AffineForm(1, 0))] == -1

    def test_opaque_symbol_parse(self):
        f, e = parse_factor("gammaR(s-8+v)^-1")
        assert f.sym == "v" and f.sym_sign == 1 and e == -1

    def test_theta_expansion_idempotent(self):
        p = ZetaProduct.parse(["zetaTheta(s-5)", "zetaTheta(s-1)^-1"])
        e1 = p.expanded()
        assert e1 == e1.expanded()
        want = ZetaProduct.parse(["zeta(s-5)", "zeta(s-8)",
                                  "zeta(s-1)^-1", "zeta(s-4)^-1"])
        assert e1 == want

    def test_cancellation(self):
        p = ZetaProduct.parse(["zeta(s-1)", "zeta(s-1)^-1"])
        assert p == ZetaProduct()

    def test_expansion_keeps_the_symbol(self):
        shifted = ZetaProduct.parse(["zetaTheta(s-3+j)"])
        assert not shifted.same_function(ZetaProduct.parse(["zetaTheta(s-3)"]))
        assert shifted.expanded() == ZetaProduct.parse(["zeta(s-3+j)", "zeta(s-6+j)"])
        assert ZetaProduct.parse(["zetaE(s+j)"], "split3").expanded() \
            == ZetaProduct.parse(["zeta(s+j)^3"])
        assert ZetaProduct.parse(["zetaE(s-v)"], "QxF").expanded() \
            == ZetaProduct.parse(["zeta(s-v)", "zetaF(s-v)"], "field")

    def test_min_numerator_argument(self):
        p = ZetaProduct.parse(["zetaTheta(s-5)", "zeta(s-1)", "zeta(s)^-1"])
        # expanded numerator arguments at s=14: 9, 6, 13
        assert p.expanded().min_numerator_argument(14) == 6
        assert ZetaProduct().min_numerator_argument(5) is None

    def test_min_numerator_argument_undecided_by_unbound_symbol(self):
        # zeta(s+j) and zeta(s-j) are different functions: neither has a
        # smallest argument until j is bound
        for text in ("zeta(s+j)", "zeta(s-j)", "zetaTheta(s-3+j)"):
            p = ZetaProduct.parse([text, "zeta(s-1)"]).expanded()
            assert p.min_numerator_argument(2) is None
        # a symbol in the denominator does not bear on the numerator
        assert ZetaProduct.parse(["zeta(s-1)", "zeta(s+j)^-1"]).min_numerator_argument(2) == 1


class TestGK:
    def test_identity_is_one(self, cfg):
        d5 = cfg.system("D5abs")
        oracle = cfg.oracle("D5")
        assert gk_cfunction(d5, oracle.lambda_abs, ()) == ZetaProduct()

    def test_d5_printed_form(self, cfg):
        oracle = cfg.oracle("D5")
        assert [str(e) for e in oracle.lambda_abs.entries()] \
            == ["s-4", "-3", "-2", "-1", "0"]
        got = oracle.gk_restricted((1,))
        want = ZetaProduct.parse(["zeta(s-4)", "zeta(s-7)",
                                  "zeta(s)^-1", "zeta(s-3)^-1"])
        assert got.same_function(want)

    def test_e7_simple_step(self, cfg):
        oracle = cfg.oracle("E7")
        got = oracle.gk_restricted((3,))
        assert got.same_function(ZetaProduct.parse(["zeta(s-1)", "zeta(s)^-1"]))

    def test_cocycle_property(self, cfg):
        # gk(w1 w2) = gk(w1, w2 lam) * gk(w2, lam) when lengths add
        d5 = cfg.system("D5abs")
        lam = cfg.oracle("D5").lambda_abs
        w1, w2 = (1, 2), (3, 4, 5, 4, 3, 2, 1)
        w = w1 + w2
        assert d5.length(w) == d5.length(w1) + d5.length(w2)
        m2 = d5.word_matrix(w2)
        lam2 = CoordVector(mat_vec(m2, lam.slope), mat_vec(m2, lam.icept))
        assert gk_cfunction(d5, lam, w) == \
            gk_cfunction(d5, lam2, w1) * gk_cfunction(d5, lam, w2)


class TestRationalCFunctions:
    def c(self, cfg, name, word):
        case = cfg.case(name)
        system = cfg.system(case.system)
        return rational_cfunction(system, case.rules,
                                  apply_word(system, CoordVector.lambda_s(system), word))

    def test_e7_list(self, cfg):
        assert self.c(cfg, "E7-siegel", ()) == ZetaProduct()
        assert self.c(cfg, "E7-siegel", (3, 2, 3)).same_function(
            ZetaProduct.parse(["zeta(s-5)", "zeta(s-9)",
                               "zeta(s)^-1", "zeta(s-4)^-1"]))
        assert self.c(cfg, "E7-siegel", (3, 2, 1, 3, 2, 3)).same_function(
            ZetaProduct.parse(["zeta(s-9)", "zeta(s-13)", "zeta(s-17)",
                               "zeta(s)^-1", "zeta(s-4)^-1", "zeta(s-8)^-1"]))

    def test_d6_terms(self, cfg):
        for word, want in [
            ((1,), ["zeta(s-1)", "zeta(s)^-1"]),
            ((2, 1), ["zeta(s-5)", "zeta(s-8)", "zeta(s)^-1", "zeta(s-4)^-1"]),
            ((1, 2, 1), ["zeta(s-5)", "zeta(s-9)", "zeta(s)^-1", "zeta(s-4)^-1"]),
        ]:
            assert self.c(cfg, "D6-min", word).same_function(ZetaProduct.parse(want))

    def test_missing_rule_raises(self, cfg):
        d5 = cfg.system("D5rel")
        lam = CoordVector.lambda_s(d5)
        with pytest.raises(KeyError):
            rational_cfunction(d5, {}, apply_word(d5, lam, (1,)))

    def test_composition_law(self, cfg):
        # c(w1 w2, lam) = c(w1, w2 lam) * c(w2, lam) when lengths add,
        # mirroring the factorization of the intertwining operators
        c3 = cfg.system("C3")
        rules = cfg.case("E7-siegel").rules
        lam = CoordVector.lambda_s(c3)
        w1, w2 = (3, 2, 1), (3, 2, 3)
        w = w1 + w2
        assert c3.length(w) == c3.length(w1) + c3.length(w2)
        m2 = c3.word_matrix(w2)
        lam2 = CoordVector(mat_vec(m2, lam.slope), mat_vec(m2, lam.icept))
        assert rational_cfunction(c3, rules, apply_word(c3, lam, w)) == \
            rational_cfunction(c3, rules, apply_word(c3, lam2, w1)) * \
            rational_cfunction(c3, rules, apply_word(c3, lam, w2))


class TestOrderReports:
    def test_d5_regular(self):
        p = ZetaProduct.parse(["zeta(s-4)", "zeta(s-7)",
                               "zeta(s)^-1", "zeta(s-3)^-1"])
        rep = order_report(p, 5)
        assert rep.total == 0 and rep.classification == "Regular"
        by_factor = {str(e.factor): e.contribution for e in rep.entries}
        assert by_factor["zeta(s-4)"] == -1
        assert by_factor["zeta(s-7)"] == 1

    def test_e7_simple_pole_at_14(self):
        p = ZetaProduct.parse(["zeta(s-9)", "zeta(s-13)", "zeta(s-17)",
                               "zeta(s)^-1", "zeta(s-4)^-1", "zeta(s-8)^-1"])
        rep = order_report(p, 14)
        assert rep.total == -1 and rep.classification == "SimplePole"

    def test_d7_ledger_at_7(self):
        p = ZetaProduct.parse([
            "zeta(s-6)", "zeta(s-11)", "zeta(s)^-1", "zeta(s-5)^-1",
            "poch(s/2-5/2;2)", "gamma(s-6)", "poch(s/2-7;2)",
            "poch(s/2-1;3)^-1", "gamma(s-2)^-1", "poch(s/2-11/2;3)^-1"])
        rep = order_report(p, 7)
        assert rep.total == -1 and rep.classification == "SimplePole"
        by_factor = {str(e.factor): e.contribution for e in rep.entries}
        assert by_factor["zeta(s-6)"] == -1        # pole of zeta at 1
        assert by_factor["zeta(s-11)"] == 1        # zero of zeta at -4
        assert by_factor["poch(s/2-11/2;3)"] == -1  # denominator zero

    def test_opaque_symbols_undecided_until_bound(self):
        p = ZetaProduct.parse(["gammaR(s-8+v)^-1"])
        rep = order_report(p, 6)
        assert rep.total is None and rep.classification == "Undecided"
        rep2 = order_report(p, 6, {"v": Fraction(0)})
        assert rep2.total == 1   # pole of Gamma_R at -2, inverted

    def test_symbolic_shift_survives_expansion(self):
        theta = ZetaProduct.parse(["zetaTheta(s-3+j)"])
        assert order_report(theta, 4).total is None
        assert order_report(theta.expanded(), 4).total is None
        split3 = ZetaProduct.parse(["zetaE(s-1+j)"], "split3")
        assert order_report(split3, 3, {"j": -1}).total == -3   # zeta(1)^3
        assert order_report(split3.expanded(), 3, {"j": -1}).total == -3

    def test_opaque_field_zeta(self):
        p = ZetaProduct.parse(["zetaE(s-4)"], variant="field")
        assert order_report(p, 6).total == 0       # Euler product range
        assert order_report(p, 5).total == -1      # Dedekind pole at 1
        assert order_report(p, 3).total is None    # below 1: opaque, not guessed
        assert order_report(p, 3).classification == "Undecided"

    def test_zeta_facts(self):
        one = ZetaProduct.parse(["zeta(s)"])
        assert order_report(one, 1).total == -1
        assert order_report(one, -2).total == 1
        assert order_report(one, -3).total == 0
        assert order_report(one, Fraction(1, 2)).total == 0

    def test_order_additive_under_multiplication(self):
        import itertools
        pool = [
            ZetaProduct.parse(["zeta(s-4)", "zeta(s)^-1"]),
            ZetaProduct.parse(["zetaTheta(s-4)", "zetaTheta(s)^-1"]),
            ZetaProduct.parse(["gamma(s-5)", "gammaR(s-5)^-1"]),
            ZetaProduct.parse(["poch(s/2-5/2;3)"]),
        ]
        for s0 in (5, 6, 7):
            for a, b in itertools.combinations(pool, 2):
                assert order_report(a * b, s0).total == \
                    order_report(a, s0).total + order_report(b, s0).total


VARIANTS = ("", "field", "split3", "QxF", "split")


@st.composite
def single_factor_products(draw):
    kind = draw(st.sampled_from(KINDS))
    arg = str(AffineForm(draw(st.sampled_from([0, 1, Fraction(1, 2), -1, 2])),
                         draw(st.integers(-8, 4)) + draw(st.sampled_from([0, Fraction(1, 2)]))))
    arg += draw(st.sampled_from(["", "+j", "-j"]))
    if kind == "poch":
        arg += f";{draw(st.integers(1, 3))}"
    text = f"{kind}({arg})^{draw(st.sampled_from([-2, -1, 1, 2]))}"
    return ZetaProduct.parse([text], draw(st.sampled_from(VARIANTS)))


def total_or_error(p, s0, symbols):
    try:
        return order_report(p, s0, symbols).total
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(single_factor_products(), st.integers(-4, 10),
       st.sampled_from([{}, {"j": Fraction(-1)}, {"j": Fraction(0)}, {"j": Fraction(3, 2)}]))
def test_order_survives_expansion(p, s0, symbols):
    # every kind and etale variant, bound and unbound symbols: expanding a
    # factor into its base pieces keeps its order, or its undecided verdict
    assert total_or_error(p, s0, symbols) == total_or_error(p.expanded(), s0, symbols)


class TestConvergence:
    """One three-way rule for Eisenstein margins and local intertwiner
    verdicts; only the word below the boundary differs."""

    def test_margin_six(self):
        assert convergence(AffineForm(1, -6).eval(24) - 12) == "AbsolutelyConvergent"

    def test_boundary(self):
        assert convergence(AffineForm(1, -1).eval(5) - 4) == "Boundary"

    def test_trivial(self):
        assert convergence(AffineForm(1, -3).eval(5) - 1) == "AbsolutelyConvergent"

    def test_not_convergent(self):
        assert convergence(Fraction(3) - 8) == "NotConvergent"

    def test_both_vocabularies(self):
        below = "NeedsContinuation"
        assert [convergence(Fraction(m)) for m in (1, 0, -1)] == \
            ["AbsolutelyConvergent", "Boundary", "NotConvergent"]
        assert [convergence(Fraction(m), below) for m in (1, 0, -1)] == \
            ["AbsolutelyConvergent", "Boundary", below]

    def test_local_verdict_reads_the_least_pairing(self, cfg):
        # D6-min at s0 = 6: no step, a positive step, a negative one
        case = cfg.case("D6-min")
        system = cfg.system(case.system)
        lam = CoordVector.lambda_s(system)
        got = []
        for word in ((), (1,), (1, 2, 1)):
            iv = eiscalc.intertwiner_verdict(system, case.rules,
                                             apply_word(system, lam, word), case.s0)
            got.append((iv.local_status, iv.min_pairing))
        assert got[0] == ("AbsolutelyConvergent", None)
        assert got[1][0] == "AbsolutelyConvergent" and got[1][1] > 0
        assert got[2][0] == "NeedsContinuation" and got[2][1] < 0
