from fractions import Fraction

import pytest

import arch_reference as ref
from exceis.archmult import (A1, A1_DEN, A1_INV, BASE_A, MultiplierVector, RecipeCatalog, Token,
                             diag_factors, parse_tokens, pattern_check, read_at,
                             vanishing_order, MatrixRecipe)
from exceis.cases import arch_report, build_table_report, modulus_report, oracle_report
from exceis.config import Config, load_config
from exceis.exactnum import AffineForm, Poly


@pytest.fixture(scope="module")
def cfg():
    return load_config()


class TestBaseMatrix:
    def test_inverse(self):
        assert BASE_A[0] == (2, 2, 1)
        assert A1[0] == (2, 56, 140)

    def test_diag_entries(self):
        (v2, v1, v0), den = diag_factors(AffineForm(1, 0))
        assert v0 == den == Poly([3, 4, 1])   # (1+s)(3+s) = 4 ((1+s)/2)_2
        assert Fraction(v1.eval(4), den.eval(4)) == Fraction(-3, 5)
        assert Fraction(v2.eval(4), den.eval(4)) == Fraction(3, 35)
        # z = s/2 - 7/2 has m = 2: (1+z)/2 = (s-5)/4 and (1-z)/2 = (9-s)/4
        (v2, v1, v0), den = diag_factors(AffineForm(Fraction(1, 2), Fraction(-7, 2)))
        assert v0 == den == Poly([-5, 1]) * Poly([-1, 1])
        assert (v1, v2) == (Poly([9, -1]) * Poly([-1, 1]), Poly([9, -1]) * Poly([13, -1]))
        assert all(isinstance(c, int) for p in (v2, v1, den) for c in p.coeffs)

    def test_d_at_one(self):
        # (1-z)/2 vanishes at z=1, so the first two entries of d(1) are 0
        (v2, v1, _), _ = diag_factors(AffineForm(1, 0))
        assert v1.eval(1) == 0 and v2.eval(1) == 0


class TestTokens:
    def test_roundtrip(self):
        text = "A1i d(2s-5) A1 d(s-2)^3 A1i d(s-1) A1 e3"
        assert parse_tokens(text) == (
            Token("A1inv"), Token("d", AffineForm(2, -5)), Token("A1"),
            Token("d", AffineForm(1, -2), power=3), Token("A1inv"),
            Token("d", AffineForm(1, -1)), Token("A1"), Token("base"))

    def test_suffix_reference(self):
        toks = parse_tokens("A1 d(s-3)^3 @v212")
        assert toks[-1].kind == "ref" and toks[-1].ref == "v212"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_tokens("A1 d(s-1")
        with pytest.raises(ValueError):
            parse_tokens("A1 d(s-1)")   # does not end in the base vector


class TestEvaluation:
    def test_base_vector_alone(self):
        cat = RecipeCatalog({"base-only": MatrixRecipe(
            "x", (9,), "base-only", "e3", parse_tokens("e3"), Fraction(0), ("*",) * 3)})
        vec = cat.evaluate(cat.recipes["base-only"])
        assert [r.value for r in read_at(vec, 0)] == [0, 0, 1]

    def test_d4_intermediate_witness(self):
        # d(4) applied to A1 (0,0,1)^t gives (12,12,6); then A1^{-1} gives (6,0,0)
        col = [A1[i][2] for i in range(3)]
        assert col == [140, -20, 6]
        factors, den = diag_factors(AffineForm(1, -1))   # d(s-1) at s=5 is d(4)
        vals = [Fraction(f.eval(5), den.eval(5)) * c for f, c in zip(factors, col)]
        assert vals == [12, 12, 6]
        back = [Fraction(sum(A1_INV[i][k] * vals[k] for k in range(3)), A1_DEN)
                for i in range(3)]
        assert back == [6, 0, 0]

    def test_catalog_patterns(self, cfg):
        for recipe in cfg.catalog.recipes.values():
            vec = cfg.catalog.evaluate(recipe)
            res = pattern_check(vec, recipe.s0, recipe.value, recipe.derivative)
            assert res.ok, (recipe.name, res.ledger)

    def test_no_pole_near_special_point(self, cfg):
        # the shared, unreduced denominator of every catalog recipe is
        # nonzero at s=5
        for name in sorted(cfg.catalog.recipes):
            vec = cfg.catalog.evaluate(cfg.catalog.recipes[name])
            assert vec.den.eval(5) != 0

    def test_prefix_distributes_over_suffix(self, cfg):
        # evaluating "prefix @v212" equals applying the prefix to v212's value
        cat = cfg.catalog
        v212 = cat.evaluate(cat.recipes["v212"])
        full = cat.evaluate(cat.recipes["v1212"])
        d3, den3 = diag_factors(AffineForm(1, -3))
        step = v212
        for _ in range(3):
            step = MultiplierVector(tuple(d * v for d, v in zip(d3, step.nums)),
                                    step.den * den3)
        applied = [sum((step.nums[k].scale(A1[i][k]) for k in range(3)), Poly())
                   for i in range(3)]
        assert applied == list(full.nums) and step.den == full.den

    def test_derivative_patterns_exact_values(self, cfg):
        cat = cfg.catalog
        v1212 = cat.evaluate(cat.recipes["v1212"])
        dvals = [r.derivative for r in read_at(v1212, 5)]
        assert dvals[2] == 0 and (dvals[0] != 0 or dvals[1] != 0)
        v12432 = cat.evaluate(cat.recipes["v12432"])
        dvals = [r.derivative for r in read_at(v12432, 5)]
        assert dvals[0] == 0 and dvals[1] == 0 and dvals[2] != 0

    def test_pole_is_a_failed_check(self, cfg):
        """At a pole the value and the derivative read their pole orders,
        one more for the derivative, as the canonical RatFunc's do, and the
        check fails whatever the pattern."""
        recipe = cfg.catalog.recipes["v12-d4"]
        vec = cfg.catalog.evaluate(recipe)
        res = pattern_check(vec, 0, ("*",) * 3, ("*",) * 3)
        assert not res.ok
        canonical = ref.evaluate(recipe.tokens, {})
        want = []
        for label, fs in (("value", canonical), ("derivative", [f.derivative() for f in canonical])):
            for i, f in enumerate(fs):
                with pytest.raises(ref.PoleError) as err:
                    f.eval_at(0)
                want.append(f"{label}[{i}] = pole of order {err.value.order}")
        assert res.ledger == want
        assert vanishing_order(vec, 0) == -1

    def test_vanishing_order(self, cfg):
        cat = cfg.catalog
        assert vanishing_order(cat.evaluate(cat.recipes["v21212"]), 5) >= 2
        assert vanishing_order(cat.evaluate(cat.recipes["v212"]), 5) >= 1


def test_tables_pass_evaluates_each_recipe_once(monkeypatch):
    """A fresh tables pass (every table, then modulus, oracle and arch)
    evaluates each printed recipe once: a `@ref` token and every row that
    names a recipe read its one verdict."""
    calls = []
    evaluate = RecipeCatalog.evaluate
    monkeypatch.setattr(RecipeCatalog, "evaluate",
                        lambda self, recipe: calls.append(recipe.name) or evaluate(self, recipe))
    cfg = Config(load_config().raw)
    for case in cfg.cases.values():
        for table in case.tables:
            build_table_report(cfg, case, table)
    for report in (modulus_report, oracle_report, arch_report):
        report(cfg)
    assert len(cfg.catalog.recipes) == 7
    assert sorted(calls) == sorted(cfg.catalog.recipes)
