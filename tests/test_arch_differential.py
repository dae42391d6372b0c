"""The verifier's recipe evaluation against the canonical RatFunc path kept
in tests/arch_reference.py.  Every catalog recipe, at its own s0, at its
case's s0 and at the zeros and poles of its d factors, and random token
strings, at integers that hit those zeros and poles, read the same order
for each entry, and the same value and derivative or the same pole; and
each entry over the unreduced denominator is the canonical entry as a
function."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arch_reference as ref
from exceis.archmult import MatrixRecipe, Reading, RecipeCatalog, parse_tokens, read_at
from exceis.config import load_config
from exceis.exactnum import AffineForm

CATALOG = load_config().catalog


def special_points(tokens) -> set[Fraction]:
    """The points where a d(z) factor vanishes (z = 1, 3) or has a pole
    (z = -1, -3)."""
    return {(z - t.arg.intercept) / t.arg.slope
            for t in tokens if t.kind == "d" for z in (1, 3, -1, -3)}


def assert_same_readings(vec, ref_vec, points) -> None:
    for s0 in sorted(points):
        assert read_at(vec, s0) == ref.read(ref_vec, s0), f"s0 = {s0}"


def assert_same_functions(vec, ref_vec) -> None:
    """num / den = F.num / F.den for each entry, cross-multiplied."""
    for num, f in zip(vec.nums, ref_vec):
        assert num * f.den == f.num * vec.den


@pytest.mark.parametrize("name", sorted(CATALOG.recipes))
def test_catalog_recipe(name):
    cfg = load_config()
    recipe = CATALOG.recipes[name]
    ref_vec = ref.evaluate(recipe.tokens,
                           {n: r.tokens for n, r in CATALOG.recipes.items()})
    points = {recipe.s0, cfg.case(recipe.case).s0}
    assert_same_readings(CATALOG.evaluate(recipe), ref_vec, points)
    assert_same_readings(CATALOG.evaluate(recipe), ref_vec, special_points(recipe.tokens))
    assert_same_functions(CATALOG.evaluate(recipe), ref_vec)


def test_catalog_hits_a_pole():
    """The special points of the catalog include poles, where an entry
    reads its order alone: d(s-1) has one at s = 0."""
    readings = read_at(CATALOG.evaluate(CATALOG.recipes["v12-d4"]), 0)
    assert readings == [Reading(-1)] * 3


d_tokens = st.builds(lambda a, b, k: f"d({AffineForm(a, b)})" + (f"^{k}" if k > 1 else ""),
                     st.sampled_from([-2, -1, 1, 2]), st.integers(-6, 6), st.integers(1, 3))
token_texts = st.lists(st.one_of(st.just("A1"), st.just("A1i"), d_tokens),
                       max_size=4).map(lambda ts: " ".join([*ts, "e3"]))


@settings(max_examples=80, deadline=None)
@given(token_texts, st.integers(-8, 8))
def test_random_token_strings(text, s0):
    tokens = parse_tokens(text)
    catalog = RecipeCatalog({"r": MatrixRecipe("x", (1,), "r", text, tokens,
                                               Fraction(0), ("*",) * 3)})
    points = {Fraction(s0)} | {p for p in special_points(tokens) if p.denominator == 1}
    vec, ref_vec = catalog.evaluate(catalog.recipes["r"]), ref.evaluate(tokens, {})
    assert_same_readings(vec, ref_vec, points)
    assert_same_functions(vec, ref_vec)
