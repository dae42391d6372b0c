import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arch_reference import PoleError, RatFunc, ZeroFunctionError, divmod_poly, rising
from exceis.exactnum import AffineForm, Poly, inverse
from weyl_reference import normalized_sign


def rf(num, den=(1,)):
    return RatFunc(Poly(num), Poly(den))


class TestPoly:
    def test_canonical_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()

    def test_coefficients_kept_as_given(self):
        """Ints stay ints through every operation; a Fraction stays a
        Fraction; anything else is no exact scalar."""
        p, q = Poly([1, -2]), Poly([3, 0, 4])
        for r in (p * q, p + q, p.scale(3), p.derivative(), q.deflate(0)[1]):
            assert all(type(c) is int for c in r.coeffs)
        assert Poly([Fraction(1, 2)]).coeffs == (Fraction(1, 2),)
        for bad in ("1", 0.5, None):
            with pytest.raises(TypeError, match="not an exact scalar"):
                Poly([1, bad])

    def test_divmod(self):
        p = Poly([-1, 0, 1])          # s^2 - 1
        q, r = divmod_poly(p, Poly([1, 1]))  # s + 1
        assert q == Poly([-1, 1]) and r.is_zero()

    def test_root_multiplicity(self):
        p = Poly([1, 1]) * Poly([1, 1]) * Poly([3, 1])
        assert p.deflate(-1) == (2, Poly([3, 1]))
        assert p.deflate(5) == (0, p)
        with pytest.raises(ValueError):
            Poly().deflate(1)


class TestAffineForm:
    @pytest.mark.parametrize("text,slope,icept", [
        ("s-17", 1, -17),
        ("2s-10", 2, -10),
        ("-4", 0, -4),
        ("1-s", -1, 1),
        ("s/2-7", Fraction(1, 2), -7),
        ("s/2-11/2", Fraction(1, 2), Fraction(-11, 2)),
        ("-s+18", -1, 18),
    ])
    def test_parse(self, text, slope, icept):
        a = AffineForm.parse(text)
        assert a.slope == slope and a.intercept == icept

    @pytest.mark.parametrize("text", ["s-", "2s-", "s-1-", "s--1", "s+-1", "+", "-"])
    def test_parse_consumes_the_whole_text(self, text):
        """A stray sign is no term: once dropped, "s--1" read as s-1."""
        with pytest.raises(ValueError, match="cannot parse affine form"):
            AffineForm.parse(text)

    def test_roundtrip(self):
        for text in ("s-17", "2s-10", "-4", "-s+18", "s"):
            a = AffineForm.parse(text)
            assert AffineForm.parse(str(a)) == a

    def test_normalized_sign(self):
        assert normalized_sign(AffineForm.parse("3-s")) == AffineForm.parse("s-3")


class TestRatFunc:
    def test_canonical_equality(self):
        # same function along two arithmetic routes
        a = rf((-5, 1)) / rf((5, 1))            # (s-5)/(s+5)
        b = (rf((-25, 0, 1)) / rf((25, 10, 1)))  # (s^2-25)/(s+5)^2
        assert a == b

    def test_monic_denominator(self):
        f = rf((1,), (2, 4))   # 1/(4s+2)
        assert f.den.coeffs[-1] == 1

    def test_eval(self):
        v1 = rf((1, -1), (1, 1))     # (1-s)/(1+s)
        assert v1.eval_at(4) == Fraction(-3, 5)
        v2 = rf((1, -1)) * rf((3, -1)) / (rf((1, 1)) * rf((3, 1)))
        assert v2.eval_at(4) == Fraction(3, 35)

    def test_eval_at_pole_names_order(self):
        f = rf((1,), (-5, 1)) * rf((1,), (-5, 1))
        with pytest.raises(PoleError) as err:
            f.eval_at(5)
        assert err.value.order == 2

    def test_order_at(self):
        f = rf((25, -10, 1)) / rf((-5, 1))   # (s-5)^2/(s-5)
        assert f.order_at(5) == 1
        g = rf((-5, 1)) * rf((-3, 1))
        assert g.order_at(3) == 1
        v1 = rf((1, -1), (1, 1))
        assert v1.order_at(1) == 1

    def test_order_at_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            RatFunc(Poly()).order_at(1)

    def test_derivative_constant(self):
        assert RatFunc.const(1).derivative().is_zero()


class TestPochhammer:
    """The rising factorial that the reference d(z) entries are built from."""

    def test_empty_product(self):
        assert rising(AffineForm(1, 0), 0) == Poly([1])

    def test_single(self):
        z = AffineForm(Fraction(-1, 2), Fraction(1, 2))   # (1-s)/2
        assert rising(z, 1) == Poly([Fraction(1, 2), Fraction(-1, 2)])

    def test_zero_at_special_point(self):
        z = AffineForm(Fraction(1, 2), Fraction(-11, 2))  # (s-11)/2
        assert rising(z, 3).eval(7) == 0


coeffs = st.integers(min_value=-6, max_value=6)


def polys(min_size=0, max_size=4):
    return st.lists(coeffs, min_size=min_size, max_size=max_size).map(Poly)


def ratfuncs():
    return st.tuples(polys(), polys(min_size=1)).filter(
        lambda t: not t[1].is_zero()).map(lambda t: RatFunc(*t))


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), st.integers(min_value=-3, max_value=3))
def test_order_additive(f, g, s0):
    if f.is_zero() or g.is_zero():
        return
    assert (f * g).order_at(s0) == f.order_at(s0) + g.order_at(s0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_pochhammer_composition(a, b, m, n):
    z = AffineForm(a, b)
    lhs = rising(z, m + n)
    rhs = rising(z, m) * rising(z.shift(m), n)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms_spotcheck(f, g, h):
    assert (f + g) * h == f * h + g * h


# ---------------------------------------------------------------------------
# exact linear algebra, checked against Leibniz determinants
# ---------------------------------------------------------------------------

scalars = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def matrices(nrows, ncols):
    return st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def square_matrices():
    return st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n))


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def cleared(rows):
    """Rational rows as integer rows m * rows, with m their least common
    denominator."""
    m = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(x * m) for x in row] for row in rows], m


def det(a):
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(1 for i, j in combinations(range(len(a)), 2) if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_inverse(a):
    n = len(a)
    ia, m = cleared(a)
    if det(a) == 0:
        with pytest.raises(ValueError):
            inverse(ia)
        return
    inv, den = inverse(ia)
    assert den > 0 and math.gcd(den, *(x for row in inv for x in row)) == 1
    # a = ia/m, so a^-1 = m inv/den
    for j in range(n):
        assert mat_vec(a, [Fraction(m * row[j], den) for row in inv]) == [int(i == j)
                                                                           for i in range(n)]
