"""Canonical arithmetic in the Lefschetz-class value ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildmckay import stringy
from wildmckay.motivic import (
    DivergentSeries,
    FractionalPowerUnevaluable,
    L,
    MotivicValue,
    PoleAtOne,
    PoleAtQ,
    geometric_sum,
)

ONE = MotivicValue({0: 1})


def lp(e):
    return MotivicValue.l_power(e)


# -- strategies ---------------------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)
exponents = st.integers(min_value=-4, max_value=4)
scales = st.sampled_from([1, 1, 1, 2, 3])


@st.composite
def lpoly_terms(draw, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=4))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    if not allow_zero and not any(terms.values()):
        terms[draw(exponents)] = 1
    return terms


@st.composite
def motivic_values(draw):
    num = draw(lpoly_terms())
    den = draw(lpoly_terms(allow_zero=False))
    return MotivicValue(num, den, draw(scales))


# -- arithmetic and canonical form --------------------------------------------


class TestArithmetic:
    def test_ring_identities(self):
        assert (L - 1) + 1 == L
        assert lp(Fraction(1, 2)) * lp(Fraction(1, 2)) == L
        assert (L * L - L) / (L - 1) == L

    def test_scale_merging_reduces(self):
        v = lp(Fraction(1, 2)) * lp(Fraction(1, 2))
        assert v.scale == 1

    def test_division_by_zero_value(self):
        with pytest.raises(ZeroDivisionError):
            ONE / MotivicValue({})

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            MotivicValue({0: 1}, {})

    def test_inexact_input_is_refused(self):
        for num in ({0.5: 1, 1: 2}, {1: 2.7}, {1: Fraction(3, 2)}, {"1": "3"}):
            with pytest.raises(ValueError):
                MotivicValue(num)
        for scale in (0, 2.0):
            with pytest.raises(ValueError):
                MotivicValue({0: 1}, None, scale)
        for build in (
            lambda: MotivicValue.l_power(0.1),
            lambda: L + 0.1,
            lambda: L.evaluate(0.1),
            lambda: geometric_sum(L, -0.5),
            lambda: stringy.smooth_pair_invariant(2, 0.5),
            lambda: stringy.stack_pair_invariant(2, -0.5),
        ):
            with pytest.raises(TypeError):
                build()

    def test_equality_across_scales(self):
        assert MotivicValue({2: 1}, None, 2) == L
        assert MotivicValue({2: 3, 0: -3}, None, 2) == 3 * (L - 1)

    def test_negative_exponents_factored_into_numerator(self):
        v = ONE / lp(2)
        assert v.den.terms == {0: 1}
        assert v.num.terms == {-2: 1}

    def test_pow(self):
        assert L ** 3 == lp(3)
        assert L ** -2 == lp(-2)
        assert (L - 1) ** 0 == ONE

    @settings(max_examples=60, deadline=None)
    @given(motivic_values(), motivic_values(), motivic_values())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(motivic_values())
    def test_field_inverse(self, a):
        if not a.is_zero():
            assert a / a == ONE
            assert (ONE / a) * a == ONE


# -- geometric series ----------------------------------------------------------


class TestGeometricSum:
    def test_simple(self):
        assert geometric_sum(ONE, -1) == L / (L - 1)

    def test_cancellation_against_partial_sums(self):
        # independent oracle: expand ten terms and compare point counts
        total = geometric_sum(L - 1, -1)
        assert total == L
        for q in (2, 3):
            partial = Fraction(0)
            for n in range(200):
                partial += (Fraction(q) - 1) * Fraction(q) ** (-n)
            # the partial sums approach the closed-form value q
            assert abs(partial - total.point_count(q)) < Fraction(1, q ** 190)

    def test_divergent(self):
        with pytest.raises(DivergentSeries):
            geometric_sum(ONE, 0)
        with pytest.raises(DivergentSeries):
            geometric_sum(ONE, Fraction(1, 2))

    @settings(max_examples=40, deadline=None)
    @given(motivic_values(), st.fractions(min_value=Fraction(-5), max_value=Fraction(-1, 3), max_denominator=4))
    def test_algebraic_identity(self, c, e):
        total = geometric_sum(c, e)
        assert (ONE - lp(e)) * total == c


# -- realizations --------------------------------------------------------------


class TestPointCount:
    def test_polynomial_value(self):
        assert MotivicValue({3: 1, 2: 2}).point_count(3) == 45

    def test_rational_value(self):
        assert (L / (L - 1)).point_count(2) == 2

    def test_fractional_power_unevaluable(self):
        v = ONE / (ONE - lp(Fraction(-1, 2)))
        with pytest.raises(FractionalPowerUnevaluable):
            v.point_count(3)
        # a perfect square is fine
        assert v.point_count(4) == 2
        with pytest.raises(FractionalPowerUnevaluable):
            lp(Fraction(1, 2)).point_count(8)

    def test_exact_root_of_huge_q(self):
        # the root comes from q = p^e, never from a float
        assert lp(Fraction(1, 3)).point_count(3 ** 120) == 3 ** 40
        assert L.point_count(2 ** 1100) == 2 ** 1100

    def test_pole(self):
        with pytest.raises(PoleAtQ):
            (ONE / (L - 2)).point_count(2)

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            L.point_count(6)

    @settings(max_examples=60, deadline=None)
    @given(motivic_values(), motivic_values(), st.sampled_from([2, 3, 4, 5, 9]))
    def test_ring_homomorphism(self, a, b, q):
        try:
            pa, pb = a.point_count(q), b.point_count(q)
            ps, pp = (a + b).point_count(q), (a * b).point_count(q)
        except (PoleAtQ, FractionalPowerUnevaluable):
            return
        assert ps == pa + pb
        assert pp == pa * pb


class TestEulerCharacteristic:
    def test_polynomial(self):
        assert MotivicValue({3: 1, 2: 2}).euler_characteristic() == 3

    def test_removable_singularity(self):
        v = (L * L - L) / (ONE - lp(-2))
        assert v.euler_characteristic() == Fraction(1, 2)

    def test_genuine_pole(self):
        with pytest.raises(PoleAtOne):
            (ONE / (L - 1)).euler_characteristic()


class TestPoincare:
    def test_substitution(self):
        v = MotivicValue({3: 1, 2: 2})
        assert v.poincare_polynomial() == MotivicValue({6: 1, 4: 2})

    def test_identity_and_rational(self):
        assert ONE.poincare_polynomial() == ONE
        assert (L / (L - 1)).poincare_polynomial() == MotivicValue({2: 1}, {2: 1, 0: -1})

    def test_variable_tag(self):
        assert str(MotivicValue({3: 1, 2: 2}).poincare_polynomial()) == "T^6 + 2*T^4"
        # a number is an operand, so the result keeps the value's variable
        t = (L + 1).poincare_polynomial()
        assert str(1 - t) == "-T^2"
        assert str(2 / t) == "(2)/(T^2 + 1)"

    def test_top_degree_is_twice_dimension(self):
        v = MotivicValue({3: 1, 2: 2})
        assert v.poincare_polynomial().dimension() == 2 * v.dimension()

    @settings(max_examples=40, deadline=None)
    @given(motivic_values())
    def test_euler_equals_poincare_at_one(self, v):
        if v.scale != 1:
            return
        try:
            e = v.euler_characteristic()
        except PoleAtOne:
            return
        assert v.poincare_polynomial().evaluate(1) == e


class TestDimension:
    def test_values(self):
        assert MotivicValue({3: 1, 2: 2}).dimension() == 3
        assert ((L - 1) / (L * L - 1)).dimension() == -1
        assert MotivicValue({}).dimension() == float("-inf")


class TestDuality:
    def test_palindrome(self):
        v = MotivicValue({2: 1, 1: 3, 0: 1})
        assert v.dual(3) == v

    def test_simple(self):
        assert L.dual(2) == ONE
        assert ONE.dual(1) == ONE

    @settings(max_examples=40, deadline=None)
    @given(motivic_values(), st.integers(min_value=0, max_value=4))
    def test_involution(self, v, d):
        assert v.dual(d).dual(d) == v


class TestSerialization:
    def test_round_trip(self):
        v = (L * L - L) / (ONE - lp(Fraction(-1, 2)))
        data = v.to_json()
        num, den = dict(data["num"]), dict(data["den"])
        assert MotivicValue(num, den, data["scale"]) == v

    def test_record_shape(self):
        data = (L / (L - 1)).to_json()
        assert data == {"scale": 1, "num": [[1, 1]], "den": [[0, -1], [1, 1]]}
