"""Laurent polynomials over a finite field and the AS operator."""

import random

import pytest

from gf_reference import Reference
from wildmckay.covers import ASCoverClass
from wildmckay.gf import GF
from wildmckay.laurent import LaurentSeries, artin_schreier

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_construction_drops_zeros():
    f = LaurentSeries(F3, {-1: 0, 0: 2})
    assert f.support() == [0]


def test_exact_zero_times_anything_is_exact():
    z = LaurentSeries.zero(F3)
    b = LaurentSeries(F3, {-2: 1, 4: 2})
    assert (z * b).is_zero() and (b * z).is_zero()


class TestArtinSchreier:
    def test_zero_and_one(self):
        assert artin_schreier(LaurentSeries(F2, {0: 0})).is_zero()
        assert artin_schreier(LaurentSeries(F2, {0: 1})).is_zero()

    def test_monomial_expansion(self):
        f = LaurentSeries(F2, {-1: 1})
        w = artin_schreier(f)
        assert w == LaurentSeries(F2, {-2: 1, -1: 1})

    def test_field_element_lands_in_trace_kernel(self):
        trace = Reference(F4).trace
        for x in range(F4.order):
            assert trace(artin_schreier(LaurentSeries(F4, {0: x})).coefficient(0)) == 0

    def test_additive(self):
        a = LaurentSeries(F3, {-2: 1, 1: 2})
        b = LaurentSeries(F3, {-2: 2, 0: 1})
        assert artin_schreier(a + b) == artin_schreier(a) + artin_schreier(b)


class TestCodedCoefficients:
    """Series store codes; sympy's galoistools (gf_reference) is the reference here."""

    def test_coefficients_are_codes_in_range_q(self):
        # 3 is the code of 1 + y in F_4, not the prime-field value 3 = 1
        assert LaurentSeries(GF(2, 2), {0: 3}).coefficient(0) == 3
        assert ASCoverClass(GF(3, 2), {1: 8}).coeffs == {1: 8}
        f = LaurentSeries(GF(2, 2), {-1: 1})
        for bad in (4, -1, 1.0, "1", None):
            with pytest.raises(ValueError, match="is not a code of GF"):
                LaurentSeries(GF(2, 2), {0: bad})
            with pytest.raises(ValueError, match="is not a code of GF"):
                ASCoverClass(GF(2, 2), {1: bad})
            with pytest.raises(ValueError, match="is not a code of GF"):
                f * bad
        assert (f * 3).coeffs == {-1: 3} and (f * 0).is_zero()

    def test_elements_come_back_unchanged(self):
        F = GF(3, 2)
        for x in range(F.order):
            f = LaurentSeries(F, {-3: x})
            assert f.coefficient(-3) == x and f.coefficient(0) == 0

    @staticmethod
    def random_terms(F, rng):
        """{exponent: nonzero code}, on both sides of t^0."""
        terms = {rng.randint(-12, 6): rng.randrange(F.order) for _ in range(rng.randint(0, 6))}
        return {e: c for e, c in terms.items() if c}

    @staticmethod
    def assert_matches(got, terms):
        assert {e: got.coefficient(e) for e in got.support()} == {e: c for e, c in terms.items() if c}

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_arithmetic_matches_elements(self, p, e):
        F = GF(p, e)
        ref = Reference(F)
        rng = random.Random(p ** e)
        for _ in range(60):
            ta, tb = self.random_terms(F, rng), self.random_terms(F, rng)
            a, b = LaurentSeries(F, ta), LaurentSeries(F, tb)
            support = set(ta) | set(tb)
            self.assert_matches(a + b, {x: ref.add(ta.get(x, 0), tb.get(x, 0)) for x in support})
            self.assert_matches(a - b, {x: ref.add(ta.get(x, 0), ref.neg(tb.get(x, 0))) for x in support})
            k = rng.randrange(F.order)
            self.assert_matches(a * k, {x: ref.mul(c, k) for x, c in ta.items()})
            product = {}
            for x, c in ta.items():
                for y, d in tb.items():
                    product[x + y] = ref.add(product.get(x + y, 0), ref.mul(c, d))
            self.assert_matches(a * b, product)
            image = {x: ref.neg(c) for x, c in ta.items()}
            for x, c in ta.items():
                image[p * x] = ref.add(image.get(p * x, 0), ref.power(c, p))
            self.assert_matches(artin_schreier(a), image)
