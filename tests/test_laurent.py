"""Laurent polynomials over a finite field and the AS operator."""

import random

import pytest

from wildmckay.covers import RepPoly
from wildmckay.gf import GF
from wildmckay.laurent import LaurentSeries, artin_schreier

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_construction_drops_zeros():
    f = LaurentSeries(F3, {-1: 3, 0: 2})
    assert f.support() == [0]


def test_exact_zero_times_anything_is_exact():
    z = LaurentSeries.zero(F3)
    b = LaurentSeries(F3, {-2: 1, 4: 2})
    assert (z * b).is_zero() and (b * z).is_zero()


class TestArtinSchreier:
    def test_zero_and_one(self):
        assert artin_schreier(F2.zero).is_zero()
        assert artin_schreier(F2.one).is_zero()

    def test_monomial_expansion(self):
        f = LaurentSeries(F2, {-1: 1})
        w = artin_schreier(f)
        assert w == LaurentSeries(F2, {-2: 1, -1: 1})

    def test_field_element_lands_in_trace_kernel(self):
        for x in F4.elements():
            assert artin_schreier(x).trace() == 0

    def test_additive(self):
        a = LaurentSeries(F3, {-2: 1, 1: 2})
        b = LaurentSeries(F3, {-2: 2, 0: 1})
        assert artin_schreier(a + b) == artin_schreier(a) + artin_schreier(b)


class TestCodedCoefficients:
    """Series store codes; GFElement arithmetic is the reference here."""

    def test_ints_are_prime_field_values_not_codes(self):
        assert LaurentSeries(GF(2, 2), {0: 3}) == LaurentSeries(GF(2, 2), {0: 1})
        assert RepPoly(GF(3, 2), {1: 4}) == RepPoly(GF(3, 2), {1: 1})

    def test_elements_come_back_unchanged(self):
        F = GF(3, 2)
        for x in F.elements():
            f = LaurentSeries(F, {-3: x})
            assert f.coefficient(-3) == x and f.coefficient(0).is_zero()

    @staticmethod
    def random_terms(F, rng):
        """{exponent: nonzero element}, on both sides of t^0."""
        terms = {rng.randint(-12, 6): F.from_encoding(rng.randrange(F.order)) for _ in range(rng.randint(0, 6))}
        return {e: c for e, c in terms.items() if c}

    @staticmethod
    def assert_matches(got, terms):
        assert {e: got.coefficient(e) for e in got.support()} == {e: c for e, c in terms.items() if c}

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_arithmetic_matches_elements(self, p, e):
        F = GF(p, e)
        rng = random.Random(p ** e)
        for _ in range(60):
            ta, tb = self.random_terms(F, rng), self.random_terms(F, rng)
            a, b = LaurentSeries(F, ta), LaurentSeries(F, tb)
            support = set(ta) | set(tb)
            self.assert_matches(a + b, {x: ta.get(x, F.zero) + tb.get(x, F.zero) for x in support})
            self.assert_matches(a - b, {x: ta.get(x, F.zero) - tb.get(x, F.zero) for x in support})
            k = rng.randint(p, 4 * p)
            self.assert_matches(a * k, {x: c * k for x, c in ta.items()})
            product = {}
            for x, c in ta.items():
                for y, d in tb.items():
                    product[x + y] = product.get(x + y, F.zero) + c * d
            self.assert_matches(a * b, product)
            image = {x: -c for x, c in ta.items()}
            for x, c in ta.items():
                image[p * x] = image.get(p * x, F.zero) + c ** p
            self.assert_matches(artin_schreier(a), image)
