"""Truncated Laurent series: precision bookkeeping and the AS operator."""

import random

import pytest

from wildmckay.covers import RepPoly
from wildmckay.gf import GF
from wildmckay.laurent import INF, InsufficientPrecision, LaurentSeries, artin_schreier

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_construction_drops_zeros():
    f = LaurentSeries(F3, {-1: 3, 0: 2})
    assert f.support() == [0]


def test_coefficient_above_precision_rejected():
    with pytest.raises(ValueError):
        LaurentSeries(F2, {5: 1}, prec=3)
    f = LaurentSeries(F2, {1: 1}, prec=3)
    with pytest.raises(InsufficientPrecision):
        f.coefficient(4)


def test_addition_takes_min_precision():
    a = LaurentSeries(F2, {0: 1, 2: 1}, prec=5)
    b = LaurentSeries(F2, {1: 1}, prec=2)
    c = a + b
    assert c.prec == 2
    assert c.support() == [0, 1, 2]


def test_product_precision_convolution_bound():
    a = LaurentSeries(F3, {-1: 1}, prec=4)   # ord -1
    b = LaurentSeries(F3, {2: 1}, prec=6)    # ord 2
    c = a * b
    # min(4 + 2, 6 + (-1)) = 5
    assert c.prec == 5
    assert c.support() == [1]


def test_product_with_unknown_zero_factor():
    z = LaurentSeries(F3, {}, prec=2)  # zero so far, unknown above t^2
    b = LaurentSeries(F3, {0: 1}, prec=INF)
    c = z * b
    assert c.is_zero() and c.prec == 2


def test_exact_zero_times_anything_is_exact():
    z = LaurentSeries.zero(F3)
    b = LaurentSeries(F3, {0: 1}, prec=4)
    assert (z * b).prec == INF


class TestArtinSchreier:
    def test_zero_and_one(self):
        assert artin_schreier(F2.zero).is_zero()
        assert artin_schreier(F2.one).is_zero()

    def test_monomial_expansion(self):
        f = LaurentSeries(F2, {-1: 1})
        w = artin_schreier(f)
        assert w == LaurentSeries(F2, {-2: 1, -1: 1})

    def test_precision_preserved(self):
        f = LaurentSeries(F3, {-1: 1, 2: 1}, prec=4)
        assert artin_schreier(f).prec == 4

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
            f = LaurentSeries(F, {-3: x}, prec=2)
            assert f.coefficient(-3) == x and f.coefficient(0).is_zero()

    @staticmethod
    def random_terms(F, rng, prec):
        """{exponent: nonzero element} with every exponent <= prec."""
        top = 6 if prec == INF else prec
        terms = {rng.randint(-12, top): F.from_encoding(rng.randrange(F.order)) for _ in range(rng.randint(0, 6))}
        return {e: c for e, c in terms.items() if c}

    @staticmethod
    def assert_matches(got, terms, prec):
        assert got.prec == prec
        assert {e: got.coefficient(e) for e in got.support()} == {e: c for e, c in terms.items() if c}

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_arithmetic_matches_elements(self, p, e):
        F = GF(p, e)
        rng = random.Random(p ** e)
        for _ in range(60):
            pa, pb = (rng.choice([INF, rng.randint(-3, 6)]) for _ in range(2))
            ta, tb = self.random_terms(F, rng, pa), self.random_terms(F, rng, pb)
            a, b = LaurentSeries(F, ta, pa), LaurentSeries(F, tb, pb)
            prec = min(pa, pb)
            support = [x for x in set(ta) | set(tb) if x <= prec]
            self.assert_matches(a + b, {x: ta.get(x, F.zero) + tb.get(x, F.zero) for x in support}, prec)
            self.assert_matches(a - b, {x: ta.get(x, F.zero) - tb.get(x, F.zero) for x in support}, prec)
            k = rng.randint(p, 4 * p)
            self.assert_matches(a * k, {x: c * k for x, c in ta.items()}, pa)
            prec = min(pa + min(tb, default=pb + 1), pb + min(ta, default=pa + 1))
            product = {}
            for x, c in ta.items():
                for y, d in tb.items():
                    if x + y <= prec:
                        product[x + y] = product.get(x + y, F.zero) + c * d
            self.assert_matches(a * b, product, prec)
            prec = pa if pa == INF else min(pa, p * pa)
            image = {x: -c for x, c in ta.items() if x <= prec}
            for x, c in ta.items():
                if p * x <= prec:
                    image[p * x] = image.get(p * x, F.zero) + c ** p
            self.assert_matches(artin_schreier(a), image, prec)
