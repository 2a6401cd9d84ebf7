"""Laurent polynomials {exponent: code} over a finite field and the AS operator."""

import random

import pytest

from gf_reference import Reference
from wildmckay.covers import ASCoverClass, nonzero_codes, reduce, to_str
from wildmckay.gf import GF
from wildmckay.laurent import add, artin_schreier, mul, sub

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def test_construction_drops_zeros():
    assert nonzero_codes(F3, {-1: 0, 0: 2}) == {0: 2}
    assert nonzero_codes(F3, None) == {}


def test_exact_zero_times_anything_is_exact():
    b = {-2: 1, 4: 2}
    assert mul(F3, {}, b) == {} and mul(F3, b, {}) == {}


def test_format():
    assert to_str(F3, {}) == "0"
    assert to_str(F3, {1: 2, -2: 1, 0: 1, 3: 1}) == "1*t^-2 + 1 + 2*t + 1*t^3"
    assert to_str(F4, {-1: 3}) == "(1+y)*t^-1"


class TestArtinSchreier:
    def test_zero_and_one(self):
        assert artin_schreier(F2, {0: 0}) == {}
        assert artin_schreier(F2, {0: 1}) == {}

    def test_monomial_expansion(self):
        assert artin_schreier(F2, {-1: 1}) == {-2: 1, -1: 1}

    def test_field_element_lands_in_trace_kernel(self):
        trace = Reference(F4).trace
        for x in range(F4.order):
            assert trace(artin_schreier(F4, {0: x}).get(0, 0)) == 0

    def test_additive(self):
        a = {-2: 1, 1: 2}
        b = {-2: 2, 0: 1}
        assert artin_schreier(F3, add(F3, a, b)) == add(F3, artin_schreier(F3, a), artin_schreier(F3, b))


class TestCodedCoefficients:
    """Polynomials hold codes; sympy's galoistools (gf_reference) is the reference here."""

    def test_coefficients_are_codes_in_range_q(self):
        # 3 is the code of 1 + y in F_4, not the prime-field value 3 = 1
        assert nonzero_codes(F4, {0: 3}) == {0: 3}
        assert ASCoverClass(GF(3, 2), {1: 8}).coeffs == {1: 8}
        for bad in (4, -1, 1.0, "1", None, True, False):
            with pytest.raises(ValueError, match="is not a code of GF"):
                nonzero_codes(F4, {0: bad})
            with pytest.raises(ValueError, match="is not a code of GF"):
                ASCoverClass(F4, {1: bad})
        assert mul(F4, {-1: 1}, {0: 3}) == {-1: 3} and mul(F4, {-1: 1}, nonzero_codes(F4, {0: 0})) == {}

    def test_exponents_are_ints(self):
        # a float exponent used to be truncated: {-2.5: 1} reduced as t^-2
        for bad in (-2.5, 1.9, True, "1"):
            with pytest.raises(ValueError, match=f"exponent {bad!r} is not an int"):
                nonzero_codes(F2, {bad: 1})
            with pytest.raises(ValueError, match=f"exponent {bad!r} is not an int"):
                ASCoverClass(F2, {bad: 1})
            with pytest.raises(ValueError, match=f"exponent {bad!r} is not an int"):
                reduce(F2, {bad: 1})

    def test_elements_come_back_unchanged(self):
        F = GF(3, 2)
        for x in range(F.order):
            f = nonzero_codes(F, {-3: x})
            assert f.get(-3, 0) == x and f.get(0, 0) == 0

    @staticmethod
    def random_terms(F, rng):
        """{exponent: nonzero code}, on both sides of t^0."""
        terms = {rng.randint(-12, 6): rng.randrange(F.order) for _ in range(rng.randint(0, 6))}
        return {e: c for e, c in terms.items() if c}

    @staticmethod
    def nonzero(terms):
        return {e: c for e, c in terms.items() if c}

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_arithmetic_matches_elements(self, p, e):
        F = GF(p, e)
        ref = Reference(F)
        rng = random.Random(p ** e)
        for _ in range(60):
            a, b = self.random_terms(F, rng), self.random_terms(F, rng)
            support = set(a) | set(b)
            assert add(F, a, b) == self.nonzero({x: ref.add(a.get(x, 0), b.get(x, 0)) for x in support})
            assert sub(F, a, b) == self.nonzero({x: ref.add(a.get(x, 0), ref.neg(b.get(x, 0))) for x in support})
            k = rng.randrange(F.order)
            assert mul(F, a, nonzero_codes(F, {0: k})) == self.nonzero({x: ref.mul(c, k) for x, c in a.items()})
            product = {}
            for x, c in a.items():
                for y, d in b.items():
                    product[x + y] = ref.add(product.get(x + y, 0), ref.mul(c, d))
            assert mul(F, a, b) == self.nonzero(product)
            image = {x: ref.neg(c) for x, c in a.items()}
            for x, c in a.items():
                image[p * x] = ref.add(image.get(p * x, 0), ref.power(c, p))
            assert artin_schreier(F, a) == self.nonzero(image)
            # the kernel makes new dicts and leaves its operands as they were
            before = (dict(a), dict(b))
            add(F, a, b), sub(F, a, b), mul(F, a, b), artin_schreier(F, a)
            assert (a, b) == before
