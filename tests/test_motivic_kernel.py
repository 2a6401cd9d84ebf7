"""The integer kernel under MotivicValue: pseudo-division, primitive gcd and
canonical forms, checked against sympy and against digests of canonical
forms frozen before the kernel was rewritten over Z."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from wildmckay import acceptance, motivic, stringy
from wildmckay.cli import main
from wildmckay.gf import InternalMismatch
from wildmckay.motivic import L, MotivicValue, _canonicalize, _divide, _gcd, _mul_terms

X = sympy.Symbol("x")


def _record(h, value):
    h.update(json.dumps(value.to_json(), sort_keys=True).encode())
    h.update(b"|")
    h.update(str(value).encode())
    h.update(b"\n")


def _random_poly(rng, degree, bound=6):
    return {k: c for k in range(degree + 1) if (c := rng.randint(-bound, bound))}


def _sympy_poly(terms):
    return sum((c * X ** k for k, c in terms.items()), sympy.Integer(0))


def _normalized(num, den):
    """Clear denominators, divide out the joint content, make lc(den) > 0."""
    lcm = math.lcm(*(Fraction(c).denominator for c in (*num.values(), *den.values())))
    num = {k: int(Fraction(c) * lcm) for k, c in num.items()}
    den = {k: int(Fraction(c) * lcm) for k, c in den.items()}
    content = math.gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        content = -content
    return {k: c // content for k, c in num.items()}, {k: c // content for k, c in den.items()}


def _poly_terms(expr):
    poly = sympy.Poly(expr, X)
    return {m[0]: Fraction(int(c.p), int(c.q)) for m, c in zip(poly.monoms(), poly.coeffs())}


class TestFrozenCanonicalForms:
    """SHA-256 digests of to_json and str, frozen with the dense Fraction
    Euclid the integer kernel replaced: canonical forms are unchanged."""

    def test_stringy_quantities(self):
        h = hashlib.sha256()
        for p in (2, 3, 5, 7):
            for rep in stringy.rep_types_iter(p, 3):
                if stringy.shift_slope(rep) < p:
                    continue
                _record(h, stringy.stringy_invariant(rep))
                _record(h, stringy.origin_fiber_class(rep))
                _record(h, stringy.projectivized_invariant(rep))
        for p in (2, 3, 5):
            for a in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
                _record(h, stringy.stack_pair_invariant(p, a + 1 - p))
        assert h.hexdigest() == "39199e3fa4d6d8fc1e874e6665d9a03dda1aff614088cb4b022e66364efac397"

    def test_seeded_random_arithmetic(self):
        h = hashlib.sha256()
        for seed in range(20):
            rng = random.Random(seed)
            for _ in range(25):
                a, b = acceptance._random_motivic(rng), acceptance._random_motivic(rng)
                for value in (a + b, a * b, a - b):
                    _record(h, value)
                if not b.is_zero():
                    _record(h, a / b)
        assert h.hexdigest() == "83eeef910a82fabc3b5b014783bb8fe585b8b316875e3efc2561e2ec8ddced61"


class TestIntegerKernel:
    def test_gcd_matches_sympy(self):
        rng = random.Random(11)
        for _ in range(150):
            f = _random_poly(rng, rng.randint(0, 4))
            a = _random_poly(rng, rng.randint(0, 6))
            b = _random_poly(rng, rng.randint(0, 6))
            if not (f and a and b):
                continue
            pa = sympy.expand(_sympy_poly(f) * _sympy_poly(a))
            pb = sympy.expand(_sympy_poly(f) * _sympy_poly(b))
            ours = _gcd(*({k: int(c) for k, c in _poly_terms(e).items()} for e in (pa, pb)))
            expected = sympy.Poly(sympy.gcd(pa, pb), X).primitive()[1]
            if expected.LC() < 0:
                expected = -expected
            assert ours == _poly_terms(expected.as_expr())
            assert ours[max(ours)] > 0 and math.gcd(*ours.values()) == 1

    def test_pseudo_division_identity(self):
        rng = random.Random(12)
        for _ in range(150):
            a = _random_poly(rng, rng.randint(0, 8))
            b = _random_poly(rng, rng.randint(0, 4))
            if not b:
                continue
            quot, rem = _divide(a, b)
            assert not rem or max(rem) < max(b)
            lhs = sympy.expand(_sympy_poly(quot) * _sympy_poly(b) + _sympy_poly(rem))
            # scaled by lc(b) at most once per step, and there are at most deg a + 1 steps
            lc = b[max(b)]
            steps = max(a, default=0) + 2
            assert any(lhs == sympy.expand(lc ** k * _sympy_poly(a)) for k in range(steps))

    def test_exact_division_by_a_non_divisor_raises(self):
        # x^2 + 1 by x + 1 leaves the remainder 2
        with pytest.raises(InternalMismatch):
            _divide({2: 1, 0: 1}, {1: 1, 0: 1}, exact=True)
        # x by 2x divides over Q but not over Z: never a scaled quotient
        with pytest.raises(InternalMismatch):
            _divide({1: 1}, {1: 2}, exact=True)
        assert _divide({2: 1, 0: -1}, {1: 1, 0: 1}, exact=True) == ({1: 1, 0: -1}, {})

    def test_division_leaves_its_arguments_unchanged(self):
        rng = random.Random(14)
        for _ in range(100):
            a = _random_poly(rng, rng.randint(0, 8))
            b = _random_poly(rng, rng.randint(0, 4))
            if not b:
                continue
            a_before, b_before = dict(a), dict(b)
            _divide(a, b)
            assert a == a_before and b == b_before
            assert _divide(_mul_terms(a, b), b, exact=True) == (a, {})
            assert a == a_before and b == b_before
        # exact mode that fails at a step and at the remainder
        for b in ({1: 2}, {1: 1, 0: 1}):
            a = {2: 1, 0: 1}
            with pytest.raises(InternalMismatch):
                _divide(a, b, exact=True)
            assert a == {2: 1, 0: 1}

    def test_stringy_invariant_call_canonicalizes_four_times(self, monkeypatch, capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return _canonicalize(*args)

        monkeypatch.setattr(motivic, "_canonicalize", counted)
        assert main(["stringy", "invariant", "--p", "7", "--dims", "7,7"]) == 0
        capsys.readouterr()
        # M_st, E0, the projectivized invariant and its dual: one reduction each
        assert len(calls) <= 4

    def test_canonical_forms_match_sympy_cancel(self):
        rng = random.Random(13)
        for _ in range(120):
            r = rng.choice((1, 1, 2, 3))
            num = {rng.randint(-4, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
            den = {rng.randint(-3, 5): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
            if not any(num.values()) or not any(den.values()):
                continue
            value = MotivicValue.from_terms(num, den, r)
            # x = L^(1/r): cancel num(x)/den(x) and put it in the canonical shape
            P, Q = sympy.fraction(sympy.cancel(_sympy_poly(num) / _sympy_poly(den)))
            p_terms, q_terms = _poly_terms(P), _poly_terms(Q)
            v = min(q_terms)
            expected = _normalized(
                {k - v: c for k, c in p_terms.items()}, {k - v: c for k, c in q_terms.items()}
            )
            m = r // value.scale
            ours = (
                {k * m: c for k, c in value.num.terms.items()},
                {k * m: c for k, c in value.den.terms.items()},
            )
            assert ours == expected

    def test_equal_values_at_different_scales_hash_equal(self):
        half = MotivicValue.l_power(Fraction(1, 2))
        assert len({MotivicValue.l_power(Fraction(2, 2)), L, half * half}) == 1
        built = MotivicValue.from_terms({6: 3, 0: -3}, {3: 1, 0: 1}, 6)  # 3(L - 1)/(L^(1/2) + 1)
        same = 3 * (half - 1)
        assert built == same and hash(built) == hash(same)
        assert built.scale == 2
        assert len({built, same, half}) == 2
        # the same terms stored in another order
        low_first = MotivicValue.from_terms({0: -1, 1: 1})
        high_first = MotivicValue.from_terms({2: 1, 0: -1}, None, 2)
        assert list(low_first.num.terms) != list(high_first.num.terms)
        assert len({low_first, high_first, L - 1}) == 1
