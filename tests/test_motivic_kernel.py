"""The integer kernel under MotivicValue: exact quotients, the gcd by
evaluation at a power of 2 with its cofactors, canonical forms and the
realizations, checked against sympy, against reference Fraction sums and
against digests of canonical forms frozen before the kernel was rewritten
over Z."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from wildmckay import acceptance, motivic, stringy
from wildmckay.cli import main
from wildmckay.motivic import (
    L,
    MotivicValue,
    PoleAtOne,
    PoleAtQ,
    _at_power_of_two,
    _canonicalize,
    _cofactors,
    _divide,
    _evaluate,
    _mul_terms,
)

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


def _sparse_poly(rng, degree, terms, bound):
    """terms random exponents in 0..degree, with the constant and top terms set."""
    exps = {0, degree, *(rng.randint(1, degree - 1) for _ in range(terms - 2))}
    return {k: rng.choice((-1, 1)) * rng.randint(1, bound) for k in exps}


def _sympy_cofactors(a, b):
    pa, pb = (sympy.Poly.from_dict({(k,): c for k, c in t.items()}, X) for t in (a, b))
    g = sympy.gcd(pa, pb).primitive()[1]
    if g.LC() < 0:
        g = -g
    return tuple({m[0]: int(c) for m, c in sympy.quo(e, g).terms()} for e in (pa, pb))


@pytest.fixture
def reductions(monkeypatch):
    """The argument tuples of the _canonicalize calls that the test makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _canonicalize(*args)

    monkeypatch.setattr(motivic, "_canonicalize", counted)
    return calls


# (L^2 - 1)/(L + 2) and (L^(3/2) - 3L^(1/2))/(L + 1), of scales 1 and 2
A = MotivicValue({2: 1, 0: -1}, {1: 1, 0: 2})
B = MotivicValue({3: 1, 1: -3}, {2: 1, 0: 1}, 2)
OPERATIONS = {
    "__add__": lambda: A + B,
    "__sub__": lambda: A - B,
    "__mul__": lambda: A * B,
    "__truediv__": lambda: A / B,
    "L + 1": lambda: L + 1,
    "1 - L": lambda: 1 - L,
    "2 * L": lambda: 2 * L,
    "L / 2": lambda: L / 2,
    "2 / L": lambda: 2 / L,
}


class TestIntegerKernel:
    def test_gcd_matches_sympy(self):
        rng = random.Random(11)
        cases = []
        for _ in range(150):
            f = _random_poly(rng, rng.randint(0, 4))
            a = _random_poly(rng, rng.randint(0, 6))
            b = _random_poly(rng, rng.randint(0, 6))
            cases.append((f, a, b))
        big = 10 ** 40
        for _ in range(30):
            cases.append(tuple(_random_poly(rng, rng.randint(0, 5), big) for _ in range(3)))
        for _ in range(3):
            f = _sparse_poly(rng, rng.randint(1000, 1200), 6, big)
            a = _sparse_poly(rng, rng.randint(1000, 1400), 5, 9)
            b = _sparse_poly(rng, rng.randint(1000, 1400), 5, big)
            cases.append((f, a, b))
        # products of more than 1024 terms, which _at_power_of_two splits
        cases.append((_random_poly(rng, 24, 9), _random_poly(rng, 1010, 9), _random_poly(rng, 1010, 9)))
        sparse = long = 0
        for f, a, b in cases:
            if not (f and a and b):
                continue
            fa, fb = _mul_terms(f, a), _mul_terms(f, b)
            sparse += min(max(fa), max(fb)) >= 2000
            long += min(len(fa), len(fb)) > 1024
            assert _cofactors(fa, fb) == _sympy_cofactors(fa, fb)
        assert sparse == 3 and long == 1

    def test_evaluation_at_a_power_of_two_matches_the_plain_sum(self):
        rng = random.Random(16)
        for n in (1, 1024, 1025, 2100):
            a = {k: rng.randint(-10 ** 6, 10 ** 6) or 1 for k in rng.sample(range(2 * n), n)}
            for s in (1, 7, 30):
                assert _at_power_of_two(a, s) == sum(c * 2 ** (s * k) for k, c in a.items())

    def test_gcd_takes_a_second_evaluation_point(self, monkeypatch):
        # found by a seeded search: at the first point the digits of
        # gcd(a(x), b(x)) are not a multiple of gcd(a, b)
        f, a, b = {0: -5, 1: 4, 2: 3}, {0: 2, 1: 4, 2: -6}, {0: -2, 1: 5}
        quotients = []

        def recorded(*args):
            quotients.append(_divide(*args))
            return quotients[-1]

        monkeypatch.setattr(motivic, "_divide", recorded)
        assert _cofactors(_mul_terms(f, a), _mul_terms(f, b)) == (a, b)
        assert quotients[0] is None and quotients[-2:] == [a, b]

    def test_gcd_one_skips_the_division(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a gcd of 1 needs no division")

        monkeypatch.setattr(motivic, "_divide", refused)
        a, b = {0: 1, 1: 1}, {0: -3, 2: 2}
        assert _cofactors(a, b) == (a, b)

    def test_exact_quotient_matches_sympy(self):
        rng = random.Random(12)
        divisible = 0
        for _ in range(150):
            a = _random_poly(rng, rng.randint(0, 8))
            b = _random_poly(rng, rng.randint(0, 4))
            if not b:
                continue
            if rng.random() < 0.5:
                a = _mul_terms(a, b)
            q, r = sympy.div(_sympy_poly(a), _sympy_poly(b), X)
            q_terms = _poly_terms(q) if q != 0 else {}
            over_z = r == 0 and all(c.denominator == 1 for c in q_terms.values())
            divisible += over_z
            assert _divide(a, b) == (q_terms if over_z else None)
        assert 40 < divisible < 110

    def test_exact_division_by_a_non_divisor_is_none(self):
        # x^2 + 1 by x + 1 leaves the remainder 2
        assert _divide({2: 1, 0: 1}, {1: 1, 0: 1}) is None
        # x by 2x divides over Q but not over Z: never a scaled quotient
        assert _divide({1: 1}, {1: 2}) is None
        assert _divide({2: 1, 0: -1}, {1: 1, 0: 1}) == {1: 1, 0: -1}

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
            assert _divide(_mul_terms(a, b), b) == a
            assert a == a_before and b == b_before
        # a division that fails at a step and one that fails at the remainder
        for b in ({1: 2}, {1: 1, 0: 1}):
            a = {2: 1, 0: 1}
            assert _divide(a, b) is None
            assert a == {2: 1, 0: 1}

    def test_stringy_invariant_call_canonicalizes_four_times(self, reductions, capsys):
        assert main(["stringy", "invariant", "--p", "7", "--dims", "7,7"]) == 0
        capsys.readouterr()
        # M_st, E0, the projectivized invariant and its dual: one reduction each
        assert len(reductions) <= 4

    def test_seeded_suite_canonicalizes_at_most_2200_times(self, reductions):
        # a work budget for the battery: seeded, so the count is the same on
        # every machine, where its timing is not
        assert all(result.ok for result in acceptance.run_suite(seed=1))
        assert len(reductions) <= 2200

    @pytest.mark.parametrize("op", OPERATIONS)
    def test_each_binary_operation_reduces_once(self, reductions, op):
        OPERATIONS[op]()
        assert len(reductions) == 1

    def test_equality_with_a_number_reduces_nothing(self, reductions):
        assert L != 1 and L != Fraction(1, 2) and A != 0
        assert not reductions

    def test_canonical_forms_match_sympy_cancel(self):
        rng = random.Random(13)
        for _ in range(120):
            r = rng.choice((1, 1, 2, 3))
            num = {rng.randint(-4, 6): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
            den = {rng.randint(-3, 5): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
            if not any(num.values()) or not any(den.values()):
                continue
            value = MotivicValue(num, den, r)
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
        built = MotivicValue({6: 3, 0: -3}, {3: 1, 0: 1}, 6)  # 3(L - 1)/(L^(1/2) + 1)
        same = 3 * (half - 1)
        assert built == same and hash(built) == hash(same)
        assert built.scale == 2
        assert len({built, same, half}) == 2
        # the same terms stored in another order
        low_first = MotivicValue({0: -1, 1: 1})
        high_first = MotivicValue({2: 1, 0: -1}, None, 2)
        assert list(low_first.num.terms) != list(high_first.num.terms)
        assert len({low_first, high_first, L - 1}) == 1

    def test_a_number_hashes_like_its_number(self):
        assert MotivicValue({0: 1}) == 1 and MotivicValue({0: 1}, {0: 2}) == Fraction(1, 2)
        assert len({MotivicValue({0: 1}), 1}) == 1
        assert len({MotivicValue({0: 1}, {0: 2}), Fraction(1, 2)}) == 1
        assert len({MotivicValue({}), 0, Fraction(0)}) == 1
        assert hash(MotivicValue({0: -3}, {0: 6})) == hash(Fraction(-1, 2))


class TestRealizations:
    def test_evaluate_matches_a_fraction_sum(self):
        rng = random.Random(15)
        for _ in range(200):
            terms = {rng.randint(-6, 8): rng.randint(-9, 9) for _ in range(rng.randint(1, 6))}
            for x0 in (Fraction(1), Fraction(2), Fraction(9), Fraction(3, 2)):
                expected = sum((Fraction(c) * x0 ** k for k, c in terms.items()), Fraction(0))
                assert _evaluate(terms, x0) == expected

    def test_zero_polynomial_evaluates_to_zero(self):
        for x0 in (Fraction(0), Fraction(1), Fraction(3, 2)):
            assert _evaluate({}, x0) == 0

    def test_zero_with_a_negative_exponent_divides_by_zero(self):
        assert _evaluate({0: 2, 3: 1}, Fraction(0)) == 2
        with pytest.raises(ZeroDivisionError):
            _evaluate({-1: 1, 0: 2}, Fraction(0))
        with pytest.raises(ZeroDivisionError):
            MotivicValue.l_power(-1).evaluate(0)
        # the realizations turn a vanishing denominator into their own errors
        with pytest.raises(PoleAtQ):
            (MotivicValue.l_power(-1) / (L - 4)).point_count(4)
        with pytest.raises(PoleAtOne):
            (MotivicValue.l_power(-1) / (L - 1)).euler_characteristic()


def _stringy_invariant_process(*argv):
    """stdout of `stringy invariant argv` in a fresh interpreter, with a 10 s timeout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-B", "-m", "wildmckay.cli", "stringy", "invariant", *argv],
                          capture_output=True, text=True, env=env, timeout=10, check=True).stdout


class TestLargeStringyInvariants:
    """Inputs on which the primitive remainder sequence the evaluation gcd
    replaced took 3.4 s (p = 31) and more than 60 s (p = 61)."""

    def test_p61_report_is_consistent(self):
        report = json.loads(_stringy_invariant_process("--p", "61", "--dims", "20,30,61"))
        p, d = report["p"], report["D_V"]
        e_st = Fraction(report["e_st"])
        assert e_st == 1 + Fraction(p - 1, d - p + 1)
        m_st = report["M_st"]
        euler = Fraction(sum(c for _, c in m_st["num"]), sum(c for _, c in m_st["den"]))
        assert euler == e_st
        assert report["duality_ok"] is True

    def test_p31_stdout_is_frozen(self, capsys):
        assert main(["stringy", "invariant", "--p", "31", "--dims", "10,20,31"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "e35fc5b9500fe305f4235e95b510b558602f8f6957d8bc0589557133214aea30"
