"""Each output guard's size estimate bounds the size it guards, and every
resource guard raises gf.TooLarge.

A guard refuses a call when its estimate exceeds a module bound, so the
estimate is at least the actual size exactly when the call is refused with
the bound set one below that size.  Each property measures the size on a
drawn input, lowers the bound to one below it and expects the refusal.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildmckay import covers, invariant_rings, motivic, stringy
from wildmckay.covers import count_rep_covers
from wildmckay.gf import GF, TooLarge
from wildmckay.stringy import RepType

PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
MERSENNE_61 = 2 ** 61 - 1
TWISTED_SUMS = (stringy.stringy_invariant, stringy.origin_fiber_class, stringy.projectivized_invariant)


@st.composite
def klt_reps(draw, max_dim=None):
    """Representation types over p < 100 with D >= p."""
    p = draw(st.sampled_from(PRIMES))
    dims = draw(st.lists(st.integers(1, min(p, max_dim or p)), min_size=1, max_size=4))
    assume(any(d > 1 for d in dims))
    rep = RepType(p, dims)
    assume(stringy.shift_slope(rep) >= p)
    return rep


def span(*term_dicts) -> int:
    exponents = [k for terms in term_dicts for k in terms]
    return max(exponents) - min(exponents)


class _Unreduced(Exception):
    pass


def _record_unreduced(seen):
    def canonicalize(num, den, scale):
        seen.append((num, den))
        raise _Unreduced

    return canonicalize


@settings(max_examples=150, deadline=None)
@given(klt_reps(), st.sampled_from(TWISTED_SUMS))
def test_twisted_sum_degree_bounds_the_unreduced_fraction(rep, quantity):
    # the span of num and den over one power of L, before the one reduction
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stringy, "MAX_DEGREE", 10 ** 12)
        mp.setattr(motivic, "_canonicalize", _record_unreduced(seen))
        with pytest.raises(_Unreduced):
            quantity(rep)
        [(num, den)] = seen
        mp.setattr(stringy, "MAX_DEGREE", span(num, den) - 1)
        with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
            quantity(rep)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.fractions(min_value=-10, max_value=1, max_denominator=50))
def test_smooth_pair_degree_bounds_the_value(d, a):
    assume(a < 1)
    value = stringy.smooth_pair_invariant(d, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stringy, "MAX_DEGREE", span(value.num.terms, value.den.terms) - 1)
        with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
            stringy.smooth_pair_invariant(d, a)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES + [MERSENNE_61]), st.fractions(min_value=0, max_value=10, max_denominator=50))
def test_stack_pair_degree_bounds_the_value(p, x):
    assume(x > 0)
    a = 2 - p - x
    value = stringy.stack_pair_invariant(p, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stringy, "MAX_DEGREE", span(value.num.terms, value.den.terms) - 1)
        with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
            stringy.stack_pair_invariant(p, a)


@settings(max_examples=100, deadline=None)
@given(klt_reps(max_dim=30), st.integers(1, 3))
def test_point_count_bits_bound_the_unreduced_fraction(rep, e):
    q = rep.p ** e
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stringy, "Fraction", lambda n, d: seen.append((n, d)) or Fraction(n, d))
        stringy.origin_fiber_point_count(rep, q)
        [(num, den)] = seen
        mp.setattr(stringy, "MAX_COUNT_BITS", max(num.bit_length(), den.bit_length()) - 1)
        with pytest.raises(TooLarge, match="the point count for dims .* bits, above the output guard"):
            stringy.origin_fiber_point_count(rep, q)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(p, p ** e) for p in PRIMES for e in (1, 2, 3, 4)] + [(MERSENNE_61,) * 2]), st.integers(1, 2000))
def test_count_bits_bound_the_count(pq, j):
    p, q = pq
    assume(j % p)
    size = count_rep_covers(q, j).bit_length()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "MAX_COUNT_BITS", size - 1)
        with pytest.raises(TooLarge, match=f"the count for q = {q}, jump {j} needs up to"):
            count_rep_covers(q, j)


@pytest.mark.parametrize("call,message", [
    (lambda: GF(2, 400), "no irreducible modulus of degree 400 over F_2 among the first 0 candidates"),
    (lambda: covers.reduce(GF(2), {-2 ** 1024: 1}), "1050625 bits of witnesses, above the guard of 1048576"),
    (lambda: count_rep_covers(2, 2 ** 21 + 1), "the count for q = 2, jump 2097153 needs up to 1048577 bits"),
    (lambda: covers.enumerate_covers(2, 40), "2\\^40 exceeds the enumeration guard 10000000"),
    (lambda: covers.enumerate_covers(1009, 2), "1009\\^2 = 1018081 classes, above the class guard 1000000"),
    (lambda: stringy.stringy_invariant(RepType(257, (257, 257))), "degree 66050 in L\\^\\(1/r\\) before reduction"),
    (lambda: stringy.stringy_invariant(RepType(65521, (363,))), "p = 65521 take 23718240 floor terms"),
    (lambda: stringy.origin_fiber_point_count(RepType(1009, (1009, 1009)), 1009),
     "the point count for dims 1009,1009 over q = 1009\\^1 needs up to"),
    (lambda: invariant_rings.verify_dim3_relation(103), "p = 103 is above the work guard of 101 for the v3 relation"),
    (lambda: invariant_rings.reflection_jacobian_check(1009, 2), "p = 1009, d = 2 is above the work guard"),
    (lambda: invariant_rings.MultiPoly.variable(2, ("x",), "x") ** invariant_rings._MASK,
     "power of degree up to 4294967295 is at least 2\\^32 - 1"),
], ids=["modulus search", "witness bits", "stratum count", "census inputs", "census classes", "closed-form degree",
        "shift work", "point count", "v3 relation", "reflection check", "packed degree"])
def test_every_resource_guard_raises_too_large(call, message):
    with pytest.raises(TooLarge, match=message):
        call()
