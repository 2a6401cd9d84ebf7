"""Stringy invariants: shift numbers, integrals, closed forms, duality,
and the battery's second routes to them."""

import random
import time
from fractions import Fraction

import pytest

from wildmckay.oracles import (
    _fiber_class_via_strata,
    _projectivized_via_definition,
    _stack_pair_via_sectors,
    _stringy_from_resolution,
)
from wildmckay.gf import PreconditionError, TooLarge
from wildmckay.motivic import L, MotivicValue, DivergentSeries
from wildmckay.stringy import (
    MAX_DEGREE,
    BaseFieldMismatch,
    InvalidJump,
    NotKLT,
    NotStringilyKLT,
    RepType,
    crepant_diagnostic,
    origin_fiber_class,
    origin_fiber_point_count,
    poincare_duality_holds,
    projectivized_invariant,
    rep_types_iter,
    shift_number,
    shift_slope,
    smooth_pair_invariant,
    stack_pair_invariant,
    stringy_euler,
    stringy_invariant,
)

ONE = MotivicValue({0: 1})


def lp(e):
    return MotivicValue.l_power(e)


class TestRepType:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepType(4, [2])  # not prime
        with pytest.raises(ValueError):
            RepType(3, [4])  # dim > p
        with pytest.raises(ValueError):
            RepType(3, [1, 1])  # trivial
        # no int() truncation: 2.9 is not 2, '3' is not 3 and True is not 1
        for dims in ([2.9, 3], ["3"], [True, 3]):
            with pytest.raises(ValueError, match="is not an int"):
                RepType(3, dims)

    def test_value_semantics(self):
        a, b = RepType(5, [5, 2]), RepType(5, (5, 2))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RepType(5, [2, 5]) and a != RepType(7, [5, 2])
        assert a != (5, (5, 2)) and a.__eq__((5, (5, 2))) is NotImplemented
        assert repr(a) == "RepType(p=5, dims=(5, 2))"
        with pytest.raises(AttributeError):
            a.p = 7
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            del a.dims
        assert a == b

    def test_derived_quantities(self):
        rep = RepType(5, [5, 2])
        assert rep.dim == 7 and rep.summands == 2
        assert shift_slope(rep) == 11


class TestShiftNumber:
    def test_examples(self):
        assert shift_slope(RepType(3, [3])) == 3
        assert shift_slope(RepType(2, [2, 2])) == 2
        assert shift_slope(RepType(5, [2])) == 1
        assert shift_number(RepType(3, [3]), 2) == 1
        assert shift_number(RepType(2, [2]), 0) == 0

    def test_full_summand_closed_form(self):
        # for dims = [p]*l the residue values are l(s-1)(p-1)/2
        for p, l in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
            rep = RepType(p, [p] * l)
            for s in range(1, p):
                assert shift_number(rep, s) == l * (s - 1) * (p - 1) // 2

    def test_invalid_jump(self):
        with pytest.raises(InvalidJump):
            shift_number(RepType(3, [3]), 3)

    def test_decomposition_law(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice((2, 3, 5, 7))
            dims = [rng.randint(1, p) for _ in range(rng.randint(1, 4))]
            if all(d == 1 for d in dims):
                dims[0] = 2
            rep = RepType(p, dims)
            for n in range(21):
                for s in range(1, p):
                    assert shift_number(rep, n * p + s) == shift_slope(rep) * n + shift_number(rep, s)

    def test_additive_over_summands(self):
        a = RepType(5, [5, 3])
        b = RepType(5, [3, 2])
        both = RepType(5, [5, 3, 3, 2])
        for j in (1, 2, 3, 4, 6, 7, 11):
            assert shift_number(both, j) == shift_number(a, j) + shift_number(b, j)

    def test_bound_at_threshold(self):
        # D = p forces sht(s) <= s, so the invariant stays polynomial
        for rep in (RepType(3, [3]), RepType(2, [2, 2]), RepType(5, [2] * 5)):
            assert shift_slope(rep) == rep.p
            for s in range(1, rep.p):
                assert shift_number(rep, s) <= s


def via_strata(rep):
    """M_st from the stratum integral: L^d + L^l (integral - 1)."""
    return lp(rep.dim) + lp(rep.summands) * (_fiber_class_via_strata(rep) - 1)


class TestIntegrateOverCovers:
    def test_reflection_free_examples(self):
        assert _fiber_class_via_strata(RepType(2, [2, 2])) == ONE + L
        assert _fiber_class_via_strata(RepType(3, [3])) == ONE + 2 * L

    def test_divergent(self):
        with pytest.raises(DivergentSeries):
            _fiber_class_via_strata(RepType(3, [2, 2]))


class TestStringyInvariant:
    def test_worked_examples(self):
        assert stringy_invariant(RepType(3, [3])) == lp(3) + 2 * lp(2)
        assert stringy_invariant(RepType(2, [2, 2])) == lp(4) + lp(3)

    def test_two_summand_family(self):
        for p in (2, 3, 5):
            want = lp(2 * p)
            for s in range(1, p):
                want = want + lp(p + s)
            assert stringy_invariant(RepType(p, [2] * p)) == want

    def test_not_klt(self):
        with pytest.raises(NotStringilyKLT):
            stringy_invariant(RepType(2, [2]))
        with pytest.raises(NotStringilyKLT):
            stringy_euler(RepType(3, [2, 2]))

    def test_stratum_sum_consistency(self):
        for rep in rep_types_iter(3, 3):
            if shift_slope(rep) >= rep.p:
                assert stringy_invariant(rep) == via_strata(rep)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            rep = RepType(p, [p, p])
            assert stringy_invariant(rep) == via_strata(rep)

    def test_stratum_sum_at_p_31_is_fast(self):
        rep = RepType(31, [31, 31])
        start = time.perf_counter()
        via_strata(rep)
        assert time.perf_counter() - start < 1.0

    def test_output_guard(self):
        rep = RepType(257, [257, 257])  # unreduced degree 514 + 256^2 > 2^16
        assert rep.dim + shift_slope(rep) - rep.p + 1 > MAX_DEGREE
        for quantity in (stringy_invariant, origin_fiber_class, projectivized_invariant):
            with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
                quantity(rep)
        with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
            smooth_pair_invariant(2, 2 - MAX_DEGREE)
        with pytest.raises(TooLarge, match="before reduction, above the output guard of"):
            stack_pair_invariant(3, Fraction(-MAX_DEGREE, 3))

    def test_euler_closed_form(self):
        assert stringy_euler(RepType(3, [3])) == 3
        assert stringy_euler(RepType(5, [5])) == Fraction(5, 3)
        assert stringy_euler(RepType(2, [2, 2, 2])) == Fraction(3, 2)

    def test_euler_realization_identity(self):
        for p in (2, 3, 5):
            for rep in rep_types_iter(p, 3):
                if shift_slope(rep) >= p:
                    assert stringy_invariant(rep).euler_characteristic() == stringy_euler(rep)


class TestCrepantDiagnostic:
    def test_threshold_cases(self):
        report = crepant_diagnostic(RepType(3, [3]))
        assert report["dv_equals_p"] and report["polynomial_class"] and report["euler_is_p"]
        assert report["candidate_class_of_Y"] == lp(3) + 2 * lp(2)
        report = crepant_diagnostic(RepType(2, [2, 2]))
        assert report["candidate_class_of_Y"] == lp(4) + lp(3)
        assert report["stringy_invariant"] is report["candidate_class_of_Y"]

    def test_below_threshold(self):
        report = crepant_diagnostic(RepType(3, [2, 2]))
        assert report["dv_equals_p"] is False
        assert report["polynomial_class"] is None
        assert report["stringy_invariant"] is None

    def test_above_threshold(self):
        report = crepant_diagnostic(RepType(3, [3, 2]))
        assert report["dv_equals_p"] is False
        assert report["candidate_class_of_Y"] is None
        assert report["stringy_invariant"] == stringy_invariant(RepType(3, [3, 2]))


class TestOriginFiber:
    def test_classes(self):
        assert origin_fiber_class(RepType(2, [2, 2])) == L + 1
        assert origin_fiber_class(RepType(3, [3])) == 2 * L + 1

    def test_not_klt(self):
        with pytest.raises(NotStringilyKLT):
            origin_fiber_class(RepType(2, [2]))

    def test_point_counts(self):
        rep = RepType(2, [2, 2])
        for q in (2, 4, 8):
            assert origin_fiber_point_count(rep, q) == q + 1
        assert origin_fiber_point_count(RepType(3, [3]), 3) == 7

    def test_identity_with_class(self):
        for p in (2, 3):
            for rep in rep_types_iter(p, 3):
                if shift_slope(rep) < p:
                    continue
                cls = origin_fiber_class(rep)
                for e in (1, 2, 3):
                    q = p ** e
                    assert origin_fiber_point_count(rep, q) == cls.point_count(q)

    def test_closed_form_equals_stratum_integral(self):
        for p in (2, 3, 5):
            for rep in rep_types_iter(p, 3):
                if shift_slope(rep) >= p:
                    assert origin_fiber_class(rep) == _fiber_class_via_strata(rep)

    def test_base_mismatch(self):
        with pytest.raises(BaseFieldMismatch):
            origin_fiber_point_count(RepType(2, [2, 2]), 9)


class TestPairInvariants:
    def test_smooth_examples(self):
        assert smooth_pair_invariant(2, 0) == L * L
        assert smooth_pair_invariant(2, -1) == (L * L - L) / (ONE - lp(-2))
        v = smooth_pair_invariant(2, Fraction(1, 2))
        assert v == (L * L - L) / (ONE - lp(Fraction(-1, 2)))
        assert v.scale == 2

    def test_stack_examples(self):
        assert stack_pair_invariant(2, -1) == L * L
        assert stack_pair_invariant(3, -2) == L * L

    def test_smooth_pair_refuses_a_dimension_below_one_or_not_an_int(self):
        # (L^(5/2))/(L + 1) and (L^-1)/(L + 1) are invariants of no affine space
        for d in (0, -2):
            with pytest.raises(PreconditionError, match=f"dimension d = {d} must be at least 1"):
                smooth_pair_invariant(d, -1)
        for d in (Fraction(3, 2), 2.0, True):
            with pytest.raises(TypeError, match="is not an int"):
                smooth_pair_invariant(d, -1)

    def test_not_klt(self):
        with pytest.raises(NotKLT):
            smooth_pair_invariant(2, 1)
        with pytest.raises(NotKLT):
            stack_pair_invariant(2, 0)

    def test_translation_identity(self):
        for p in (2, 3, 5):
            for a in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2)):
                b = Fraction(a) + 1 - p
                assert smooth_pair_invariant(2, a) == stack_pair_invariant(p, b)
                assert _stack_pair_via_sectors(p, b) == stack_pair_invariant(p, b)


class TestProjectivization:
    def test_worked_examples(self):
        assert projectivized_invariant(RepType(3, [3])) == MotivicValue({2: 1, 1: 3, 0: 1})
        assert projectivized_invariant(RepType(2, [2, 2])) == MotivicValue(
            {3: 1, 2: 2, 1: 2, 0: 1}
        )

    def test_not_klt(self):
        with pytest.raises(NotStringilyKLT):
            projectivized_invariant(RepType(2, [2]))

    def test_duality_grid(self):
        for p in (2, 3, 5):
            for rep in rep_types_iter(p, 3):
                if shift_slope(rep) >= p:
                    assert poincare_duality_holds(rep)
                    assert _projectivized_via_definition(rep) == projectivized_invariant(rep)

    def test_duality_example(self):
        assert poincare_duality_holds(RepType(5, [5, 2]))


class TestResolutionData:
    def test_single_stratum(self):
        cls = lp(3) + 2 * lp(2)
        assert _stringy_from_resolution([(cls, [])]) == cls

    def test_crepant_strata_sum_to_resolution_class(self):
        # two surfaces A^1 x P^1 meeting along A^1 inside a 3-fold Y:
        # open stratum, two open divisor strata, one double stratum
        e1 = L * (L + 1)
        e12 = L
        y = lp(3) + 2 * lp(2)
        strata = [
            (y - (2 * e1 - e12), []),
            (e1 - e12, [Fraction(0)]),
            (e1 - e12, [Fraction(0)]),
            (e12, [Fraction(0), Fraction(0)]),
        ]
        assert _stringy_from_resolution(strata) == stringy_invariant(RepType(3, [3]))

    def test_fractional_coefficient(self):
        got = _stringy_from_resolution([(L, [Fraction(-1, 2)])])
        assert got == L * (L - 1) / (lp(Fraction(1, 2)) - 1)
        assert got.scale == 2

    def test_not_klt(self):
        with pytest.raises(NotKLT):
            _stringy_from_resolution([(L, [-1])])

    def test_smooth_pair_from_its_snc_data(self):
        # A^d off the hyperplane, and the hyperplane with discrepancy -a
        for d in range(1, 5):
            for a in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), Fraction(-7, 3)):
                strata = [(lp(d) - lp(d - 1), []), (lp(d - 1), [-Fraction(a)])]
                assert _stringy_from_resolution(strata) == smooth_pair_invariant(d, a)
