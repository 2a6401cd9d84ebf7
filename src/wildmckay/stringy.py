"""Stringy motivic invariants of wild Z/p quotient singularities.

For the cyclic group of order p acting linearly in characteristic p, a
representation type is a prime p together with the dimensions (d_1, ...,
d_l) of its indecomposable summands.  The quotient's stringy invariant is
an integral over the moduli of degree-p covers of the formal disk, which
collapses to p - 1 geometric series: the stratum of ramification jump
j = np + s has measure (L-1) * L^(l+j-1-floor(j/p)) and is weighted by
L^(-sht(j)), where the shift number sht(j) = sum_{lam} sum_i floor(i*j/p)
grows linearly in n with slope D = sum (d_lam - 1) d_lam / 2.  Convergence
is exactly D >= p (the stringily-Kawamata-log-terminal threshold).

The paper sums those series into one closed form, the twisted sum

    T = (sum_{s=1}^{p-1} L^(s - sht(s))) / (1 - L^(p-1-D)),

and M_st, the origin-fiber class and the projectivized invariant are each
head + coeff * T for Laurent polynomials head and coeff, built in one
place, _twisted_sum, as one fraction over 1 - L^(p-1-D) that is reduced
to lowest terms once.  Everything here returns canonical MotivicValue's or
exact rationals and computes each quantity by one route.  The independent
routes live in oracles.py, which only the verification battery
(acceptance.py) imports: the stratum integral, the weighted count read off
the cover census, the projectivization from its definition, the sector
sum of the stack pair and the snc-resolution sum of the smooth pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .gf import MAX_COUNT_BITS, InvalidJump, PreconditionError, TooLarge, _require_int, prime_power_decomposition
from .gf import require_prime
from .motivic import L, MotivicValue, Rat, _add_terms, _exact, _mul_terms


class NotStringilyKLT(ArithmeticError, PreconditionError):
    """The defining integral diverges: D_V < p."""


class NotKLT(ArithmeticError, PreconditionError):
    """A pair coefficient violates the log-terminal bound."""


class BaseFieldMismatch(PreconditionError):
    """q is not a power of the representation's characteristic."""


# Output guard on the closed forms: the degree of a fraction in L before its
# one reduction, counted in units of L^(1/r).  At 2^16 a value is reduced and
# printed in about a second as about 3 MB of JSON; both grow with the degree.
MAX_DEGREE = 2 ** 16


# Work guard on the shift numbers, counted in floor terms: sht(1), ...,
# sht(p-1) take (p - 1) * sum (d - 1) of them.  Each call forms that list
# once (shift_numbers), and neither the degree nor the output guard bounds
# it: unguarded, p = 65521 with dims 363 took 11 s, p = 10^9 + 7 with dims
# 44722 did not finish, and a pointcount at p = 30011 over 65000 summands of
# dimension 2 ran past 15 s.  At this bound the slowest accepted `stringy
# invariant` takes about 0.55 s in a fresh process (CPython 3.11, one core of
# a 2-vCPU Xeon): p = 997 with 997 summands of dimension 2; p = 7937 with
# its smallest KLT dims 127 takes 0.22 s.
MAX_SHIFT_WORK = 10 ** 6


def _require_degree(degree: Rat) -> None:
    # over its lowest denominator r, the numerator counts units of L^(1/r)
    if (units := Fraction(degree).numerator) > MAX_DEGREE:
        raise TooLarge(f"the closed form has degree {units} in L^(1/r) before reduction, "
                       f"above the output guard of {MAX_DEGREE}")


class RepType:
    """A non-trivial representation type of the cyclic p-group: an
    immutable value, equal to and hashed like any RepType with the same
    p and dims."""

    __slots__ = ("p", "dims", "_shifts")  # _shifts: see shift_numbers
    p: int
    dims: tuple[int, ...]

    def __init__(self, p: int, dims):
        require_prime(p)
        dims = tuple(dims)
        if bad := [d for d in dims if type(d) is not int]:
            raise ValueError(f"summand dimension {bad[0]!r} is not an int")
        if not dims:
            raise PreconditionError("at least one summand is required")
        if any(d < 1 or d > p for d in dims):
            raise PreconditionError(f"summand dimensions must lie in [1, {p}]")
        if all(d == 1 for d in dims):
            raise PreconditionError("trivial representation (all summands 1-dimensional)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError(f"RepType is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RepType is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.dims) == (other.p, other.dims)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.dims))

    def __repr__(self):
        return f"RepType(p={self.p!r}, dims={self.dims!r})"

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def summands(self) -> int:
        return len(self.dims)


def shift_slope(rep: RepType) -> int:
    """sum (d-1)d/2 over summands: the per-period growth of the shift
    number, and the threshold invariant compared against p."""
    return sum((d - 1) * d // 2 for d in rep.dims)


def shift_number(rep: RepType, j: int) -> int:
    """sum_{lam} sum_{i=1}^{d_lam - 1} floor(i*j/p) for admissible jumps."""
    _require_int(j, "jump")
    if j == 0:
        return 0
    if j < 0 or j % rep.p == 0:
        raise InvalidJump(f"jump {j} must be 0 or positive and coprime to {rep.p}")
    return sum(i * j // rep.p for d in rep.dims for i in range(1, d))


def shift_numbers(rep: RepType) -> tuple[int, ...]:
    """(sht(1), ..., sht(p-1)), formed once per RepType and kept on it."""
    try:
        return rep._shifts
    except AttributeError:
        shifts = tuple(shift_number(rep, s) for s in range(1, rep.p))
        object.__setattr__(rep, "_shifts", shifts)
        return shifts


def _require_shift_work(rep: RepType) -> None:
    if (work := (rep.p - 1) * sum(d - 1 for d in rep.dims)) > MAX_SHIFT_WORK:
        raise TooLarge(f"the shift numbers of p = {rep.p} take {work} floor terms, "
                       f"above the work guard of {MAX_SHIFT_WORK}")


def _require_stringily_klt(rep: RepType) -> None:
    # single source of truth: the series-convergence slope
    if (p_minus := rep.p - 1 - shift_slope(rep)) >= 0:
        raise NotStringilyKLT(
            f"D = {shift_slope(rep)} < p = {rep.p}: the defining series diverges "
            f"(slope {p_minus} >= 0)"
        )


def _twisted_sum(rep: RepType, head: dict[int, int], coeff: dict[int, int]) -> MotivicValue:
    """head + coeff * T, with T the p - 1 geometric series over the twisted
    strata summed:

        T = (sum_{s=1}^{p-1} L^(s - sht(s))) / (1 - L^(p-1-D)).

    Defined iff D >= p.  head and coeff are Laurent polynomials in L, given
    as {exponent: coefficient}; the value is the one fraction

        (head * (1 - L^(p-1-D)) + coeff * sum_s L^(s - sht(s))) / (1 - L^(p-1-D)),

    reduced to lowest terms once."""
    _require_stringily_klt(rep)
    ratio = rep.p - 1 - shift_slope(rep)
    _require_degree(rep.dim - ratio)
    _require_shift_work(rep)
    den = {0: 1, ratio: -1}
    s_sum = Counter(s - sht for s, sht in enumerate(shift_numbers(rep), 1))
    num = _add_terms(_mul_terms(head, den), _mul_terms(coeff, s_sum))
    return MotivicValue(num, den)


def stringy_invariant(rep: RepType) -> MotivicValue:
    """The stringy motivic invariant of the quotient, L^d + L^(l-1)(L-1) T.

    Defined iff D >= p; without reflections it is also the stringy
    invariant of the quotient variety itself.
    """
    l = rep.summands
    return _twisted_sum(rep, {rep.dim: 1}, {l: 1, l - 1: -1})


def stringy_euler(rep: RepType) -> Fraction:
    """Stringy Euler number 1 + (p-1)/(D - p + 1); equals the Euler
    characteristic of the stringy invariant."""
    _require_stringily_klt(rep)
    return 1 + Fraction(rep.p - 1, shift_slope(rep) - rep.p + 1)


def crepant_diagnostic(rep: RepType) -> dict:
    """Necessary conditions for a crepant resolution Y of the quotient:
    D = p, the invariant is a polynomial in L, its Euler characteristic is
    p, and then the class of Y would be the invariant itself.  The report
    also carries that invariant (None when D < p, where it diverges)."""
    D = shift_slope(rep)
    report: dict = {"dv": D, "p": rep.p, "dv_equals_p": D == rep.p}
    if D < rep.p:
        report.update(
            stringy_invariant=None, polynomial_class=None, euler_is_p=None, candidate_class_of_Y=None
        )
        return report
    m = report["stringy_invariant"] = stringy_invariant(rep)
    report["polynomial_class"] = m.is_polynomial()
    report["euler_is_p"] = m.euler_characteristic() == rep.p
    report["candidate_class_of_Y"] = m if report["dv_equals_p"] else None
    return report


def origin_fiber_class(rep: RepType) -> MotivicValue:
    """Integral of L^(-sht) over the cover moduli, 1 + (L-1) L^(-1) T: for
    reflection-free quotients with a crepant resolution this is the class
    of the fiber over the origin."""
    return _twisted_sum(rep, {0: 1}, {0: 1, -1: -1})


def origin_fiber_point_count(rep: RepType, q: int) -> Fraction:
    """The weighted count 1 + (p-1)/p * sum_j N_{q,j} / q^sht(j), summed in
    closed form as one exact fraction; equals the point count of the
    origin-fiber class."""
    _require_stringily_klt(rep)
    pe = prime_power_decomposition(q)
    if pe is None or pe[0] != rep.p:
        raise BaseFieldMismatch(f"q = {q} is not a power of p = {rep.p}")
    p, k = rep.p, shift_slope(rep) - rep.p + 1

    def guard(digits):
        # the fraction's numerator and denominator have at most m + k + p
        # base-q digits; m >= 0, so m = 0 is checked before the loop finds m
        if (bits := digits * q.bit_length()) > MAX_COUNT_BITS:
            dims = ",".join(map(str, rep.dims))
            raise TooLarge(f"the point count for dims {dims} over q = {p}^{pe[1]} needs up to "
                           f"{bits} bits, above the output guard of {MAX_COUNT_BITS}")

    guard(k + p)
    _require_shift_work(rep)
    # (p-1)/p * N_{q,s} / q^sht(s) = (q-1) q^(s-1-sht(s)), and the jump np+s
    # scales it by q^(-kn); scaled by q^m, every such lead is an integer
    exps = [s - 1 - sht for s, sht in enumerate(shift_numbers(rep), 1)]
    m = max(0, -min(exps))
    guard(m + k + p)
    leads = sum((q - 1) * q ** (e + m) for e in exps)
    den = q ** m * (q ** k - 1)  # q^m (1 - q^-k), times q^k
    return Fraction(den + leads * q ** k, den)


def smooth_pair_invariant(d: int, a: Rat) -> MotivicValue:
    """Stringy invariant of affine d-space against a hyperplane with
    coefficient a < 1:  (L^d - L^(d-1)) + L^(d-1)(L-1)/(L^(1-a) - 1)."""
    _require_int(d, "d")
    if d < 1:
        raise PreconditionError(f"dimension d = {d} must be at least 1")
    a = _exact(a)
    if a >= 1:
        raise NotKLT(f"coefficient a = {a} >= 1")
    _require_degree(d + 1 - a)
    off = MotivicValue.l_power(d) - MotivicValue.l_power(d - 1)
    denom = MotivicValue.l_power(1 - a) - 1
    return off + MotivicValue.l_power(d - 1) * (L - 1) / denom


def stack_pair_invariant(p: int, a: Rat) -> MotivicValue:
    """Stringy invariant of the 2-dimensional reflection quotient stack
    against a times its fixed locus, for a < 2 - p: the closed form
    (L^2 - L)/(1 - L^(a+p-2)) of its sector decomposition."""
    require_prime(p)
    a = _exact(a)
    if a >= 2 - p:
        raise NotKLT(f"coefficient a = {a} >= 2 - p = {2 - p}")
    _require_degree(4 - a - p)
    return (L * L - L) / (1 - MotivicValue.l_power(a + p - 2))


def projectivized_invariant(rep: RepType) -> MotivicValue:
    """Stringy invariant of the projectivized quotient, in closed form

        (L^d - 1)/(L - 1) + (L^l - 1) T / L.
    """
    return _twisted_sum(rep, dict.fromkeys(range(rep.dim), 1), {rep.summands - 1: 1, -1: -1})


def poincare_duality_holds(rep: RepType) -> bool:
    """Check M(L^(-1)) * L^(d-1) = M(L) for the projectivized invariant."""
    w = projectivized_invariant(rep)
    return w.dual(rep.dim) == w


def rep_types_iter(p: int, max_len: int):
    """All representation types over p with at most max_len summands."""
    for length in range(1, max_len + 1):
        for dims in itertools.combinations_with_replacement(range(1, p + 1), length):
            if all(d == 1 for d in dims):
                continue
            yield RepType(p, dims)
