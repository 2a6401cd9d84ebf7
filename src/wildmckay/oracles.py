"""Second routes to stringy's closed forms.  The verification battery
(acceptance.py) compares each closed form with its route here, so
production calls compute each quantity once."""

from __future__ import annotations

from fractions import Fraction

from . import stringy
from .motivic import L, MotivicValue, geometric_sum


def _lp(e) -> MotivicValue:
    return MotivicValue.l_power(e)


def _fiber_class_via_strata(rep) -> MotivicValue:
    """The integral of L^(-sht) over the cover moduli, stratum by stratum:
    the unramified point gives 1, and the strata of jump np + s, of measure
    (L-1) L^(np+s-1-n) and weight L^(-Dn-sht(s)), give for each residue s a
    geometric series of ratio L^(p-1-D), so the integral is

        1 + geometric_sum((L - 1) * sum_s L^(s-1-sht(s)), p-1-D).
    """
    leads = sum(_lp(s - 1 - stringy.shift_number(rep, s)) for s in range(1, rep.p))
    return 1 + geometric_sum((L - 1) * leads, rep.p - 1 - stringy.shift_slope(rep))


def _fiber_count_via_census(rep, report) -> Fraction:
    """The weighted count 1 + (p-1)/p * sum_j N_{q,j} / q^sht(j) from a
    census over q = report.q: each jump j <= J adds the census's own number
    of normal forms of jump j over q^sht(j), and each residue s the tail of
    the jumps above J in closed form,

        (q-1) q^(j0-1-floor(j0/p)-sht(j0)) / (1 - q^(-k)),

    with j0 the least jump above J that is s mod p and k = D - p + 1."""
    p, q, top = rep.p, report.q, report.max_exp
    ratio = 1 - Fraction(1, q ** (stringy.shift_slope(rep) - p + 1))
    total = sum(Fraction(n, q ** stringy.shift_number(rep, j)) for j, n, _, _ in report.jump_histogram)
    for s in range(1, p):
        j0 = top + 1 + (s - top - 1) % p
        total += (q - 1) * Fraction(q) ** (j0 - 1 - j0 // p - stringy.shift_number(rep, j0)) / ratio
    return total


def _projectivized_via_definition(rep) -> MotivicValue:
    """The projectivized invariant from its definition through the stringy
    invariant M_st: with cone = L^d - L^l, it is

        cone / (L - 1) + (M_st - cone)(L^l - 1) / (L^l (L - 1)).
    """
    d, l = rep.dim, rep.summands
    m = stringy.stringy_invariant(rep)
    cone = _lp(d) - _lp(l)
    return cone / (L - 1) + (m - cone) * (_lp(l) - 1) / (_lp(l) * (L - 1))


def _stack_pair_via_sectors(p: int, a: Fraction) -> MotivicValue:
    """The stack pair invariant as its sector decomposition: the untwisted
    sector (L^2 - L)/(1 - L^(a-1)) plus the twisted double sum, which
    collapses to (L-1) L (S(a+p-2) - S(a-1)) with S(e) = L^e/(1 - L^e)."""

    def tail_sum(e: Fraction) -> MotivicValue:
        # sum_{n>=1} L^(e n) = L^e / (1 - L^e)
        return geometric_sum(1, e) - 1

    untwisted = (L * L - L) / (1 - _lp(a - 1))
    twisted = (L - 1) * L * (tail_sum(a + p - 2) - tail_sum(a - 1))
    return untwisted + twisted


def _stringy_from_resolution(strata) -> MotivicValue:
    """Stringy invariant from simple-normal-crossing resolution data: a list
    of (stratum class, discrepancy coefficients) pairs, summed as

        sum [E_I] * prod_i (L-1)/(L^(1+a_i) - 1),

    each a_i > -1 (log terminal)."""
    total = 0
    for stratum_class, coeffs in strata:
        term = stratum_class
        for a in coeffs:
            a = Fraction(a)
            if a <= -1:
                raise stringy.NotKLT(f"discrepancy coefficient {a} <= -1")
            term = term * (L - 1) / (_lp(1 + a) - 1)
        total = total + term
    return total
