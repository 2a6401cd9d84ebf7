"""Second routes to the closed forms of stringy and to the jumps of
covers.  The verification battery (acceptance.py) compares each closed
form with its route here, so production calls compute each quantity once.

The jump oracle computes in R = F_q((t))[g]/(g^p - g + f) exactly.  An
element of R is a list of p polynomials {exponent: code} on the basis
1, g, ..., g^(p-1).  For ramified f, R is a totally ramified degree-p
extension L of F_q((t)), so every valuation is read off a norm,
v_L(x) = ord_t N(x).  It calls covers and laurent through their module
attributes, so a tracer that swaps those attributes sees its calls."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from . import covers, laurent, stringy
from .gf import InternalMismatch, InvalidJump, _require_int
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
    leads = MotivicValue(Counter(s - 1 - stringy.shift_number(rep, s) for s in range(1, rep.p)))
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


def uniformizer_params(p: int, j: int) -> tuple[int, int, int, int]:
    """Solve j = p*q' - r' (1 <= r' < p) and l'*r' = p*c' + 1 (1 <= l' < p).

    Then t^(l'q'-c') g^(l') has valuation p(l'q'-c') - l'j = 1 in the cover
    ring, i.e. it is a uniformizer.
    """
    _require_int(j, "jump")
    if j <= 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be positive and coprime to {p}")
    r_ = (-j) % p
    q_ = (j + r_) // p
    l_ = pow(r_, -1, p)
    c_ = (l_ * r_ - 1) // p
    if p * (l_ * q_ - c_) - l_ * j != 1:
        raise InternalMismatch(f"uniformizer exponents for p = {p}, j = {j} miss valuation 1")
    return q_, r_, l_, c_


def _ring_mul(F, a, b, f):
    """a * b in R: rewrites g^(p+k) = g^(k+1) - f g^k from the top down."""
    p = len(a)
    prod = [{}] * (2 * p - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    prod[i + k] = laurent.add(F, prod[i + k], laurent.mul(F, x, y))
    for k in range(2 * p - 2, p - 1, -1):
        if c := prod[k]:
            prod[k - p + 1] = laurent.add(F, prod[k - p + 1], c)
            prod[k - p] = laurent.sub(F, prod[k - p], laurent.mul(F, f, c))
    return prod[:p]


def _sigma(F, a):
    """The Galois generator g -> g + 1 applied to a, re-expanded."""
    p = len(a)
    out = [{}] * p
    for m, x in enumerate(a):
        if x:
            for i in range(m + 1):
                if k := math.comb(m, i) % p:
                    out[i] = laurent.add(F, out[i], laurent.mul(F, x, {0: k}))
    return out


def _norm_order(F, a, f) -> int:
    """ord_t N(a), with N(a) = prod_{k<p} sigma^k(a) computed in R."""
    norm = conj = a
    for _ in range(len(a) - 1):
        conj = _sigma(F, conj)
        norm = _ring_mul(F, norm, conj, f)
    if not norm[0] or any(norm[1:]):
        raise InternalMismatch(f"the norm of an element of the cover ring of {covers.to_str(F, f)} "
                               "is 0 or not in F_q((t))")
    return min(norm[0])


def verify_jump(F, f) -> bool:
    """Independent ramification oracle on a Laurent polynomial f over F.

    With the reduction's jump j and witnesses w, h = g + sum w solves
    h^p - h = -(f - sum w(w)).  When the reduction is right, s = t^m h^(l')
    with m = l'q' - c' (uniformizer_params) is a uniformizer of L, and
    v(sigma(s) - s) = j + 1 (Serre, Local Fields, IV).  Checks both, with
    v = ord_t N and N(s) = t^(pm) N(h)^(l').  An unramified f raises InvalidJump.
    """
    f = covers.nonzero_codes(F, f)
    cls, witnesses = covers.reduce_with_witnesses(F, f)
    p, j = F.p, cls.jump
    q_, _r, l_, c_ = uniformizer_params(p, j)
    h = power = [dict(witnesses), {0: 1}] + [{}] * (p - 2)
    for _ in range(l_ - 1):
        power = _ring_mul(F, power, h, f)
    pm = p * (l_ * q_ - c_)  # sigma(s) - s = t^m (sigma(h^l') - h^l')
    delta = [laurent.sub(F, x, y) for x, y in zip(_sigma(F, power), power)]
    return pm + l_ * _norm_order(F, h, f) == 1 and pm + _norm_order(F, delta, f) == j + 1
