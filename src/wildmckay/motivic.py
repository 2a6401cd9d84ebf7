"""Exact arithmetic on rational functions in the Lefschetz class L.

A MotivicValue is a quotient num/den of Laurent polynomials in L^(1/r)
with integer coefficients, kept in a unique canonical form:

  * num and den share no non-unit factor over Q (after substituting
    x = L^(1/r)),
  * den has lowest exponent 0 and positive leading coefficient, with all
    powers of L factored into num (whose exponents may be negative),
  * the coefficient vectors are jointly primitive over Z,
  * the scale r is minimal.

A value has one constructor, MotivicValue(num, den=None, scale=1), from
{exponent: coefficient} dicts in L^(1/scale); it stores the scale once,
beside the num and den records.  It refuses inexact input: a ValueError
unless every exponent and coefficient is an int and the scale an int >= 1;
l_power, geometric_sum, evaluate and the operators take only an int or a
Fraction as a number, else TypeError.  A number is an operand as it is
(1 - x, x / 2, sum(values)): each of + - * / builds its result as one
fraction over the lcm scale and reduces it once, and == reduces nothing.

Values are immutable; equality is equality of canonical forms.  The
realizations substitute a number for L: a prime power q for point counts,
1 for the topological Euler characteristic, T^2 for the Poincare
polynomial.  Canonicalization is integer-only: exact division and a gcd
by evaluation at a power of 2 over Z on the sparse {exponent: coefficient}
dicts; fractions.Fraction appears only at the realizations.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .gf import binary_power, require_prime_power

Rat = int | Fraction


class DivergentSeries(ArithmeticError):
    """Geometric series with non-negative exponent does not converge."""


class FractionalPowerUnevaluable(ArithmeticError):
    """q^(1/r) is not an integer, so exact evaluation is impossible."""


class PoleAtQ(ZeroDivisionError):
    """The denominator vanishes at the requested point-count argument."""


class PoleAtOne(ZeroDivisionError):
    """A genuine pole at L = 1 remains after cancellation."""


class LefschetzPoly:
    """The record of a MotivicValue's numerator or denominator: its terms
    {k: c} for sum_k c_k * L^(k/r), r the value's scale, as given."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int]):
        self.terms = terms


def _evaluate(terms: dict[int, int], x0: Fraction) -> Fraction:
    """sum_k c_k x0^k for terms {k: c} (x0 nonzero if negative exponents): with
    x0 = n/d, n^lo / d^hi times the Horner sum of c_k n^(k-lo) d^(hi-k)."""
    if not terms:
        return Fraction(0)
    n, d = x0.numerator, x0.denominator
    lo, hi = min(terms), max(terms)
    acc, d_pow, prev = 0, 1, hi
    for k in sorted(terms, reverse=True):
        d_pow *= d ** (prev - k)
        acc = acc * n ** (prev - k) + terms[k] * d_pow
        prev = k
    return Fraction(acc * n ** max(lo, 0) * d ** max(-hi, 0), n ** max(-lo, 0) * d ** max(hi, 0))


def _exact(x: Rat) -> Fraction:
    """x as a Fraction; TypeError unless x is an int or a Fraction."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"{x!r} is not an int or a Fraction")
    return Fraction(x)


def _nonzero_terms(terms: dict) -> dict[int, int]:
    """The nonzero terms of {k: c}; ValueError unless every k and c is an int,
    not a bool or a float."""
    if not {*map(type, terms), *map(type, terms.values())} <= {int}:
        bad = next(x for x in (*terms, *terms.values()) if type(x) is not int)
        raise ValueError(f"exponent or coefficient {bad!r} is not an int")
    return {k: c for k, c in terms.items() if c}


def _negated(terms: dict) -> dict:
    return {k: -c for k, c in terms.items()}


def _add_terms(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mul_terms(a: dict, b: dict) -> dict:
    # the shorter operand outside, so that fewer inner loops start
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _at_common_scale(a: "MotivicValue", b):
    """The terms an, ad, bn, bd of a and b in L^(1/r), r the lcm of their
    scales, and r.  A number b enters as {0: numerator}/{0: denominator} at
    scale 1; TypeError unless b is a value, an int or a Fraction."""
    if not isinstance(b, MotivicValue):
        if not isinstance(b, (int, Fraction)):
            raise TypeError(f"{b!r} is not an int or a Fraction")
        return a.num.terms, a.den.terms, {0: b.numerator} if b else {}, {0: b.denominator}, a.scale
    r = math.lcm(a.scale, b.scale)

    def lift(v):
        m = r // v.scale
        return [t if m == 1 else {k * m: c for k, c in t.items()} for t in (v.num.terms, v.den.terms)]

    return *lift(a), *lift(b), r


class MotivicValue:
    """A canonical rational function in L^(1/r) with integer coefficients,
    built from the term dicts num and den (None for 1) in L^(1/scale)."""

    __slots__ = ("num", "den", "scale")
    var = "L"

    def __init__(self, num: dict[int, int], den: dict[int, int] | None = None, scale: int = 1):
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale {scale!r} is not an int >= 1")
        num, den = _nonzero_terms(num), _nonzero_terms({0: 1} if den is None else den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den, self.scale = _canonicalize(num, den, scale)
        self.num = LefschetzPoly(num)
        self.den = LefschetzPoly(den)

    @classmethod
    def l_power(cls, e: Rat):
        """The value L^e for a rational exponent e."""
        e = _exact(e)
        return cls({e.numerator: 1}, None, e.denominator)

    # -- ring structure: each operation, with a value or a number, reduces once --

    def __add__(self, other):
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_add_terms(_mul_terms(an, bd), _mul_terms(bn, ad)), _mul_terms(ad, bd), r)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(_negated(self.num.terms), self.den.terms, self.scale)

    def __sub__(self, other):
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_add_terms(_mul_terms(an, bd), _mul_terms(bn, _negated(ad))), _mul_terms(ad, bd), r)

    def __rsub__(self, other):
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_add_terms(_mul_terms(bn, ad), _mul_terms(an, _negated(bd))), _mul_terms(ad, bd), r)

    def __mul__(self, other):
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_mul_terms(an, bn), _mul_terms(ad, bd), r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a zero divisor leaves a zero denominator, which the constructor refuses
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_mul_terms(an, bd), _mul_terms(ad, bn), r)

    def __rtruediv__(self, other):
        an, ad, bn, bd, r = _at_common_scale(self, other)
        return type(self)(_mul_terms(bn, ad), _mul_terms(bd, an), r)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer; use l_power for L^e")
        if n < 0:
            return 1 / self ** -n
        return binary_power(self, n) if n else type(self)({0: 1})

    def __eq__(self, other):
        if not isinstance(other, (MotivicValue, int, Fraction)):
            return NotImplemented
        # canonical forms are unique, and stay so lifted to a common scale
        an, ad, bn, bd, _ = _at_common_scale(self, other)
        return an == bn and ad == bd

    def __hash__(self):
        num, den = self.num.terms, self.den.terms
        if num.keys() <= {0} and den.keys() == {0}:  # a number, which has scale 1
            return hash(Fraction(num.get(0, 0), den[0]))
        return hash((self.scale, frozenset(num.items()), frozenset(den.items())))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_polynomial(self) -> bool:
        """True iff the value lies in Z[L] (integral, non-negative exponents)."""
        return self.den.terms == {0: 1} and self.scale == 1 and (
            not self.num.terms or min(self.num.terms) >= 0
        )

    # -- realizations --

    def evaluate(self, x0: Rat) -> Fraction:
        """Exact value after substituting L^(1/scale) = x0."""
        x0 = _exact(x0)
        d = _evaluate(self.den.terms, x0)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x0}")
        return _evaluate(self.num.terms, x0) / d

    def point_count(self, q: int) -> Fraction:
        """Substitute the prime power q for L; exact rational result."""
        # q = p^e has an integer r-th root iff r divides e, and it is p^(e/r)
        p, e = require_prime_power(q)
        if e % self.scale:
            raise FractionalPowerUnevaluable(
                f"scale {self.scale} requires q to be a perfect {self.scale}-th power (got {q})"
            )
        try:
            return self.evaluate(p ** (e // self.scale))
        except ZeroDivisionError:
            raise PoleAtQ(f"denominator vanishes at q = {q}") from None

    def euler_characteristic(self) -> Fraction:
        """Substitute 1 for L (the limit; removable poles were cancelled)."""
        try:
            return self.evaluate(1)
        except ZeroDivisionError:
            raise PoleAtOne("genuine pole at L = 1") from None

    def poincare_polynomial(self) -> "MotivicValue":
        """Substitute L -> T^2; returns a value in the variable T."""
        doubled = [{2 * k: c for k, c in poly.terms.items()} for poly in (self.num, self.den)]
        return _PoincareValue(*doubled, self.scale)

    def dimension(self):
        """deg num - deg den in L-units (the virtual dimension); -inf for 0."""
        if self.is_zero():
            return -math.inf
        return Fraction(max(self.num.terms), self.scale) - Fraction(max(self.den.terms), self.scale)

    def dual(self, d: int) -> "MotivicValue":
        """Substitute L -> L^(-1) and multiply by L^(d-1)."""
        shift = self.scale * (d - 1)
        num = {-k + shift: c for k, c in self.num.terms.items()}
        return type(self)(num, {-k: c for k, c in self.den.terms.items()}, self.scale)

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "num": [[k, c] for k, c in sorted(self.num.terms.items())],
            "den": [[k, c] for k, c in sorted(self.den.terms.items())],
        }

    # -- display --

    def _poly_str(self, terms: dict[int, int]) -> str:
        if not terms:
            return "0"
        parts = []
        for k in sorted(terms, reverse=True):
            c = terms[k]
            e = Fraction(k, self.scale)
            if e == 0:
                term = str(abs(c))
            else:
                es = str(e) if e.denominator == 1 else f"({e})"
                base = self.var if es == "1" else f"{self.var}^{es}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __str__(self):
        n = self._poly_str(self.num.terms)
        if self.den.terms == {0: 1}:
            return n
        return f"({n})/({self._poly_str(self.den.terms)})"

    def __repr__(self):
        return f"MotivicValue({self})"


class _PoincareValue(MotivicValue):
    """A value in the variable T, the Poincare polynomial's."""

    __slots__ = ()
    var = "T"


def _divide(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """The quotient a/b over Z, or None when b does not divide a over Z.

    The arguments are left unchanged: the steps update a local copy of a
    in place, and a heap of its exponents gives the leading term, skipping
    cancelled ones."""
    db = max(b)
    lb = b[db]
    a = dict(a)
    heap = [-k for k in a]
    heapq.heapify(heap)
    quot: dict[int, int] = {}
    while heap and (da := -heap[0]) >= db:
        heapq.heappop(heap)
        if da not in a:
            continue
        c, m = divmod(a[da], lb)
        if m:
            return None
        shift = da - db
        quot[shift] = c
        for k, v in b.items():
            e = k + shift
            if e in a:
                s = a[e] - c * v
                if s:
                    a[e] = s
                else:
                    del a[e]
            else:
                a[e] = -c * v
                heapq.heappush(heap, -e)
    return None if a else quot


def _at_power_of_two(a: dict[int, int], s: int) -> int:
    """a(2^s) by shifts.  Past 1024 terms a splits at a middle exponent m into
    low + x^m high, so that a long a costs a few passes over the bits of
    a(2^s), not one shifted copy per term."""
    if len(a) <= 1024:
        return sum(c << s * k for k, c in a.items())
    m = (min(a) + max(a) + 1) // 2
    low = {k: c for k, c in a.items() if k < m}
    high = {k - m: c for k, c in a.items() if k >= m}
    return _at_power_of_two(low, s) + (_at_power_of_two(high, s) << s * m)


def _cofactors(a: dict[int, int], b: dict[int, int]):
    """(a/g, b/g) for the primitive gcd g of nonzero polynomials a and b over Z.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7 (1989) 31-48): at
    x = 2^s > 2 min(|a|, |b|) + 2, |.| the largest absolute coefficient, read
    G off the symmetric base-x digits of gamma = gcd(a(x), b(x)), so G(x) =
    gamma and |G| <= x/2; accept pp(G) if it divides a and b, else square x.

    Correctness.  Suppose pp(G) divides a and b, so g = pp(G) h over Z.
    Then g(x) divides a(x) and b(x), hence their gcd gamma = cont(G) pp(G)(x),
    so h(x) divides cont(G), and 0 < |cont(G)| <= x/2.  Every root z of h is
    a root of a and of b, so |z| < 1 + min(|a|, |b|) < x/2 by Cauchy's bound,
    and a nonconstant h would have |h(x)| >= prod |x - z| > x/2.  So h = +-1.

    Termination.  gamma/g(x) = gcd((a/g)(x), (b/g)(x)) divides the resultant
    R = Res(a/g, b/g) != 0, so gamma = (d g)(x) for a divisor d of R.  Once
    x > 2 |R| |g|, the digits of gamma are the coefficients of d g.
    """
    s = (2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2).bit_length()
    while True:
        gamma = math.gcd(_at_power_of_two(a, s), _at_power_of_two(b, s))
        x, g, k = 1 << s, {}, 0
        while gamma:
            c = gamma & (x - 1)
            if 2 * c > x:  # symmetric digits, in (-x/2, x/2]
                c -= x
            if c:
                g[k] = c
            gamma = (gamma - c) >> s
            k += 1
        if max(g) == 0:
            return a, b
        content = math.gcd(*g.values()) * (1 if g[max(g)] > 0 else -1)
        g = {k: c // content for k, c in g.items()}
        if (qa := _divide(a, g)) is not None and (qb := _divide(b, g)) is not None:
            return qa, qb
        s *= 2


def _canonicalize(num: dict[int, int], den: dict[int, int], scale: int):
    """Reduce (num, den != 0, scale) to the unique canonical representative."""
    if not num:
        return {}, {0: 1}, 1
    mn, md = min(num), min(den)
    a = {k - mn: c for k, c in num.items()}
    b = {k - md: c for k, c in den.items()}
    # a single term (a constant after the shift) leaves the primitive gcd 1
    if len(a) > 1 and len(b) > 1:
        a, b = _cofactors(a, b)
    content = math.gcd(*a.values(), *b.values())
    if b[max(b)] < 0:
        content = -content
    num = {k + mn - md: c // content for k, c in a.items()}
    den = {k: c // content for k, c in b.items()}
    g0 = math.gcd(scale, *num, *den)
    if g0 > 1:
        num = {k // g0: c for k, c in num.items()}
        den = {k // g0: c for k, c in den.items()}
        scale //= g0
    return num, den, scale


L = MotivicValue({1: 1})


def geometric_sum(c: MotivicValue | Rat, e: Rat) -> MotivicValue:
    """Sum of the convergent geometric series sum_{n>=0} c * L^(e*n), for a
    value or a number c.

    Requires e < 0 (term dimensions tend to -infinity); the closed form is
    c / (1 - L^e), returned canonically.
    """
    e = _exact(e)
    if e >= 0:
        raise DivergentSeries(f"geometric series with exponent {e} >= 0 diverges")
    return c / MotivicValue({0: 1, e.numerator: -1}, None, e.denominator)
