"""Exact arithmetic on rational functions in the Lefschetz class L.

A MotivicValue is a quotient num/den of Laurent polynomials in L^(1/r)
with integer coefficients, kept in a unique canonical form:

  * num and den share no non-unit factor over Q (after substituting
    x = L^(1/r)),
  * den has lowest exponent 0 and positive leading coefficient, with all
    powers of L factored into num (whose exponents may be negative),
  * the coefficient vectors are jointly primitive over Z,
  * the scale r is minimal.

Values are immutable; equality is equality of canonical forms.  The
realizations substitute a number for L: a prime power q for point counts,
1 for the topological Euler characteristic, T^2 for the Poincare
polynomial.  Canonicalization is integer-only: pseudo-division and a
primitive remainder sequence over Z on the sparse {exponent: coefficient}
dicts; fractions.Fraction appears only at the realizations.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .gf import InternalMismatch, binary_power, require_prime_power

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
    """Laurent polynomial sum_k c_k * L^(k/r), as {k: c} with scale r.

    Stored coefficients are nonzero integers; k may be negative.
    """

    __slots__ = ("terms", "scale")

    def __init__(self, terms: dict[int, int], scale: int = 1):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        self.terms = {int(k): int(c) for k, c in terms.items() if c != 0}
        self.scale = scale

    def rescaled(self, new_scale: int) -> "LefschetzPoly":
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise ValueError("can only rescale to a multiple of the current scale")
        m = new_scale // self.scale
        return LefschetzPoly({k * m: c for k, c in self.terms.items()}, new_scale)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x0: Fraction) -> Fraction:
        """Value at x = L^(1/scale) = x0 (x0 nonzero if negative exponents)."""
        total = Fraction(0)
        for k, c in self.terms.items():
            total += c * x0 ** k
        return total


def _merge(*polys: LefschetzPoly):
    """The terms of polys rescaled to the lcm of their scales, and that scale."""
    r = math.lcm(*(poly.scale for poly in polys))
    return [poly.rescaled(r).terms for poly in polys], r


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


class MotivicValue:
    """A canonical rational function in L^(1/r) with integer coefficients."""

    __slots__ = ("num", "den", "var")

    def __init__(self, num: LefschetzPoly, den: LefschetzPoly, var: str = "L"):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        (n_terms, d_terms), scale = _merge(num, den)
        n_terms, d_terms, scale = _canonicalize(n_terms, d_terms, scale)
        self.num = LefschetzPoly(n_terms, scale)
        self.den = LefschetzPoly(d_terms, scale)
        self.var = var

    # -- constructors --

    @classmethod
    def from_terms(cls, num_terms: dict[int, int], den_terms=None, scale: int = 1):
        if den_terms is None:
            den_terms = {0: 1}
        return cls(LefschetzPoly(num_terms, scale), LefschetzPoly(den_terms, scale))

    @classmethod
    def zero(cls):
        return cls.from_terms({})

    @classmethod
    def one(cls):
        return cls.from_terms({0: 1})

    @classmethod
    def from_rational(cls, a: Rat):
        a = Fraction(a)
        return cls.from_terms({0: a.numerator}, {0: a.denominator})

    @classmethod
    def l_power(cls, e: Rat):
        """The value L^e for a rational exponent e."""
        e = Fraction(e)
        return cls.from_terms({e.numerator: 1}, None, e.denominator)

    # -- ring structure --

    @property
    def scale(self) -> int:
        return self.num.scale

    def _coerce(self, other) -> "MotivicValue":
        if isinstance(other, MotivicValue):
            return other
        if isinstance(other, (int, Fraction)):
            return MotivicValue.from_rational(other)
        raise TypeError(f"cannot combine MotivicValue with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        (an, ad, bn, bd), r = _merge(self.num, self.den, other.num, other.den)
        num = _add_terms(_mul_terms(an, bd), _mul_terms(bn, ad))
        den = _mul_terms(ad, bd)
        return MotivicValue(LefschetzPoly(num, r), LefschetzPoly(den, r), self.var)

    __radd__ = __add__

    def __neg__(self):
        return MotivicValue(
            LefschetzPoly({k: -c for k, c in self.num.terms.items()}, self.scale),
            self.den,
            self.var,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        (an, ad, bn, bd), r = _merge(self.num, self.den, other.num, other.den)
        return MotivicValue(
            LefschetzPoly(_mul_terms(an, bn), r), LefschetzPoly(_mul_terms(ad, bd), r), self.var
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero value")
        inv = MotivicValue(other.den, other.num, self.var)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer; use l_power for L^e")
        if n < 0:
            return MotivicValue.one() / self ** (-n)
        return binary_power(self, n, MotivicValue.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MotivicValue.from_rational(other)
        if not isinstance(other, MotivicValue):
            return NotImplemented
        # canonical forms, minimal scale included, are unique
        return (
            self.scale == other.scale
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    def __hash__(self):
        return hash((self.scale, frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        """True iff the value lies in Z[L] (integral, non-negative exponents)."""
        return self.den.terms == {0: 1} and self.scale == 1 and (
            not self.num.terms or min(self.num.terms) >= 0
        )

    # -- realizations --

    def evaluate(self, x0: Rat) -> Fraction:
        """Exact value after substituting L^(1/scale) = x0."""
        x0 = Fraction(x0)
        d = self.den.evaluate(x0)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x0}")
        return self.num.evaluate(x0) / d

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
        r = self.scale
        num = LefschetzPoly({2 * k: c for k, c in self.num.terms.items()}, r)
        den = LefschetzPoly({2 * k: c for k, c in self.den.terms.items()}, r)
        return MotivicValue(num, den, var="T")

    def dimension(self):
        """deg num - deg den in L-units (the virtual dimension); -inf for 0."""
        if self.is_zero():
            return -math.inf
        return Fraction(max(self.num.terms), self.scale) - Fraction(max(self.den.terms), self.scale)

    def dual(self, d: int) -> "MotivicValue":
        """Substitute L -> L^(-1) and multiply by L^(d-1)."""
        r = self.scale
        shift = r * (d - 1)
        num = LefschetzPoly({-k + shift: c for k, c in self.num.terms.items()}, r)
        den = LefschetzPoly({-k: c for k, c in self.den.terms.items()}, r)
        return MotivicValue(num, den, self.var)

    # -- serialization --

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "num": [[k, c] for k, c in sorted(self.num.terms.items())],
            "den": [[k, c] for k, c in sorted(self.den.terms.items())],
        }

    # -- display --

    def _poly_str(self, poly: LefschetzPoly) -> str:
        if not poly.terms:
            return "0"
        parts = []
        for k in sorted(poly.terms, reverse=True):
            c = poly.terms[k]
            e = Fraction(k, poly.scale)
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
        n = self._poly_str(self.num)
        if self.den.terms == {0: 1}:
            return n
        return f"({n})/({self._poly_str(self.den)})"

    def __repr__(self):
        return f"MotivicValue({self})"


def _divide(a: dict[int, int], b: dict[int, int], exact: bool = False):
    """Divide a by b over Z; returns (quotient, remainder).

    A step whose leading coefficient lc(b) does not divide first scales a
    and the quotient so far by lc(b) (pseudo-division), so s*a = quotient*b
    + remainder for a power s of lc(b), with deg remainder < deg b.  With
    exact=True, b must divide a over Z: a step that would need scaling, or
    a nonzero remainder, raises InternalMismatch.  The arguments are left
    unchanged: the steps update a local copy of a in place, and a heap of
    its exponents gives the leading term, skipping cancelled ones."""
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
            if exact:
                raise InternalMismatch("the divisor does not divide over Z")
            for k in a:
                a[k] *= lb
            for k in quot:
                quot[k] *= lb
            c = a[da] // lb
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
    if exact and a:
        raise InternalMismatch("the divisor leaves a nonzero remainder")
    return quot, a


def _primitive(a: dict[int, int]) -> dict[int, int]:
    """a over its content, with positive leading coefficient."""
    if not a:
        return a
    g = math.gcd(*a.values())
    if a[max(a)] < 0:
        g = -g
    return {k: c // g for k, c in a.items()}


def _gcd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Primitive gcd of two nonzero polynomials over Z: the last nonzero
    term of their primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_divide(a, b)[1])
    return a


def _canonicalize(num: dict[int, int], den: dict[int, int], scale: int):
    """Reduce (num, den != 0, scale) to the unique canonical representative."""
    if not num:
        return {}, {0: 1}, 1
    mn, md = min(num), min(den)
    a = {k - mn: c for k, c in num.items()}
    b = {k - md: c for k, c in den.items()}
    # a single term (a constant after the shift) leaves the primitive gcd 1
    if len(a) > 1 and len(b) > 1 and max(g := _gcd(a, b)):
        # g is primitive, so by Gauss's lemma both quotients are integral
        a = _divide(a, g, exact=True)[0]
        b = _divide(b, g, exact=True)[0]
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


L = MotivicValue.l_power(1)


def geometric_sum(c: MotivicValue, e: Rat) -> MotivicValue:
    """Sum of the convergent geometric series sum_{n>=0} c * L^(e*n).

    Requires e < 0 (term dimensions tend to -infinity); the closed form is
    c / (1 - L^e), returned canonically.
    """
    e = Fraction(e)
    if e >= 0:
        raise DivergentSeries(f"geometric series with exponent {e} >= 0 diverges")
    r = e.denominator
    one_minus = MotivicValue.from_terms({0: 1, e.numerator: -1}, None, r)
    return c / one_minus
