"""Truncated Laurent series over a finite field, with precision tracking.

A series is a sparse map {exponent: nonzero coefficient} together with a
precision bound ``prec``: coefficients are exact for every exponent <= prec
and unknown above.  Laurent polynomials are the prec = +infinity case.
Only finitely many negative exponents may carry coefficients.

Precision propagates pessimistically: sums take the min of the bounds, and
a product is trusted up to min(prec_a + ord(b), prec_b + ord(a)), the usual
convolution bound.  The Artin-Schreier image f^p - f keeps the input bound
(the p-th power part is exact out to p*prec >= prec).
"""

from __future__ import annotations

import math

from .gf import GaloisField, GFElement

INF = math.inf


class InsufficientPrecision(ArithmeticError):
    """A coefficient beyond the tracked precision was required."""


class LaurentSeries:
    """Sparse truncated Laurent series over a GaloisField."""

    __slots__ = ("field", "coeffs", "prec")

    def __init__(self, field: GaloisField, coeffs=None, prec=INF):
        self.field = field
        self.prec = prec
        clean: dict[int, GFElement] = {}
        for e, c in (coeffs or {}).items():
            c = field.coerce(c)
            if c.is_zero():
                continue
            if e > prec:
                raise ValueError(f"coefficient at exponent {e} above precision {prec}")
            clean[int(e)] = c
        self.coeffs = clean

    # -- constructors --

    @classmethod
    def zero(cls, field, prec=INF):
        return cls(field, {}, prec)

    @classmethod
    def monomial(cls, field, exponent: int, coeff=1, prec=INF):
        return cls(field, {exponent: coeff}, prec)

    # -- inspection --

    def order(self) -> int | None:
        """Smallest exponent with a nonzero known coefficient, or None if the
        series is zero as far as tracked."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> GFElement:
        if e > self.prec:
            raise InsufficientPrecision(f"coefficient at t^{e} is beyond precision {self.prec}")
        return self.coeffs.get(e, self.field.zero)

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is tracked (exact zero iff prec is inf)."""
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    # -- arithmetic --

    def _binary_prec(self, other) -> float:
        return min(self.prec, other.prec)

    def __add__(self, other):
        other = self._coerce(other)
        prec = self._binary_prec(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, self.field.zero) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        out = {e: c for e, c in out.items() if e <= prec}
        return LaurentSeries(self.field, out, prec)

    def __neg__(self):
        return LaurentSeries(self.field, {e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, GFElement)):
            c = self.field.coerce(other)
            if c.is_zero():
                return LaurentSeries.zero(self.field, self.prec)
            return LaurentSeries(
                self.field, {e: a * c for e, a in self.coeffs.items()}, self.prec
            )
        other = self._coerce(other)
        ord_a = self.order()
        ord_b = other.order()
        # a factor with no known term contributes only above its precision
        eff_a = ord_a if ord_a is not None else self.prec + 1
        eff_b = ord_b if ord_b is not None else other.prec + 1
        prec = min(self.prec + eff_b, other.prec + eff_a)
        out: dict[int, GFElement] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > prec:
                    continue
                s = out.get(e, self.field.zero) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentSeries(self.field, out, prec)

    __rmul__ = __mul__

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by t^n."""
        prec = self.prec if self.prec == INF else self.prec + n
        return LaurentSeries(self.field, {e + n: c for e, c in self.coeffs.items()}, prec)

    def truncate(self, prec) -> "LaurentSeries":
        """Forget coefficients above prec (lowers precision only)."""
        if prec >= self.prec:
            return self
        return LaurentSeries(self.field, {e: c for e, c in self.coeffs.items() if e <= prec}, prec)

    # -- pieces --

    def polar_codes(self) -> dict[int, int]:
        """The terms up to t^0 as {exponent: code}, codes as in
        GFElement.encode; the constant term must be known."""
        if self.prec < 0:
            raise InsufficientPrecision(f"constant term unknown: precision {self.prec} < 0")
        return {e: c.encode() for e, c in self.coeffs.items() if e <= 0}

    def constant_term(self) -> GFElement:
        return self.coefficient(0)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def _coerce(self, other) -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            if other.field != self.field:
                raise ValueError("series over different fields")
            return other
        return LaurentSeries(self.field, {0: self.field.coerce(other)})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.support():
            c = self.coeffs[e]
            cs = str(c)
            if "+" in cs or "-" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*t")
            else:
                parts.append(f"{cs}*t^{e}")
        s = " + ".join(parts)
        if self.prec != INF:
            s += f" + O(t^{self.prec + 1})"
        return s

    def __repr__(self):
        return f"LaurentSeries({self})"


def artin_schreier(x):
    """The Artin-Schreier operator x -> x^p - x on field elements or series.

    On a series the p-th power acts coefficient-wise through Frobenius and
    stretches exponents by p; the result keeps the input's precision.
    """
    if isinstance(x, GFElement):
        return x ** x.field.p - x
    if isinstance(x, LaurentSeries):
        p = x.field.p
        prec = x.prec if x.prec == INF else min(x.prec, p * x.prec)
        power = {p * e: c ** p for e, c in x.coeffs.items() if p * e <= prec}
        return LaurentSeries(x.field, power, prec) - x.truncate(prec)
    raise TypeError(f"unsupported operand {type(x).__name__}")
