"""Truncated Laurent series over a finite field, with precision tracking.

A series is a sparse map {exponent: nonzero code} together with a
precision bound ``prec``: coefficients are exact for every exponent <= prec
and unknown above.  Laurent polynomials are the prec = +infinity case.
Only finitely many negative exponents may carry coefficients.

A code is the base-p integer of GFElement.encode; arithmetic runs on codes
through GaloisField.codes, and GFElement appears only at the edges: the
public constructor, ``coefficient`` and ``str``.

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
        clean: dict[int, int] = {}
        for e, c in (coeffs or {}).items():
            c = field.code(c)
            if not c:
                continue
            if e > prec:
                raise ValueError(f"coefficient at exponent {e} above precision {prec}")
            clean[int(e)] = c
        self.coeffs = clean

    # -- constructors --

    @classmethod
    def _from_codes(cls, field: GaloisField, coeffs: dict[int, int], prec=INF) -> "LaurentSeries":
        """A series from {exponent <= prec: nonzero code}, taken as is."""
        series = object.__new__(cls)
        series.field, series.coeffs, series.prec = field, coeffs, prec
        return series

    @classmethod
    def zero(cls, field, prec=INF):
        return cls._from_codes(field, {}, prec)

    # -- inspection --

    def order(self) -> int | None:
        """Smallest exponent with a nonzero known coefficient, or None if the
        series is zero as far as tracked."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> GFElement:
        if e > self.prec:
            raise InsufficientPrecision(f"coefficient at t^{e} is beyond precision {self.prec}")
        return self.field.from_encoding(self.coeffs.get(e, 0))

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is tracked (exact zero iff prec is inf)."""
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    # -- arithmetic --

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        add = self.field.codes[0]
        out = {e: c for e, c in self.coeffs.items() if e <= prec}
        for e, c in other.coeffs.items():
            if e <= prec:
                s = add(out.pop(e), c) if e in out else c
                if s:
                    out[e] = s
        return LaurentSeries._from_codes(self.field, out, prec)

    def __neg__(self):
        neg = self.field.codes[1]
        return LaurentSeries._from_codes(self.field, {e: neg(c) for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        F = self.field
        mul = F.codes[5]
        if isinstance(other, (int, GFElement)):
            k = F.code(other)
            terms = {e: mul(a, k) for e, a in self.coeffs.items()} if k else {}
            return LaurentSeries._from_codes(F, terms, self.prec)
        other = self._coerce(other)
        # a factor with no known term contributes only above its precision
        eff_a = min(self.coeffs, default=self.prec + 1)
        eff_b = min(other.coeffs, default=other.prec + 1)
        prec = min(self.prec + eff_b, other.prec + eff_a)
        add = F.codes[0]
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= prec:
                    s = add(out.pop(e), mul(c1, c2)) if e in out else mul(c1, c2)
                    if s:
                        out[e] = s
        return LaurentSeries._from_codes(F, out, prec)

    __rmul__ = __mul__

    def truncate(self, prec) -> "LaurentSeries":
        """Forget coefficients above prec (lowers precision only)."""
        if prec >= self.prec:
            return self
        return LaurentSeries._from_codes(self.field, {e: c for e, c in self.coeffs.items() if e <= prec}, prec)

    # -- pieces --

    def polar_codes(self) -> dict[int, int]:
        """The terms up to t^0; the constant term must be known."""
        if self.prec < 0:
            raise InsufficientPrecision(f"constant term unknown: precision {self.prec} < 0")
        return {e: c for e, c in self.coeffs.items() if e <= 0}

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
        return LaurentSeries(self.field, {0: other})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.support():
            cs = str(self.field.from_encoding(self.coeffs[e]))
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
        p, frobenius = x.field.p, x.field.codes[2]
        prec = x.prec if x.prec == INF else min(x.prec, p * x.prec)
        power = {p * e: frobenius(c) for e, c in x.coeffs.items() if p * e <= prec}
        return LaurentSeries._from_codes(x.field, power, prec) - x.truncate(prec)
    raise TypeError(f"unsupported operand {type(x).__name__}")
