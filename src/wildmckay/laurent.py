"""Laurent polynomials over a finite field and the Artin-Schreier operator.

A polynomial is a sparse map {exponent: nonzero code}, exact in every
exponent, negative ones included.  Nothing in the package needs a series
known only to a finite precision: a cover class depends on the polar part
alone, because the positive tail lies in the Artin-Schreier image.

Coefficients are codes, the ints in range(q) that stand for the elements
of F_q (see gf); arithmetic runs on them through GaloisField.codes.
"""

from __future__ import annotations

from .gf import GaloisField


def nonzero_codes(field: GaloisField, coeffs) -> dict[int, int]:
    """{int(key): code} for the nonzero codes of coeffs; ValueError unless
    every value is a code of field, an int in range(field.order)."""
    clean: dict[int, int] = {}
    for key, c in (coeffs or {}).items():
        if not (isinstance(c, int) and 0 <= c < field.order):
            raise ValueError(f"coefficient {c!r} is not a code of {field}, an int in range({field.order})")
        if c:
            clean[int(key)] = c
    return clean


class LaurentSeries:
    """Sparse Laurent polynomial over a GaloisField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GaloisField, coeffs=None):
        self.field = field
        self.coeffs = nonzero_codes(field, coeffs)

    # -- constructors --

    @classmethod
    def _from_codes(cls, field: GaloisField, coeffs: dict[int, int]) -> "LaurentSeries":
        """A polynomial from {exponent: nonzero code}, taken as is."""
        series = object.__new__(cls)
        series.field, series.coeffs = field, coeffs
        return series

    @classmethod
    def zero(cls, field):
        return cls._from_codes(field, {})

    # -- inspection --

    def order(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, or None for zero."""
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    # -- arithmetic --

    def __add__(self, other):
        other = self._coerce(other)
        add = self.field.codes[0]
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = add(out.pop(e), c) if e in out else c
            if s:
                out[e] = s
        return LaurentSeries._from_codes(self.field, out)

    def __neg__(self):
        neg = self.field.codes[1]
        return LaurentSeries._from_codes(self.field, {e: neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.field
        add, mul = F.codes[0], F.codes[5]
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = add(out.pop(e), mul(c1, c2)) if e in out else mul(c1, c2)
                if s:
                    out[e] = s
        return LaurentSeries._from_codes(F, out)

    __rmul__ = __mul__

    # -- pieces --

    def polar_codes(self) -> dict[int, int]:
        """The terms up to t^0."""
        return {e: c for e, c in self.coeffs.items() if e <= 0}

    def __eq__(self, other):
        return isinstance(other, LaurentSeries) and self.field == other.field and self.coeffs == other.coeffs

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
            cs = self.field.format(self.coeffs[e])
            if "+" in cs or "-" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*t")
            else:
                parts.append(f"{cs}*t^{e}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentSeries({self})"


def artin_schreier(x: LaurentSeries) -> LaurentSeries:
    """The Artin-Schreier operator x -> x^p - x on a polynomial: the p-th
    power acts coefficient-wise through Frobenius and stretches exponents by p.
    """
    if not isinstance(x, LaurentSeries):
        raise TypeError(f"unsupported operand {type(x).__name__}")
    p, frobenius = x.field.p, x.field.codes[2]
    power = {p * e: frobenius(c) for e, c in x.coeffs.items()}
    return LaurentSeries._from_codes(x.field, power) - x
