"""Laurent polynomials over a finite field and the Artin-Schreier operator.

A polynomial is its sparse dict {exponent: nonzero code}, exact in every
exponent, negative ones included, passed beside its GaloisField.  Nothing
in the package needs a series known only to a finite precision: a cover
class depends on the polar part alone, because the positive tail lies in
the Artin-Schreier image.

Coefficients are codes, the ints in range(q) that stand for the elements
of F_q (see gf); arithmetic runs on them through GaloisField.codes.
nonzero_codes validates a dict at the package's entry points; add, sub and
mul take validated dicts as is and return new ones.
"""

from __future__ import annotations

from .gf import GaloisField


def nonzero_codes(field: GaloisField, coeffs, polar: bool = False) -> dict[int, int]:
    """{exponent: code} for the nonzero codes of coeffs, only the terms up to
    t^0 when polar is set; ValueError unless every term, dropped or not, has
    an int exponent and a code of field: an int, not a bool, in
    range(field.order)."""
    order, clean = field.order, {}
    for key, c in (coeffs or {}).items():
        if type(c) is not int or not 0 <= c < order:
            raise ValueError(f"coefficient {c!r} is not a code of {field}, an int in range({order})")
        if type(key) is not int:
            raise ValueError(f"exponent {key!r} is not an int")
        if c and (not polar or key <= 0):
            clean[key] = c
    return clean


def add(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a + b."""
    plus = field.codes[0]
    out = dict(a)
    for e, c in b.items():
        s = plus(out.pop(e), c) if e in out else c
        if s:
            out[e] = s
    return out


def sub(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a - b."""
    neg = field.codes[1]
    return add(field, a, {e: neg(c) for e, c in b.items()})


def mul(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a * b; a scalar code k is the polynomial {0: k}."""
    plus, times = field.codes[0], field.codes[5]
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = plus(out.pop(e), times(c1, c2)) if e in out else times(c1, c2)
            if s:
                out[e] = s
    return out


def artin_schreier(field: GaloisField, x) -> dict[int, int]:
    """The Artin-Schreier operator x -> x^p - x on a polynomial: the p-th
    power acts coefficient-wise through Frobenius and stretches exponents by p.
    """
    x = nonzero_codes(field, x)
    p, frobenius = field.p, field.codes[2]
    return sub(field, {p * e: frobenius(c) for e, c in x.items()}, x)


def to_str(field: GaloisField, x: dict[int, int]) -> str:
    """x as 'c*t^e + ...' in increasing exponent, '0' for the zero polynomial."""
    parts = []
    for e in sorted(x):
        cs = field.format(x[e])
        if "+" in cs or "-" in cs:
            cs = f"({cs})"
        parts.append(cs if e == 0 else f"{cs}*t" if e == 1 else f"{cs}*t^{e}")
    return " + ".join(parts) if parts else "0"
