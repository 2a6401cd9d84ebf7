"""Laurent polynomials over a finite field: the sparse kernel that the
verification battery and its jump oracle (oracles.py) compute with, and
the Artin-Schreier operator.

A polynomial is its sparse dict {exponent: nonzero code}, exact in every
exponent, negative ones included, passed beside its GaloisField; codes
stand for the elements of F_q (see gf), and arithmetic runs on them
through the field's maps add, neg, mul and frob.  add, sub and mul take
validated dicts as is and return new ones; artin_schreier validates its
input with covers.nonzero_codes.
"""

from __future__ import annotations

from .covers import nonzero_codes
from .gf import GaloisField


def add(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a + b."""
    plus = field.add
    out = dict(a)
    for e, c in b.items():
        s = plus(out.pop(e), c) if e in out else c
        if s:
            out[e] = s
    return out


def sub(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a - b."""
    neg = field.neg
    return add(field, a, {e: neg(c) for e, c in b.items()})


def mul(field: GaloisField, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a * b; a scalar code k is the polynomial {0: k}."""
    plus, times = field.add, field.mul
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
    p, frob = field.p, field.frob
    return sub(field, {p * e: frob(c) for e, c in x.items()}, x)
