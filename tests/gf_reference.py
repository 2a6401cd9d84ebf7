"""Reference arithmetic on the codes of GF(p, e), for tests only.

It computes with sympy's galoistools on dense coefficient lists over Z/p,
highest degree first, and shares nothing with wildmckay.gf but the field's
modulus and the code convention: a code is c_0 + c_1*p + ... for the
residue c_0 + c_1*y + ... mod the modulus.
"""

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_neg, gf_pow_mod, gf_rem


def to_poly(code: int, p: int) -> list[int]:
    """The coefficient list of a code, highest degree first."""
    out = []
    while code:
        code, c = divmod(code, p)
        out.append(c)
    return out[::-1]


def to_code(poly: list[int], p: int) -> int:
    n = 0
    for c in poly:
        n = n * p + int(c)
    return n


def is_irreducible(modulus, p: int) -> bool:
    """sympy's irreducibility test on a modulus given low degree first."""
    return gf_irreducible_p([int(c) for c in reversed(modulus)], p, ZZ)


class Reference:
    """The six maps of a GaloisField, with frob and root named frobenius and
    pth_root, and powers, computed by sympy."""

    def __init__(self, field):
        self.p, self.e = field.p, field.e
        self.m = [int(c) for c in reversed(field.modulus)]

    def _poly(self, code):
        return to_poly(code, self.p)

    def _code(self, poly):
        return to_code(poly, self.p)

    def add(self, a, b):
        return self._code(gf_add(self._poly(a), self._poly(b), self.p, ZZ))

    def neg(self, a):
        return self._code(gf_neg(self._poly(a), self.p, ZZ))

    def mul(self, a, b):
        return self._code(gf_rem(gf_mul(self._poly(a), self._poly(b), self.p, ZZ), self.m, self.p, ZZ))

    def power(self, a, n):
        return self._code(gf_pow_mod(self._poly(a), n, self.m, self.p, ZZ))

    def frobenius(self, a):
        return self.power(a, self.p)

    def pth_root(self, a):
        return self.power(a, self.p ** (self.e - 1))

    def trace(self, a):
        acc = 0
        for _ in range(self.e):
            acc, a = self.add(acc, a), self.frobenius(a)
        if acc >= self.p:
            raise ValueError(f"trace {acc} is not in the prime field")
        return acc
