"""Finite fields F_{p^e} with a deterministic choice of modulus.

Elements of GF(p, e) are residues in F_p[y]/(m(y)) where m is the monic
irreducible polynomial of degree e whose non-leading coefficient vector
(c_0, ..., c_{e-1}) is smallest when read as the base-p integer
c_0 + c_1*p + ... .  This makes serialized elements reproducible across
runs and machines.  For e = 1 the modulus is y itself and elements behave
like integers mod p.

The absolute trace Tr(x) = x + x^p + ... + x^{p^{e-1}} lands in the prime
field and is returned as a plain int; its kernel is exactly the image of
the Artin-Schreier operator x -> x^p - x.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterator


class InternalMismatch(AssertionError):
    """An internal invariant of a computation failed (must not happen)."""


class PreconditionError(ValueError):
    """An input violates a documented precondition (the CLI's exit 2)."""


# Deterministic Miller-Rabin: the first 13 prime bases decide primality
# exactly for every n below this bound (Sorenson-Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


class PrimalityUnproven(PreconditionError):
    """n passed every Miller-Rabin base but lies above the bound where that is a proof."""


def is_prime(n: int) -> bool:
    """Exact primality below MR_BOUND; above it a composite found by a witness
    is reported, and otherwise PrimalityUnproven is raised rather than a guess."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise PrimalityUnproven(
            f"{n} is a probable prime above {MR_BOUND}, where the 13-base Miller-Rabin test is no proof"
        )
    return True


def _iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 1, by integer Newton steps."""
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) is at least the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p^e and p prime, or None.

    q is written as r^e with e as large as possible, by exact integer k-th
    roots for prime k; q is a prime power iff that root r is prime."""
    if q < 2:
        return None
    r, e, k = q, 1, 2
    while 1 << k <= r:
        root = _iroot(r, k)
        if root ** k == r:
            r, e = root, e * k
        else:
            k += 1
            while not is_prime(k):
                k += 1
    return (r, e) if is_prime(r) else None


def require_prime(p: int) -> None:
    """PreconditionError unless p is prime, the characteristic of a field."""
    if not is_prime(p):
        raise PreconditionError(f"characteristic {p} is not prime")


def require_prime_power(q: int) -> tuple[int, int]:
    """prime_power_decomposition(q), or PreconditionError if q is not a prime power."""
    pe = prime_power_decomposition(q)
    if pe is None:
        raise PreconditionError(f"{q} is not a prime power")
    return pe


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _ptrim(a)
    return a


def _ppowmod(a: list[int], n: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a, m, p)
    while n:
        if n & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        n >>= 1
        if n:
            base = _pmod(_pmul(base, base, p), m, p)
    return result


def binary_power(base, n: int, one):
    """base ** n, one for n = 0, by square-and-multiply: no product with one, no unused square."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if not n:
        return one
    while not n & 1:
        base, n = base * base, n >> 1
    result = base
    while n := n >> 1:
        base = base * base
        if n & 1:
            result = result * base
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    # m monic of degree e: irreducible iff y^(p^e) = y mod m and
    # gcd(y^(p^(e/l)) - y, m) = 1 for every prime l | e.
    e = len(m) - 1

    def frobenius_minus_y(k: int) -> list[int]:
        t = _ppowmod([0, 1], p ** k, m, p)
        return _ptrim([(ti - yi) % p for ti, yi in itertools.zip_longest(t, [0, 1], fillvalue=0)])

    return not frobenius_minus_y(e) and all(
        len(_pgcd(m[:], frobenius_minus_y(e // ell), p)) == 1
        for ell in range(2, e + 1)
        if e % ell == 0 and is_prime(ell)
    )


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest irreducible monic modulus of degree e, in base-p order."""
    if e == 1:
        return (0, 1)
    for high_first in itertools.product(range(p), repeat=e):  # c_0 varies fastest
        cand = [*high_first[::-1], 1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class _Memo(dict):
    """A dict that fills a missing entry from fn on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _code_maps(F):
    """GaloisField.codes: the maps (add, neg, frobenius, pth_root, trace, mul)
    on codes, the base-p encodings of GFElement.encode, for int-coded cores;
    trace returns an int in {0, ..., p-1}.  Prime fields use integer
    arithmetic mod p, where Frobenius, root and trace are the identity
    (int); p = 2 adds by XOR and multiplies by AND.  Every other map is
    memoized from the GFElement operation on first use, so no size-q table
    is built up front.  Root and Frobenius are computed each on its own,
    never one as the inverse of the other, so the witness check can catch a
    wrong root."""
    p = F.p
    if F.e == 1:
        if p == 2:
            return operator.xor, int, int, int, int, operator.and_
        return (lambda a, b: (a + b) % p), (lambda a: -a % p), int, int, int, (lambda a, b: a * b % p)

    def memo(op):
        return _Memo(lambda n: op(F.from_encoding(n))).__getitem__

    def memo2(op):
        pairs = _Memo(lambda ab: op(F.from_encoding(ab[0]), F.from_encoding(ab[1])).encode())
        return lambda a, b: pairs[a, b]

    if p == 2:
        add, neg = operator.xor, int
    else:
        add, neg = memo2(GFElement.__add__), memo(lambda x: (-x).encode())
    frobenius, root = memo(lambda x: x.frobenius().encode()), memo(lambda x: x.pth_root().encode())
    return add, neg, frobenius, root, memo(GFElement.trace), memo2(GFElement.__mul__)


class GFElement:
    """An element of a GaloisField, immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "GaloisField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- arithmetic --

    def __add__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return GFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self.field.coerce(other)
        p = self.field.p
        return GFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return GFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self.field.coerce(other)
        F = self.field
        prod = _pmul(list(self.coeffs), list(other.coeffs), F.p)
        return F._from_list(_pmod(prod, list(F.modulus), F.p))

    def __truediv__(self, other):
        return self * self.field.coerce(other).inverse()

    def __pow__(self, n: int):
        F = self.field
        if n < 0:
            return self.inverse() ** (-n)
        return F._from_list(_ppowmod(list(self.coeffs), n, list(F.modulus), F.p))

    __radd__ = __add__

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    __rmul__ = __mul__

    def inverse(self) -> "GFElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    # -- structure maps --

    def frobenius(self) -> "GFElement":
        return self ** self.field.p

    def pth_root(self) -> "GFElement":
        """Unique p-th root: inverse of Frobenius, x^(p^(e-1))."""
        F = self.field
        return self ** (F.p ** (F.e - 1))

    def trace(self) -> int:
        """Absolute trace into F_p, returned as an int in {0, ..., p-1}."""
        acc = t = self
        for _ in range(self.field.e - 1):
            t = t.frobenius()
            acc = acc + t
        if any(acc.coeffs[1:]):
            raise InternalMismatch(f"trace of {self} left the prime field")
        return acc.coeffs[0]

    # -- predicates / conversions --

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def encode(self) -> int:
        """Base-p integer encoding c_0 + c_1*p + ..., reproducible."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.coerce(other)
        return (
            isinstance(other, GFElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.field.e == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("y" if c == 1 else f"{c}*y")
            else:
                parts.append(f"y^{i}" if c == 1 else f"{c}*y^{i}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GF({self.field.p},{self.field.e})({self})"


class GaloisField:
    """The field F_{p^e}; construct via the cached factory GF(p, e)."""

    def __init__(self, p: int, e: int):
        require_prime(p)
        if e < 1:
            raise PreconditionError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _find_modulus(p, e)
        self.zero = GFElement(self, (0,) * e)
        self.one = self.element(1)
        self.codes = _code_maps(self)

    def element(self, value) -> GFElement:
        """Build an element from an int (reduced mod p), an int list/tuple
        of polynomial coefficients, or another element of this field."""
        if isinstance(value, GFElement):
            if value.field is not self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, int):
            return GFElement(self, (value % self.p,) + (0,) * (self.e - 1))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.e:
            coeffs = _pmod(coeffs, list(self.modulus), self.p)
        return self._from_list(coeffs)

    coerce = element

    def code(self, value) -> int:
        """element(value).encode(); an int k is the code k mod p, built directly."""
        return value % self.p if isinstance(value, int) else self.element(value).encode()

    def _from_list(self, coeffs: list[int]) -> GFElement:
        coeffs = coeffs + [0] * (self.e - len(coeffs))
        return GFElement(self, tuple(coeffs[: self.e]))

    def from_encoding(self, n: int) -> GFElement:
        """Inverse of GFElement.encode."""
        coeffs = []
        for _ in range(self.e):
            coeffs.append(n % self.p)
            n //= self.p
        return GFElement(self, tuple(coeffs))

    def elements(self) -> Iterator[GFElement]:
        """All q elements in the deterministic encoding order."""
        return map(self.from_encoding, range(self.order))

    def parse(self, text: str) -> GFElement:
        """Parse '3' or a polynomial string 'a0+a1*y+a2*y^2' (minus allowed)."""
        text = text.strip().replace(" ", "").replace("-", "+-")
        coeffs = [0] * self.e
        for term in text.split("+"):
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            if "y" not in term:
                coeffs[0] = (coeffs[0] + sign * int(term)) % self.p
                continue
            head, _, tail = term.partition("y")
            c = 1 if head in ("", "*") else int(head.rstrip("*"))
            k = 1 if not tail else int(tail.lstrip("^"))
            if k >= self.e:
                raise PreconditionError(f"exponent y^{k} exceeds field degree {self.e - 1}")
            coeffs[k] = (coeffs[k] + sign * c) % self.p
        return GFElement(self, tuple(coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, GaloisField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}, {self.e})"


@functools.cache
def GF(p: int, e: int = 1) -> GaloisField:
    """Cached field constructor, so GF(p, e) is a singleton per (p, e)."""
    return GaloisField(p, e)
