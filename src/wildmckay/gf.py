"""Finite fields F_{p^e} with a deterministic choice of modulus.

Elements of GF(p, e) are residues in F_p[y]/(m(y)) where m is the monic
irreducible polynomial of degree e whose non-leading coefficient vector
(c_0, ..., c_{e-1}) is smallest when read as the base-p integer
c_0 + c_1*p + ... .  This makes serialized elements reproducible across
runs and machines.  For e = 1 the modulus is y itself.

An element is its code, the base-p integer c_0 + c_1*p + ... of its
residue, an int in range(p^e); for e = 1 that is the integer mod p.  The
six maps of a GaloisField (add, neg, frob, root, trace, mul) do the
arithmetic, parse and format convert at the edges, and binary_power is the
package's one square-and-multiply loop, for residues and ring elements.

The absolute trace Tr(x) = x + x^p + ... + x^{p^{e-1}} lands in the prime
field and is returned as a plain int; its kernel is exactly the image of
the Artin-Schreier operator x -> x^p - x.
"""

from __future__ import annotations

import functools
import itertools
import operator


class InternalMismatch(AssertionError):
    """An internal invariant of a computation failed (must not happen)."""


class PreconditionError(ValueError):
    """An input violates a documented precondition (the CLI's exit 2)."""


class TooLarge(PreconditionError):
    """An input exceeds a documented resource guard."""


class InvalidJump(PreconditionError):
    """Positive ramification jumps must be coprime to p."""


# Output guard on the stratum counts, in bits: printing a 2^20-bit integer
# already takes over a second, and forming q^k at a jump near 10^11 never ends.
# It also bounds the witness chain of one term of a reduced polynomial and the
# stringy point counts.  It lives here, with InvalidJump, so that stringy
# reads both without importing covers.
MAX_COUNT_BITS = 2 ** 20


# Deterministic Miller-Rabin: the first 13 prime bases decide primality
# exactly for every n below this bound (Sorenson-Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


class PrimalityUnproven(PreconditionError):
    """n passed every Miller-Rabin base but lies above the bound where that is a proof."""


def _require_int(n, name: str) -> None:
    """TypeError unless n is an int, not a bool or a float."""
    if type(n) is not int:
        raise TypeError(f"{name} {n!r} is not an int")


def is_prime(n: int) -> bool:
    """Exact primality below MR_BOUND; above it a composite found by a witness
    is reported, and otherwise PrimalityUnproven is raised rather than a guess.
    TypeError unless n is an int."""
    _require_int(n, "p")
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
    roots for prime k; q is a prime power iff that root r is prime.
    TypeError unless q is an int."""
    _require_int(q, "q")
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


def _mulmod(m: list[int], p: int):
    """The product of F_p[y]/(m) on coefficient lists of degree below deg m."""
    return lambda a, b: _pmod(_pmul(a, b, p), m, p)


def binary_power(base, n: int, mul=operator.mul):
    """base ** n for n >= 1, with the product mul, by square-and-multiply: no
    product with one, no unused square.  ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"exponent {n} is not positive")
    while not n & 1:
        base, n = mul(base, base), n >> 1
    result = base
    while n := n >> 1:
        base = mul(base, base)
        if n & 1:
            result = mul(result, base)
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    # m monic of degree e: irreducible iff y^(p^e) = y mod m and
    # gcd(y^(p^(e/l)) - y, m) = 1 for every prime l | e.
    e, mulmod = len(m) - 1, _mulmod(m, p)

    def frobenius_minus_y(k: int) -> list[int]:
        t = binary_power([0, 1], p ** k, mulmod)  # y is reduced mod m: e >= 2
        return _ptrim([(ti - yi) % p for ti, yi in itertools.zip_longest(t, [0, 1], fillvalue=0)])

    return not frobenius_minus_y(e) and all(
        len(_pgcd(m[:], frobenius_minus_y(e // ell), p)) == 1
        for ell in range(2, e + 1)
        if e % ell == 0 and is_prime(ell)
    )


# Work guard on the modulus search, counted in candidates at a fixed cost
# each, not in time.  Testing a candidate computes y^(p^e) mod m with
# bit_length + bit_count of p^e products of degree-e polynomials (about
# e log2 p of them), each near (e + 4)^2 steps with the loop overhead, so
# about e^3 log p in all.  The scan can be long: for e = 3 and p = 2 mod 3
# no binomial y^3 + c is irreducible, so it is linear in p.  At this bound
# the slowest accepted search takes about 1 s (CPython 3.11, one core of a
# 2-vCPU Xeon): GF(3011, 3) 0.6 s, GF(2, 32) 0.3 s, while GF(4007, 3),
# GF(3, 48) and GF(2, 80) are refused.
MAX_MODULUS_WORK = 10 ** 7


def _find_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest irreducible monic modulus of degree e, in base-p order."""
    if e == 1:
        return (0, 1)
    q = p ** e
    cost = (e + 4) ** 2 * (q.bit_length() + q.bit_count())
    for n in range(q):  # the candidate with code n: c_0 varies fastest
        if (n + 1) * cost > MAX_MODULUS_WORK:
            raise TooLarge(
                f"no irreducible modulus of degree {e} over F_{p} among the first {n} candidates; "
                f"each costs {cost} steps and the search stops at {MAX_MODULUS_WORK}"
            )
        if n % p == 0:  # c_0 = 0: y divides the candidate
            continue
        low = _digits(n, p)
        cand = low + [0] * (e - len(low)) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits(code: int, p: int) -> list[int]:
    """The base-p digits of a code, low first: its coefficient list, trimmed."""
    out = []
    while code:
        code, c = divmod(code, p)
        out.append(c)
    return out


def _code(coeffs: list[int], p: int) -> int:
    """The code c_0 + c_1*p + ... of a coefficient list, low first."""
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


class _Memo(dict):
    """A dict that fills a missing entry from fn on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _code_maps(F):
    """The maps add, neg, frob, root, trace and mul of GaloisField, in that
    order, on codes; trace returns an int in {0, ..., p-1}.  Prime fields use
    integer arithmetic mod p, where Frobenius, root and trace are the
    identity (int); p = 2 adds by XOR and multiplies by AND.  Every other
    map is memoized on first use from the base-p digit lists of its
    arguments, so no size-q table is built up front.  Root and Frobenius
    are each computed on their own, never one as the inverse of the other,
    so the witness check can catch a wrong root."""
    p, e, m = F.p, F.e, list(F.modulus)
    if e == 1:
        if p == 2:
            return operator.xor, int, int, int, int, operator.and_
        return (lambda a, b: (a + b) % p), (lambda a: -a % p), int, int, int, (lambda a, b: a * b % p)

    def memo(op):
        return _Memo(lambda n: _code(op(_digits(n, p)), p)).__getitem__

    def memo2(op):
        pairs = _Memo(lambda ab: _code(op(_digits(ab[0], p), _digits(ab[1], p)), p))
        return lambda a, b: pairs[a, b]

    def add_lists(x, y):
        return [(a + b) % p for a, b in itertools.zip_longest(x, y, fillvalue=0)]

    mulmod = _mulmod(m, p)

    def power(k):  # a code's digit list has degree below e: it is reduced mod m
        return memo(lambda x: binary_power(x, k, mulmod))

    def trace(x):
        acc = t = x
        for _ in range(e - 1):
            t = binary_power(t, p, mulmod)
            acc = add_lists(acc, t)
        if any(acc[1:]):
            raise InternalMismatch(f"trace of {F.format(_code(x, p))} left the prime field")
        return acc[:1]

    if p == 2:
        add, neg = operator.xor, int
    else:
        add, neg = memo2(add_lists), memo(lambda x: [-a % p for a in x])
    return add, neg, power(p), power(p ** (e - 1)), memo(trace), memo2(mulmod)


class GaloisField:
    """The field F_{p^e}; construct via the cached factory GF(p, e).

    An element is its code, an int in range(order).  The maps add, neg,
    frob (x -> x^p), root (x -> x^(1/p)), trace and mul act on codes."""

    def __init__(self, p: int, e: int):
        require_prime(p)
        _require_int(e, "extension degree")
        if e < 1:
            raise PreconditionError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _find_modulus(p, e)
        self.add, self.neg, self.frob, self.root, self.trace, self.mul = _code_maps(self)

    def parse(self, text: str) -> int:
        """The code of '3' or of a polynomial string 'a0+a1*y+a2*y^2' (minus allowed)."""
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
        return _code(coeffs, self.p)

    def format(self, code: int) -> str:
        """A code as parse reads it back: '3', or a polynomial like '2+y^2'."""
        if self.e == 1:
            return str(code)
        parts = []
        for i, c in enumerate(_digits(code, self.p)):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("y" if c == 1 else f"{c}*y")
            else:
                parts.append(f"y^{i}" if c == 1 else f"{c}*y^{i}")
        return "+".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, GaloisField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}, {self.e})"


@functools.lru_cache(maxsize=None, typed=True)
def GF(p: int, e: int = 1) -> GaloisField:
    """Cached field constructor, so GF(p, e) is a singleton per (p, e).  Typed,
    so that GF(2.0, 1) misses GF(2, 1) and meets the int check."""
    return GaloisField(p, e)
