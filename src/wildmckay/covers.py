"""Artin-Schreier covers of the formal disk over a finite field.

A degree-p cover of Spec F_q[[t]] restricted to the punctured disk is cut
out by u^p - u + f = 0 for a Laurent polynomial f, and depends only on the
class of f modulo the image of the Artin-Schreier operator w(x) = x^p - x.
Every class has a unique normal form: a representative polynomial
sum_{i} f_{-i} t^{-i} with every exponent i positive and coprime to p,
plus an unramified constant class in F_p realized here through the
absolute trace.  The positive tail of f lies in the image, so only its
polar part is read.

A Laurent polynomial f is its dict {exponent: code} (see laurent), passed
beside its field F: the public entry points take (F, f) and validate f.
The module provides the reduction with accumulated witnesses, kept as
(exponent, code) monomials from the int-coded core onward, the
ramification jump, stratum counting formulas, a brute-force census engine
that cross-checks them, and an independent jump oracle: for a Laurent
polynomial f it computes in F_q((t))[g]/(g^p - g + f) exactly and reads
every valuation off a norm, v(x) = ord_t N(x).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from . import laurent
from .gf import MAX_COUNT_BITS, GF, GaloisField, InternalMismatch, InvalidJump, PreconditionError, require_prime_power
from .laurent import nonzero_codes


class EnumerationTooLarge(PreconditionError):
    """The requested census exceeds the enumeration guard."""


class CountTooLarge(PreconditionError):
    """A stratum count's size bound exceeds MAX_COUNT_BITS."""


class ASCoverClass:
    """Normal form of a degree-p cover of the punctured formal disk: the
    representative polynomial sum_i f_{-i} t^{-i}, coeffs {i: code} with
    every i positive and coprime to p, plus a constant class in F_p."""

    __slots__ = ("field", "coeffs", "const_class")

    def __init__(self, field: GaloisField, coeffs=None, const_class: int = 0):
        coeffs = nonzero_codes(field, coeffs)
        for i in coeffs:
            if i <= 0 or i % field.p == 0:
                raise ValueError(f"exponent index {i} must be positive and coprime to {field.p}")
        self.field, self.coeffs, self.const_class = field, coeffs, const_class % field.p

    @classmethod
    def _of(cls, field: GaloisField, coeffs: dict[int, int], const_class: int) -> "ASCoverClass":
        """A class from the core's output, {index: nonzero code} and a
        trace in range(p), taken as is."""
        obj = object.__new__(cls)
        obj.field, obj.coeffs, obj.const_class = field, coeffs, const_class
        return obj

    @property
    def jump(self) -> int:
        """The unique break of the higher ramification filtration: minus the
        order of the representative polynomial, 0 for unramified covers."""
        return max(self.coeffs) if self.coeffs else 0

    def _polar(self) -> dict[int, int]:
        return {-i: c for i, c in self.coeffs.items()}

    def lift(self) -> dict[int, int]:
        """A Laurent polynomial {exponent: code} in the class: rep plus the
        first constant, in encoding order, whose trace (the map F.codes[4])
        is const_class.  The trace is F_p-linear: for the least i with
        tr(y^i) != 0, all codes below p^i have trace 0, so that constant is
        t/tr(y^i) * y^i."""
        F, t, tr = self.field, self.const_class, self.field.codes[4]
        coeffs = self._polar()
        if t:
            i = next(i for i in range(F.e) if tr(F.p ** i))
            coeffs[0] = t * pow(tr(F.p ** i), -1, F.p) % F.p * F.p ** i
        return coeffs

    def key(self) -> tuple:
        """Deterministic sort/hash key: (sorted (index, code) pairs, const_class)."""
        return (tuple(sorted(self.coeffs.items())), self.const_class)

    def __eq__(self, other):
        return (
            isinstance(other, ASCoverClass)
            and self.field == other.field
            and self.coeffs == other.coeffs
            and self.const_class == other.const_class
        )

    def __hash__(self):
        return hash((self.field, self.key()))

    def __repr__(self):
        return f"ASCoverClass(rep={laurent.to_str(self.field, self._polar())}, const_class={self.const_class})"

    def to_json(self) -> dict:
        prime = self.field.e == 1
        terms = [[i, c if prime else self.field.format(c)] for i, c in sorted(self.coeffs.items())]
        return {"rep": {"terms": terms}, "const_class": self.const_class, "jump": self.jump}


# -- the int-coded reduction core ---------------------------------------------
#
# A Laurent polynomial is a dict {exponent: code} of nonzero coefficients,
# codes as in gf, and the field's maps GaloisField.codes do the
# arithmetic.  Only exponents <= 0 matter: the positive tail lies in the
# Artin-Schreier image.


def _reduce_codes(F, f):
    """Normal form of f = {exponent <= 0: nonzero code} modulo the
    Artin-Schreier image, with witnesses.

    Returns (rep, const_class, witnesses): rep maps the exponents of the
    representative polynomial (negative, coprime to p) to codes, and the
    witnesses are (exponent, code) monomials in the order subtracted, one
    per exponent.  A term c*t^(pi) with pi < 0 is cancelled by subtracting
    w(c^(1/p) t^i).  Only pi feeds into i, so walking each chain
    e, e/p, e/p^2, ... from its most negative end visits every exponent
    after all of its input.
    """
    p, (add, _, _, root, trace, _) = F.p, F.codes
    rep = dict(f)
    const = trace(rep.pop(0, 0))
    witnesses = []
    for e in sorted(rep):
        while e % p == 0 and (c := rep.pop(e, 0)):
            e //= p
            r = root(c)
            witnesses.append((e, r))
            c = add(rep.pop(e, 0), r)
            if c:
                rep[e] = c
    return rep, const, witnesses


def _witnesses_hold(F, f, rep, const, witnesses):
    """Check that f - sum w(c t^e) over the witnesses (e, c), all e <= 0,
    has polar part rep and a constant term of trace const.  Frobenius, not
    the p-th root, undoes each witness, so a wrong root map fails here."""
    p, (add, neg, frob, _, trace, _) = F.p, F.codes
    g = dict(f)
    for e, c in witnesses:
        g[p * e] = add(g.get(p * e, 0), neg(frob(c)))
        g[e] = add(g.get(e, 0), c)
    return trace(g.pop(0, 0)) == const and {e: c for e, c in g.items() if c} == rep


def reduce_with_witnesses(F: GaloisField, f) -> tuple[ASCoverClass, list[tuple[int, int]]]:
    """Normal form of f = {exponent: code} over F modulo the Artin-Schreier
    image, with the subtracted preimage witnesses as (exponent, code)
    monomials in the order subtracted, so that f - sum w(c t^e) has negative
    part equal to the returned representative polynomial.

    The strictly positive tail is discarded outright (it always lies in the
    image over F_q[[t]] up to a constant-class adjustment, which the trace of
    the constant term absorbs).  See _reduce_codes.  A term at t^e walks a
    chain of up to log_p|e| witnesses of up to log_2|e| bits each, so an
    exponent whose chain could exceed MAX_COUNT_BITS bits is refused.
    """
    polar = nonzero_codes(F, f, polar=True)
    bits = max((e.bit_length() for e in polar if e % F.p == 0), default=0)
    if bits * bits > MAX_COUNT_BITS:
        raise PreconditionError(f"a term at an exponent of {bits} bits can need {bits * bits} bits of "
                                f"witnesses, above the guard of {MAX_COUNT_BITS}")
    rep, const, witnesses = _reduce_codes(F, polar)
    return ASCoverClass._of(F, {-e: c for e, c in rep.items()}, const), witnesses


def reduce(F: GaloisField, f) -> ASCoverClass:
    """Normal form of the cover class of f over F (see reduce_with_witnesses)."""
    return reduce_with_witnesses(F, f)[0]


def witnesses_account_for(F: GaloisField, f, cls: ASCoverClass, witnesses) -> bool:
    """Check that f - sum w(c t^e) over the witness pairs (e, c) has negative
    part the class's representative polynomial and constant-term trace
    cls.const_class.  (The positive tail is absorbed implicitly and is not
    certified here.)"""
    return _witnesses_hold(F, nonzero_codes(F, f, polar=True), cls._polar(), cls.const_class, witnesses)


def uniformizer_params(p: int, j: int) -> tuple[int, int, int, int]:
    """Solve j = p*q' - r' (1 <= r' < p) and l'*r' = p*c' + 1 (1 <= l' < p).

    Then t^(l'q'-c') g^(l') has valuation p(l'q'-c') - l'j = 1 in the cover
    ring, i.e. it is a uniformizer.
    """
    if j <= 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be positive and coprime to {p}")
    r_ = (-j) % p
    q_ = (j + r_) // p
    l_ = pow(r_, -1, p)
    c_ = (l_ * r_ - 1) // p
    if p * (l_ * q_ - c_) - l_ * j != 1:
        raise InternalMismatch(f"uniformizer exponents for p = {p}, j = {j} miss valuation 1")
    return q_, r_, l_, c_


# -- the jump oracle ----------------------------------------------------------
#
# For a Laurent polynomial f, an element of R = F_q((t))[g]/(g^p - g + f) is a
# list of p exact polynomials {exponent: code} on the basis 1, g, ..., g^(p-1).
# For ramified f, R is a totally ramified degree-p extension L of F_q((t)),
# so v_L(x) = ord_t N(x).


def _ring_mul(F, a, b, f):
    """a * b in R: rewrites g^(p+k) = g^(k+1) - f g^k from the top down."""
    p = len(a)
    prod = [{}] * (2 * p - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    prod[i + k] = laurent.add(F, prod[i + k], laurent.mul(F, x, y))
    for k in range(2 * p - 2, p - 1, -1):
        if c := prod[k]:
            prod[k - p + 1] = laurent.add(F, prod[k - p + 1], c)
            prod[k - p] = laurent.sub(F, prod[k - p], laurent.mul(F, f, c))
    return prod[:p]


def _sigma(F, a):
    """The Galois generator g -> g + 1 applied to a, re-expanded."""
    p = len(a)
    out = [{}] * p
    for m, x in enumerate(a):
        if x:
            for i in range(m + 1):
                if k := math.comb(m, i) % p:
                    out[i] = laurent.add(F, out[i], laurent.mul(F, x, {0: k}))
    return out


def _norm_order(F, a, f) -> int:
    """ord_t N(a), with N(a) = prod_{k<p} sigma^k(a) computed in R."""
    norm = conj = a
    for _ in range(len(a) - 1):
        conj = _sigma(F, conj)
        norm = _ring_mul(F, norm, conj, f)
    if not norm[0] or any(norm[1:]):
        raise InternalMismatch(f"the norm of an element of the cover ring of {laurent.to_str(F, f)} "
                               "is 0 or not in F_q((t))")
    return min(norm[0])


def verify_jump(F: GaloisField, f) -> bool:
    """Independent ramification oracle on a Laurent polynomial f over F.

    With the reduction's jump j and witnesses w, h = g + sum w solves
    h^p - h = -(f - sum w(w)).  When the reduction is right, s = t^m h^(l')
    with m = l'q' - c' (uniformizer_params) is a uniformizer of L, and
    v(sigma(s) - s) = j + 1 (Serre, Local Fields, IV).  Checks both, with
    v = ord_t N and N(s) = t^(pm) N(h)^(l').  An unramified f raises InvalidJump.
    """
    f = nonzero_codes(F, f)
    cls, witnesses = reduce_with_witnesses(F, f)
    p, j = F.p, cls.jump
    q_, _r, l_, c_ = uniformizer_params(p, j)
    h = power = [dict(witnesses), {0: 1}] + [{}] * (p - 2)
    for _ in range(l_ - 1):
        power = _ring_mul(F, power, h, f)
    pm = p * (l_ * q_ - c_)  # sigma(s) - s = t^m (sigma(h^l') - h^l')
    delta = [laurent.sub(F, x, y) for x, y in zip(_sigma(F, power), power)]
    return pm + l_ * _norm_order(F, h, f) == 1 and pm + _norm_order(F, delta, f) == j + 1


# -- counting and enumeration ------------------------------------------------


def count_rep_covers(q: int, j: int) -> int:
    """Number of representative polynomials over F_q with jump exactly j:
    (q-1) * q^(j-1-floor(j/p)) for j > 0 coprime to p, and 1 for j = 0."""
    p = require_prime_power(q)[0]
    if j == 0:
        return 1
    if j < 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be 0 or positive and coprime to {p}")
    k = j - 1 - j // p
    bits = (q - 1).bit_length() * (k + 1)  # (q - 1) * q^k < 2^bits, exact for q = 2
    if bits > MAX_COUNT_BITS:
        raise CountTooLarge(f"the count for q = {q}, jump {j} needs up to {bits} bits, "
                            f"above the output guard of {MAX_COUNT_BITS}")
    return (q - 1) * q ** k


def count_extensions(q: int, j: int) -> int:
    """Number of degree-p Galois extensions of F_q((t)) with ramification
    jump j.  Each geometric class splits into p cover classes, while each
    field extension is counted p - 1 times among covers (once per choice of
    Galois-group generator), so N = p * count_rep_covers(q, j) / (p - 1);
    this is always an integer."""
    p = require_prime_power(q)[0]
    if j <= 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be positive and coprime to {p}")
    n, r = divmod(p * count_rep_covers(q, j), p - 1)
    if r:
        raise InternalMismatch(f"extension count for q = {q}, j = {j} is not an integer")
    return n


class CensusReport:
    """Outcome of the brute-force reduction census.  `to_json` lists the
    fields in the order of __slots__, without fiber_sizes and classes."""

    __slots__ = (
        "p", "q", "max_exp", "total_inputs", "class_count", "expected_class_count",
        "jump_histogram",  # rows [j, count, expected, ok]
        "fiber_sizes",  # class key -> fiber size, sorted by key
        "expected_fiber_size", "fibers_uniform", "witnesses_ok",
        "classes",  # ASCoverClass, in the order of fiber_sizes
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unexpected CensusReport fields {sorted(fields)}")

    @property
    def all_ok(self) -> bool:
        return (
            self.class_count == self.expected_class_count
            and self.fibers_uniform
            and self.witnesses_ok
            and all(row[3] for row in self.jump_histogram)
        )

    def to_json(self, list_forms: bool = False) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__ if name not in ("fiber_sizes", "classes")}
        out["all_ok"] = self.all_ok
        if list_forms:
            out["normal_forms"] = [c.to_json() for c in self.classes]
            out["fiber_size_per_form"] = list(self.fiber_sizes.values())
        return out


def enumerate_covers(q: int, max_exp: int, guard: int = 10 ** 7) -> CensusReport:
    """Reduce every Laurent polynomial supported on t^-1, ..., t^-max_exp
    over F_q and tabulate normal forms, jump counts and reduction fibers.

    The report records, for each jump j <= max_exp, the number of distinct
    normal forms against the stratum formula, and checks that every
    reduction fiber has exactly q^floor(max_exp/p) elements.
    """
    p, e = require_prime_power(q)
    if max_exp < 0:
        raise PreconditionError(f"max_exp {max_exp} must be non-negative")
    # q >= 2, so max_exp >= guard.bit_length() already means q^max_exp > guard
    if max_exp >= guard.bit_length() or q ** max_exp > guard:
        raise EnumerationTooLarge(f"{q}^{max_exp} exceeds the enumeration guard {guard}")
    F = GF(p, e)
    exponents = range(-1, -max_exp - 1, -1)
    fibers = {}
    witnesses_ok = True
    for combo in itertools.product(range(q), repeat=max_exp):
        f = {e: c for e, c in zip(exponents, combo) if c}
        rep, const, witnesses = _reduce_codes(F, f)
        witnesses_ok &= _witnesses_hold(F, f, rep, const, witnesses)
        k = (tuple(sorted((-e, c) for e, c in rep.items())), const)  # == ASCoverClass.key()
        fibers[k] = fibers.get(k, 0) + 1
    fibers = dict(sorted(fibers.items()))
    classes = [ASCoverClass._of(F, dict(coeffs), const) for coeffs, const in fibers]
    hist = Counter(cls.jump for cls in classes)
    expected = {j: count_rep_covers(q, j) for j in range(max_exp + 1) if j == 0 or j % p}
    jump_rows = [[j, hist[j], n, hist[j] == n] for j, n in expected.items()]
    expected_fiber = q ** (max_exp // p)
    fibers_uniform = set(fibers.values()) == {expected_fiber}
    return CensusReport(
        p=p,
        q=q,
        max_exp=max_exp,
        total_inputs=q ** max_exp,
        class_count=len(classes),
        expected_class_count=q ** (max_exp - max_exp // p),
        jump_histogram=jump_rows,
        fiber_sizes=fibers,
        expected_fiber_size=expected_fiber,
        fibers_uniform=fibers_uniform,
        witnesses_ok=witnesses_ok,
        classes=classes,
    )
