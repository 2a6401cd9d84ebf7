"""Artin-Schreier covers of the formal disk over a finite field.

A degree-p cover of Spec F_q[[t]] restricted to the punctured disk is cut
out by u^p - u + f = 0 for a Laurent polynomial f, and depends only on the
class of f modulo the image of the Artin-Schreier operator w(x) = x^p - x.
Every class has a unique normal form: a representative polynomial
sum_{i} f_{-i} t^{-i} with every exponent i positive and coprime to p,
plus an unramified constant class in F_p realized here through the
absolute trace.  The positive tail of f lies in the image, so only its
polar part is read.

A Laurent polynomial f is its sparse dict {exponent: nonzero code}, codes
as in gf, passed beside its field F: the public entry points take (F, f)
and validate f with nonzero_codes; the reduction runs on F's maps add,
root and trace, and its checks undo each witness with frob.  The module
provides the reduction with accumulated witnesses, kept as (exponent,
code) monomials from the int-coded core onward, the ramification jump,
stratum counting formulas, and a brute-force census engine that
cross-checks them.

The census reduces every input on its own but shares work between inputs:
the reduction runs from the most negative exponent up, and a witness made
at t^-i only carries into t^-(i/p), so the coefficient at t^-i, its
witness and its share of the class key depend only on the coefficients at
t^-i and below.  enumerate_covers walks the inputs as an odometer and
settles each such coefficient once per prefix, checking the witness
identity of witnesses_account_for, v - frob(r) = 0, at every level that
makes a witness.  It counts the inputs of a prefix in a row over their
coefficient at t^-1, and sorts the classes and builds their forms only
when read.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .gf import MAX_COUNT_BITS, GF, GaloisField, InternalMismatch, InvalidJump, PreconditionError, TooLarge
from .gf import _require_int, require_prime_power

# a census walks every input, and keeps every class in its report, so it is
# refused above this many of each; a caller's guard may only lower the first
MAX_CENSUS_INPUTS = 10 ** 7
MAX_CENSUS_CLASSES = 10 ** 6


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


def to_str(field: GaloisField, x: dict[int, int]) -> str:
    """x as 'c*t^e + ...' in increasing exponent, '0' for the zero polynomial."""
    parts = []
    for e in sorted(x):
        cs = field.format(x[e])
        if "+" in cs or "-" in cs:
            cs = f"({cs})"
        parts.append(cs if e == 0 else f"{cs}*t" if e == 1 else f"{cs}*t^{e}")
    return " + ".join(parts) if parts else "0"


class ASCoverClass:
    """Normal form of a degree-p cover of the punctured formal disk: the
    representative polynomial sum_i f_{-i} t^{-i}, coeffs {i: code} with
    every i positive and coprime to p, plus a constant class in F_p."""

    __slots__ = ("field", "coeffs", "const_class")

    def __init__(self, field: GaloisField, coeffs=None, const_class: int = 0):
        coeffs = nonzero_codes(field, coeffs)
        _require_int(const_class, "const_class")
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
        first constant, in encoding order, whose trace (the map F.trace)
        is const_class.  The trace is F_p-linear: for the least i with
        tr(y^i) != 0, all codes below p^i have trace 0, so that constant is
        t/tr(y^i) * y^i."""
        F, t, tr = self.field, self.const_class, self.field.trace
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
        return f"ASCoverClass(rep={to_str(self.field, self._polar())}, const_class={self.const_class})"

    def to_json(self) -> dict:
        prime = self.field.e == 1
        terms = [[i, c if prime else self.field.format(c)] for i, c in sorted(self.coeffs.items())]
        return {"rep": {"terms": terms}, "const_class": self.const_class, "jump": self.jump}


# -- the int-coded reduction core ---------------------------------------------


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
    p, add, root, trace = F.p, F.add, F.root, F.trace
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
        raise TooLarge(f"a term at an exponent of {bits} bits can need {bits * bits} bits of "
                       f"witnesses, above the guard of {MAX_COUNT_BITS}")
    rep, const, witnesses = _reduce_codes(F, polar)
    return ASCoverClass._of(F, {-e: c for e, c in rep.items()}, const), witnesses


def reduce(F: GaloisField, f) -> ASCoverClass:
    """Normal form of the cover class of f over F (see reduce_with_witnesses)."""
    return reduce_with_witnesses(F, f)[0]


def witnesses_account_for(F: GaloisField, f, cls: ASCoverClass, witnesses) -> bool:
    """Check that f - sum w(c t^e) over the witness pairs (e, c) has negative
    part the class's representative polynomial and constant-term trace
    cls.const_class.  Frobenius, not the p-th root, undoes each witness, so
    a wrong root map fails here.  (The positive tail is absorbed implicitly
    and is not certified here.)"""
    p, add, neg, frob, trace = F.p, F.add, F.neg, F.frob, F.trace
    g = nonzero_codes(F, f, polar=True)
    for e, c in witnesses:
        g[p * e] = add(g.get(p * e, 0), neg(frob(c)))
        g[e] = add(g.get(e, 0), c)
    return trace(g.pop(0, 0)) == cls.const_class and {e: c for e, c in g.items() if c} == cls._polar()


# -- counting and enumeration ------------------------------------------------


def count_rep_covers(q: int, j: int) -> int:
    """Number of representative polynomials over F_q with jump exactly j:
    (q-1) * q^(j-1-floor(j/p)) for j > 0 coprime to p, and 1 for j = 0."""
    p = require_prime_power(q)[0]
    _require_int(j, "jump")
    if j == 0:
        return 1
    if j < 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be 0 or positive and coprime to {p}")
    k = j - 1 - j // p
    bits = (q - 1).bit_length() * (k + 1)  # (q - 1) * q^k < 2^bits, exact for q = 2
    if bits > MAX_COUNT_BITS:
        raise TooLarge(f"the count for q = {q}, jump {j} needs up to {bits} bits, "
                       f"above the output guard of {MAX_COUNT_BITS}")
    return (q - 1) * q ** k


def count_extensions(q: int, j: int) -> int:
    """Number of degree-p Galois extensions of F_q((t)) with ramification
    jump j.  Each geometric class splits into p cover classes, while each
    field extension is counted p - 1 times among covers (once per choice of
    Galois-group generator), so N = p * count_rep_covers(q, j) / (p - 1);
    this is always an integer."""
    p = require_prime_power(q)[0]
    _require_int(j, "jump")
    if j <= 0 or j % p == 0:
        raise InvalidJump(f"jump {j} must be positive and coprime to {p}")
    n, r = divmod(p * count_rep_covers(q, j), p - 1)
    if r:
        raise InternalMismatch(f"extension count for q = {q}, j = {j} is not an integer")
    return n


class CensusReport:
    """Outcome of the brute-force reduction census.  `to_json` lists the
    fields in the order of __slots__, without field and fibers; fiber_sizes
    and classes sort the fibers, and build the forms, only when read."""

    __slots__ = (
        "p", "q", "max_exp", "total_inputs", "class_count", "expected_class_count",
        "jump_histogram",  # rows [j, count, expected, ok]
        "expected_fiber_size", "fibers_uniform", "witnesses_ok",
        "field", "fibers",  # fibers: class key, as ASCoverClass.key() -> fiber size, unsorted
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

    @property
    def fiber_sizes(self) -> dict[tuple, int]:
        """Class key -> fiber size, sorted by key."""
        return dict(sorted(self.fibers.items()))

    @property
    def classes(self) -> list[ASCoverClass]:
        """One ASCoverClass per class, in the order of fiber_sizes."""
        return [ASCoverClass._of(self.field, dict(coeffs), const) for coeffs, const in sorted(self.fibers)]

    def to_json(self, list_forms: bool = False) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__ if name not in ("field", "fibers")}
        out["all_ok"] = self.all_ok
        if list_forms:
            out["normal_forms"] = [c.to_json() for c in self.classes]
            out["fiber_size_per_form"] = list(self.fiber_sizes.values())
        return out


def enumerate_covers(q: int, max_exp: int, guard: int = MAX_CENSUS_INPUTS) -> CensusReport:
    """Reduce every Laurent polynomial supported on t^-1, ..., t^-max_exp
    over F_q and tabulate normal forms, jump counts and reduction fibers.

    The report records, for each jump j <= max_exp, the number of distinct
    normal forms against the stratum formula, and checks that every
    reduction fiber has exactly q^floor(max_exp/p) elements.  guard bounds
    the inputs, and can lower MAX_CENSUS_INPUTS but not raise it;
    MAX_CENSUS_CLASSES bounds the classes the report keeps.

    The inputs are walked as an odometer of digits, the digit at t^-2
    turning fastest, and each step settles again only the levels from the
    highest changed digit down to t^-2.  This is the reduction of
    _reduce_codes, level by level: level i reads the carry from level p*i
    and sets v = c + carry.  When p divides i and v != 0, the witness
    r = root(v) carries to level i/p, and the witness identity of
    witnesses_account_for for that coefficient, v - frob(r) = 0, is checked there
    with Frobenius, not the root.  Otherwise a nonzero v puts (i, v) on the
    class key.  Level i depends only on the digits at t^-max_exp ... t^-i,
    so one settled level serves every input with that prefix, and each
    input is reduced and checked on its own path: its witness check is the
    conjunction of the checks of the witness levels on that path.  Level 1
    makes no witness: each prefix sweeps its digit c at t^-1 over the q
    codes and counts every input under v = c + carry in a row of q counts
    kept per key of levels 2 and up, and a nonzero count at v != 0 becomes
    the class key with (1, v) in front.
    """
    p, e = require_prime_power(q)
    _require_int(max_exp, "max_exp")
    _require_int(guard, "guard")
    guard = min(guard, MAX_CENSUS_INPUTS)
    if max_exp < 0:
        raise PreconditionError(f"max_exp {max_exp} must be non-negative")
    # q >= 2, so max_exp >= guard.bit_length() already means q^max_exp > guard
    if max_exp >= guard.bit_length() or q ** max_exp > guard:
        raise TooLarge(f"{q}^{max_exp} exceeds the enumeration guard {guard}")
    classes = q ** (max_exp - max_exp // p)
    if classes > MAX_CENSUS_CLASSES:
        raise TooLarge(f"the census would keep {q}^{max_exp - max_exp // p} = {classes} classes, "
                       f"above the class guard {MAX_CENSUS_CLASSES}")
    F = GF(p, e)
    add, frob, root, trace = F.add, F.frob, F.root, F.trace
    # per level i in 1..max_exp: its digit, the witness root carried in from
    # level p*i (0 for none), and the key pairs (index, code) of levels i and
    # up; the levels above max_exp, at least level 2, stay empty
    digit = [0] * (max_exp + 3)
    carry = [0] * (max_exp + 3)
    pairs = [()] * (max_exp + 3)
    codes = range(q if max_exp else 1)  # for max_exp = 0 the zero polynomial alone
    rows = defaultdict(lambda: [0] * q)  # key pairs of levels 2 and up -> count per code v at level 1
    witnesses_ok = True
    top = max_exp
    while True:
        for i in range(top, 1, -1):
            c, r = digit[i], carry[i]
            v = add(c, r) if r else c
            if i % p == 0:
                if v:
                    r = root(v)
                    witnesses_ok &= frob(r) == v
                    carry[i // p] = r
                else:
                    carry[i // p] = 0
                pairs[i] = pairs[i + 1]
            else:
                pairs[i] = ((i, v),) + pairs[i + 1] if v else pairs[i + 1]
        row = rows[pairs[2]]
        r = carry[1]
        for c in codes:
            row[add(c, r) if r else c] += 1
        top = 2
        while top <= max_exp and digit[top] == q - 1:
            digit[top] = 0
            top += 1
        if top > max_exp:
            break
        digit[top] += 1
    const = trace(0)  # no input has a constant term
    fibers = {(((1, v),) + rest if v else rest, const): n
              for rest, row in rows.items() for v, n in enumerate(row) if n}
    hist = Counter(coeffs[-1][0] if coeffs else 0 for coeffs, _ in fibers)  # pairs ascend: the last is the jump
    expected = {j: count_rep_covers(q, j) for j in range(max_exp + 1) if j == 0 or j % p}
    jump_rows = [[j, hist[j], n, hist[j] == n] for j, n in expected.items()]
    expected_fiber = q ** (max_exp // p)
    return CensusReport(
        p=p,
        q=q,
        max_exp=max_exp,
        total_inputs=q ** max_exp,
        class_count=len(fibers),
        expected_class_count=classes,
        jump_histogram=jump_rows,
        expected_fiber_size=expected_fiber,
        fibers_uniform=set(fibers.values()) == {expected_fiber},
        witnesses_ok=witnesses_ok,
        field=F,
        fibers=fibers,
    )
