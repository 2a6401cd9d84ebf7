"""The full verification battery behind `wildmckay suite`.

Each criterion is a function returning a CriterionResult; all expected
values are either exact closed forms re-derived here independently or
frozen constants.  The second routes of stringy's closed forms live in
oracles.py, which only the battery imports, so production calls compute
each quantity once.  Randomized portions draw from random.Random(seed),
and the verdicts are properties of the code, not of the seed.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from . import covers, invariant_rings, stringy
from .gf import GF
from .laurent import add, artin_schreier
from .motivic import L, MotivicValue, geometric_sum
from .oracles import _fiber_class_via_strata, _fiber_count_via_census, _lp, _projectivized_via_definition
from .oracles import _stack_pair_via_sectors, _stringy_from_resolution


class CriterionResult:
    __slots__ = ("name", "ok", "checks", "details", "seconds")

    def __init__(self, name: str, ok: bool, checks: int, details: str, seconds: float):
        self.name = name
        self.ok = ok
        self.checks = checks
        self.details = details
        self.seconds = seconds

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.details} ({self.checks} checks, {self.seconds:.2f}s)"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": self.checks,
            "details": self.details,
        }


class _Tally:
    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str):
        self.checks += 1
        if not ok:
            self.failures.append(label)

    def equal(self, got, want, label: str):
        self.checks += 1
        if got != want:
            self.failures.append(f"{label}: got {got}, want {want}")


def _klt_grid(primes, max_len):
    for p in primes:
        for rep in stringy.rep_types_iter(p, max_len):
            if stringy.shift_slope(rep) >= p:
                yield rep


# -- criteria ------------------------------------------------------------


def crit_worked_examples(rng) -> _Tally:
    """Headline invariant values for the worked representation types."""
    t = _Tally()
    t.equal(stringy.stringy_invariant(stringy.RepType(3, [3])), _lp(3) + 2 * _lp(2), "p=3 dims=[3]")
    t.equal(stringy.stringy_invariant(stringy.RepType(2, [2, 2])), _lp(4) + _lp(3), "p=2 dims=[2,2]")
    for p in (2, 3, 5):
        want = _lp(2 * p)
        for s in range(1, p):
            want = want + _lp(p + s)
        t.equal(stringy.stringy_invariant(stringy.RepType(p, [2] * p)), want, f"p={p} dims=[2]^p")
    for p, l in ((3, 1), (3, 2), (5, 1)):
        rep = stringy.RepType(p, [p] * l)
        # closed form for the full indecomposable summands: shift number
        # at residue s is l(s-1)(p-1)/2
        for s in range(1, p):
            t.equal(stringy.shift_number(rep, s), l * (s - 1) * (p - 1) // 2, f"sht closed form p={p} l={l} s={s}")
        s_sum = MotivicValue.zero()
        for s in range(1, p):
            s_sum = s_sum + _lp(s - l * (s - 1) * (p - 1) // 2)
        denom = MotivicValue.one() - _lp(p - 1 - l * p * (p - 1) // 2)
        want = _lp(l * p) + (L - 1) * _lp(l - 1) * s_sum / denom
        t.equal(stringy.stringy_invariant(rep), want, f"full-summand closed form p={p} l={l}")
    return t


def crit_euler_identity(rng) -> _Tally:
    """Stringy Euler number against the Euler characteristic realization."""
    t = _Tally()
    for rep in _klt_grid((2, 3, 5), 3):
        p, D = rep.p, stringy.shift_slope(rep)
        closed = 1 + Fraction(p - 1, D - p + 1)
        e = stringy.stringy_euler(rep)
        t.equal(e, closed, f"e_st closed form {rep}")
        t.equal(stringy.stringy_invariant(rep).euler_characteristic(), closed, f"euler realization {rep}")
    return t


def crit_duality(rng) -> _Tally:
    """Poincare duality of the projectivized invariant, plus the agreement
    of its closed form with the route through its definition."""
    t = _Tally()
    for rep in _klt_grid((2, 3, 5), 3):
        w = stringy.projectivized_invariant(rep)
        t.equal((w.dual(rep.dim), w), (w, _projectivized_via_definition(rep)), f"duality {rep}")
    return t


CENSUS_CASES = ((2, 2, 8), (2, 4, 4), (3, 3, 5))


@functools.cache
def _census(q: int, max_exp: int) -> covers.CensusReport:
    """The census at (q, max_exp), enumerated once for the three criteria
    that read it: point-count, cover-census and jump-oracle, in that order."""
    return covers.enumerate_covers(q, max_exp)


def crit_point_count(rng) -> _Tally:
    """Weighted extension counts against point counts of the stratum
    integral, which must also equal the closed-form fiber class, and, for
    each q the battery has a census over, against the count read off it."""
    t = _Tally()
    reports = {q: _census(q, max_exp) for _, q, max_exp in CENSUS_CASES}
    for rep in _klt_grid((2, 3), 3):
        integral = _fiber_class_via_strata(rep)
        closed = stringy.origin_fiber_class(rep)
        for e in (1, 2, 3):
            q = rep.p ** e
            direct = stringy.origin_fiber_point_count(rep, q)
            got, want = (direct, closed), (integral.point_count(q), integral)
            if q in reports:
                got, want = got + (direct,), want + (_fiber_count_via_census(rep, reports[q]),)
            t.equal(got, want, f"point count {rep} q={q}")
    for e in (1, 2, 3):
        q = 2 ** e
        t.equal(
            stringy.origin_fiber_point_count(stringy.RepType(2, [2, 2]), q),
            Fraction(q + 1),
            f"q+1 fiber count q={q}",
        )
    return t


def crit_census(rng) -> _Tally:
    """Brute-force reduction census against the stratum formulas."""
    t = _Tally()
    for p, q, max_exp in CENSUS_CASES:
        rep_report = _census(q, max_exp)
        t.equal(rep_report.class_count, q ** (max_exp - max_exp // p), f"class count q={q} J={max_exp}")
        t.check(rep_report.fibers_uniform, f"uniform fibers q={q} J={max_exp}")
        t.check(rep_report.witnesses_ok, f"witness soundness q={q} J={max_exp}")
        for j, got, expected, ok in rep_report.jump_histogram:
            t.check(ok, f"jump {j} count q={q} J={max_exp}: got {got}, want {expected}")
    return t


def crit_jump_oracle(rng) -> _Tally:
    """Uniformizer-based valuation oracle on every ramified census class,
    fed the class's lift plus w(t^-j): its reduction must cancel a t^(-pj)
    pole, so a wrong witness or jump shows in the norms."""
    t = _Tally()
    for p, q, max_exp in CENSUS_CASES:
        report = _census(q, max_exp)
        for cls in report.classes:
            if cls.jump == 0:
                continue
            F = cls.field
            f = add(F, cls.lift(), artin_schreier(F, {-cls.jump: 1}))
            t.check(covers.verify_jump(F, f), f"verify_jump q={q} {cls!r}")
    # the census's last reader in CRITERIA: the criteria after it run without it
    _census.cache_clear()
    return t


def crit_invariant_rings(rng) -> _Tally:
    """Hypersurface equations and the reflection Jacobian."""
    t = _Tally()
    for p in (3, 5, 7, 11):
        t.check(invariant_rings.verify_dim3_relation(p)["ok"], f"dim-3 relation p={p}")
    # at p = 3 the equation specializes to -X^3 Z + W^3 - Y^2 + X^2 W^2
    names = ("X", "Y", "Z", "W")
    X, Y, Z, W = invariant_rings.MultiPoly.gens(3, names)
    t.equal(invariant_rings.dim3_relation(3), -(X ** 3) * Z + W ** 3 - Y * Y + X * X * W * W, "p=3 specialization")
    rep22 = invariant_rings.verify_dim22_relation()
    t.check(rep22["ok"], "dim-2+2 relation")
    t.check(rep22["invariance_ok"], "dim-2+2 invariance")
    for p, d in ((2, 2), (3, 2), (5, 4)):
        rj = invariant_rings.reflection_jacobian_check(p, d)
        t.check(rj["invariance_ok"] and rj["det_ok"], f"reflection Jacobian p={p} d={d}")
    return t


def crit_reflection_pair(rng) -> _Tally:
    """Smooth-model vs stack-model pair invariants, plus the agreement of
    the stack's closed form with its sector sum and of the smooth pair's
    with the resolution sum over its snc data: the plane off the line, and
    the line with discrepancy -a."""
    t = _Tally()
    for a in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
        smooth = stringy.smooth_pair_invariant(2, a)
        resolved = _stringy_from_resolution([(_lp(2) - L, []), (L, [-a])])
        for p in (2, 3, 5):
            stack = stringy.stack_pair_invariant(p, a + 1 - p)
            sectors = _stack_pair_via_sectors(p, a + 1 - p)
            t.equal((stack, sectors, resolved), (smooth, smooth, smooth), f"pair identity p={p} a={a}")
    return t


def crit_property_suites(rng) -> _Tally:
    """Seeded randomized identities across the modules."""
    t = _Tally()
    # shift-number decomposition law over random representation types
    for _ in range(50):
        p = rng.choice((2, 3, 5, 7))
        dims = [rng.randint(1, p) for _ in range(rng.randint(1, 4))]
        if all(d == 1 for d in dims):
            dims[0] = rng.randint(2, p)
        rep = stringy.RepType(p, dims)
        D = stringy.shift_slope(rep)
        for n in range(21):
            for s in range(1, p):
                t.check(
                    stringy.shift_number(rep, n * p + s) == D * n + stringy.shift_number(rep, s),
                    f"sht decomposition {rep} n={n} s={s}",
                )
    # stratum-sum consistency of the closed form: L^d + L^l (integral - 1)
    for rep in _klt_grid((2, 3, 5), 2):
        t.equal(
            stringy.stringy_invariant(rep),
            _lp(rep.dim) + _lp(rep.summands) * (_fiber_class_via_strata(rep) - 1),
            f"stratum-sum consistency {rep}",
        )
    # geometric series: (1 - L^e) * sum = c
    for _ in range(25):
        c = _random_motivic(rng)
        e = Fraction(-rng.randint(1, 5), rng.randint(1, 3))
        total = geometric_sum(c, e)
        t.check(
            (MotivicValue.one() - MotivicValue.l_power(e)) * total == c,
            f"geometric identity e={e}",
        )
    # point counting is a ring homomorphism
    for _ in range(25):
        a, b = _random_motivic(rng), _random_motivic(rng)
        q = rng.choice((2, 3, 4, 5, 9))
        try:
            pa, pb = a.point_count(q), b.point_count(q)
            psum, pprod = (a + b).point_count(q), (a * b).point_count(q)
        except ArithmeticError:
            continue
        t.check(psum == pa + pb and pprod == pa * pb, f"point-count homomorphism q={q}")
    # reduction: idempotence and witness accounting
    for p, e in ((2, 1), (2, 2), (3, 1), (5, 1)):
        F = GF(p, e)
        for _ in range(1000):
            coeffs = {}
            for _ in range(rng.randint(0, 6)):
                coeffs[rng.randint(-8, 3)] = rng.choice(range(F.order))
            cls, wits = covers.reduce_with_witnesses(F, coeffs)
            t.check(covers.witnesses_account_for(F, coeffs, cls, wits), f"witnesses p={p} e={e}")
            again = covers.reduce(F, cls.lift())
            t.check(again == cls, f"idempotence p={p} e={e}")
    return t


def _random_motivic(rng) -> MotivicValue:
    scale = rng.choice((1, 1, 2))
    num = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
    den = {rng.randint(-2, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
    if not any(den.values()):
        den = {0: 1}
    if not any(num.values()):
        num = {1: 1}
    return MotivicValue.from_terms(num, den, scale)


CRITERIA = (
    ("worked-examples", crit_worked_examples),
    ("euler-identity", crit_euler_identity),
    ("poincare-duality", crit_duality),
    ("point-count", crit_point_count),
    ("cover-census", crit_census),
    ("jump-oracle", crit_jump_oracle),
    ("invariant-rings", crit_invariant_rings),
    ("reflection-pair", crit_reflection_pair),
    ("property-suites", crit_property_suites),
)


def run_criterion(name: str, seed: int = 0) -> CriterionResult:
    fn = dict(CRITERIA)[name]
    rng = random.Random(seed)
    start = time.perf_counter()
    tally = fn(rng)
    elapsed = time.perf_counter() - start
    if tally.failures:
        details = "; ".join(tally.failures[:3])
        if len(tally.failures) > 3:
            details += f"; ... {len(tally.failures)} failures total"
    else:
        details = "all identities hold"
    return CriterionResult(name, not tally.failures, tally.checks, details, elapsed)


def run_suite(seed: int = 0, only: str | None = None) -> list[CriterionResult]:
    results = []
    for name, _ in CRITERIA:
        if only and only not in name:
            continue
        results.append(run_criterion(name, seed))
    return results
