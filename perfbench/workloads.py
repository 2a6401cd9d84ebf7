"""The benchmark's workloads: lists of `wildmckay` argv lists made from a seed.

Every argv a seed can produce is drawn from a finite pool (`pool`), so the
expected exit code and stdout digest of each one can be frozen ahead of
time (see freeze.py).  Seeded draws are stratified, so the cost of a pass
barely depends on the seed.

census         `covers census` over prime and extension fields, deep-narrow
               and shallow-wide, plus ~100 `covers reduce` calls on sparse
               series reaching t^-300 over F_8, F_9 and F_5.  Exercises gf,
               laurent and covers; motivic stays idle.
stringy-sweep  `stringy invariant` over p in {3, 5, 7, 11, 13}: the fixed
               family [p, p] plus seeded types with p <= D <= 2p, seeded
               `stringy pointcount` at q = p^e (e <= 4), and inputs below
               the threshold that must exit 2.  Exercises motivic and
               stringy; gf, laurent and covers stay idle.
battery        `suite` for three seeds drawn from the workload seed,
               `verify v3` for p in {17, ..., 31} and a few
               `verify reflection` calls.  The only workload that reaches
               invariant_rings and acceptance.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("census", "stringy-sweep", "battery")

CENSUS_CASES = ((2, 13), (3, 8), (4, 6), (5, 6), (9, 4))  # (q, J)
REDUCE_FIELDS = ((2, 3), (3, 2), (5, 1))  # (p, e): F_8, F_9, F_5
REDUCE_POOL = 200  # series per field in the frozen pool
REDUCE_PER_FIELD = 34
REDUCE_MIN_EXP = -300

PRIMES = (3, 5, 7, 11, 13)
INVARIANT_STRATA = 16  # seeded invariant calls per prime (fewer if the band is smaller), one per stratum
POINTCOUNT_PER_Q = 3
BELOW_THRESHOLD = 2  # of each kind per pass

SUITE_SEEDS = 24  # suite seeds are drawn from range(SUITE_SEEDS)
SUITE_CALLS = 3
V3_PRIMES = (17, 19, 23, 29, 31)
REFLECTION_POOL = tuple((p, d) for p in (2, 3, 5, 7, 11, 13) for d in (2, 3, 4))
REFLECTION_CALLS = 4

_POOL_SEED = 20120801  # fixes the reduce-series pool; never the workload seed


def _prime_of(q: int) -> int:
    return next(p for p in (2, 3, 5, 7) if q % p == 0)


def census_call(q: int, j: int) -> tuple[str, ...]:
    return ("covers", "census", "--p", str(_prime_of(q)), "--q", str(q), "--max-exp", str(j))


def invariant_call(p: int, dims) -> tuple[str, ...]:
    return ("stringy", "invariant", "--p", str(p), "--dims", ",".join(map(str, dims)))


def pointcount_call(p: int, dims, q: int) -> tuple[str, ...]:
    return ("stringy", "pointcount", "--p", str(p), "--dims", ",".join(map(str, dims)), "--q", str(q))


# -- pools -------------------------------------------------------------------


def _coefficient(rng: random.Random, p: int, e: int) -> str:
    """A random nonzero element of F_{p^e} in the CLI's coefficient syntax."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(e)]
        if any(coeffs):
            break
    if e == 1:
        return str(coeffs[0])
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            mono = "" if i == 0 else ("y" if i == 1 else f"y^{i}")
            terms.append(str(c) if i == 0 else (mono if c == 1 else f"{c}*{mono}"))
    return "+".join(terms)


def _reduce_series(rng: random.Random, p: int, e: int) -> str:
    """Six polar terms m * p^k reaching t^-300 (long witness chains), a
    constant term and a positive tail term."""
    exps: set[int] = set()
    while len(exps) < 6:
        k = rng.randrange(0, 6)
        top = -REDUCE_MIN_EXP // p ** k
        if top < 1:
            continue
        m = rng.randrange(1, top + 1)
        exps.add(-m * p ** k)
    exps |= {0, rng.randrange(1, 5)}
    return ",".join(f"{x}:{_coefficient(rng, p, e)}" for x in sorted(exps))


def reduce_pool() -> list[list[tuple[str, ...]]]:
    """REDUCE_POOL `covers reduce` calls for each field of REDUCE_FIELDS."""
    rng = random.Random(_POOL_SEED)
    return [
        [("covers", "reduce", "--p", str(p), "--q", str(p ** e), f"--series={_reduce_series(rng, p, e)}")
         for _ in range(REDUCE_POOL)]
        for p, e in REDUCE_FIELDS
    ]


def _shift_slope(dims) -> int:
    return sum((d - 1) * d // 2 for d in dims)


def _rep_types(p: int):
    """Representation types of at most three blocks, not all of size 1."""
    for length in range(1, 4):
        for dims in itertools.combinations_with_replacement(range(1, p + 1), length):
            if any(d > 1 for d in dims):
                yield dims


def band_types(p: int) -> list[tuple[int, ...]]:
    """Types with p <= D <= 2p, sorted by (D, dims)."""
    return sorted((d for d in _rep_types(p) if p <= _shift_slope(d) <= 2 * p),
                  key=lambda d: (_shift_slope(d), d))


def below_threshold_types(p: int) -> list[tuple[int, ...]]:
    return [d for d in _rep_types(p) if _shift_slope(d) < p]


def _mismatched_q(p: int) -> int:
    """A prime power that is not a power of p."""
    return 4 if p != 2 else 9


def _strata(items: list, k: int) -> list[list]:
    """Split a sorted list into k nearly equal consecutive slices."""
    n = len(items)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


def pool(workload: str) -> list[tuple[str, ...]]:
    """Every argv the workload can generate, for any seed."""
    if workload == "census":
        calls = [census_call(q, j) for q, j in CENSUS_CASES]
        for series in reduce_pool():
            calls += series
        return calls
    if workload == "stringy-sweep":
        calls = []
        for p in PRIMES:
            calls.append(invariant_call(p, (p, p)))
            for dims in band_types(p):
                calls.append(invariant_call(p, dims))
                calls += [pointcount_call(p, dims, p ** e) for e in range(1, 5)]
            for dims in below_threshold_types(p):
                calls.append(invariant_call(p, dims))
                calls.append(pointcount_call(p, dims, p))
            for dims in band_types(p):
                calls.append(pointcount_call(p, dims, _mismatched_q(p)))
        return calls
    if workload == "battery":
        calls = [("suite", "--seed", str(s)) for s in range(SUITE_SEEDS)]
        calls += [("verify", "v3", "--p", str(p)) for p in V3_PRIMES]
        calls += [("verify", "reflection", "--p", str(p), "--d", str(d)) for p, d in REFLECTION_POOL]
        return calls
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded generation -------------------------------------------------------


def generate(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv lists of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        calls = [census_call(q, j) for q, j in CENSUS_CASES]
        for series in reduce_pool():
            calls += rng.sample(series, REDUCE_PER_FIELD)
        return calls
    if workload == "stringy-sweep":
        calls = [invariant_call(p, (p, p)) for p in PRIMES]
        for p in PRIMES:
            band = band_types(p)
            calls += [invariant_call(p, rng.choice(s)) for s in _strata(band, min(INVARIANT_STRATA, len(band)))]
            for e in range(1, 5):
                calls += [pointcount_call(p, rng.choice(band), p ** e) for _ in range(POINTCOUNT_PER_Q)]
        below = [(p, d) for p in PRIMES for d in below_threshold_types(p)]
        for p, dims in rng.sample(below, BELOW_THRESHOLD):
            calls.append(invariant_call(p, dims))
        for p, dims in rng.sample(below, BELOW_THRESHOLD):
            calls.append(pointcount_call(p, dims, p))
        for _ in range(BELOW_THRESHOLD):
            p = rng.choice(PRIMES)
            calls.append(pointcount_call(p, rng.choice(band_types(p)), _mismatched_q(p)))
        return calls
    if workload == "battery":
        seeds = rng.sample(range(SUITE_SEEDS), SUITE_CALLS)
        calls = [("suite", "--seed", str(s)) for s in seeds]
        calls += [("verify", "v3", "--p", str(p)) for p in V3_PRIMES]
        calls += [("verify", "reflection", "--p", str(p), "--d", str(d))
                  for p, d in rng.sample(REFLECTION_POOL, REFLECTION_CALLS)]
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def inputs_of(argv: tuple[str, ...], report) -> int:
    """Work units behind one call: Laurent inputs for a census, identity
    checks for a suite, and one otherwise (`report` is None when the call
    printed no JSON)."""
    if report is None:
        return 0 if argv[0] == "suite" or argv[:2] == ("covers", "census") else 1
    if argv[:2] == ("covers", "census"):
        return report["total_inputs"]
    if argv[0] == "suite":
        return sum(c["checks"] for c in report["criteria"])
    return 1
