"""Acceptance gate: every criterion of the verification battery, exactly.

Each criterion runs at its stated tolerance (all exact equalities) and
prints one pass/fail line; run with -s to see them all.
"""

import random
import re

import pytest

from wildmckay import acceptance, covers, stringy
from wildmckay.acceptance import CRITERIA, run_criterion, run_suite
from wildmckay.motivic import L

RUNTIME_BOUNDS = {
    "worked-examples": 1.0,
    "euler-identity": 5.0,
    "poincare-duality": 5.0,
    "point-count": 1.0,
    "cover-census": 30.0,
    "jump-oracle": 30.0,
    "invariant-rings": 10.0,
    "reflection-pair": 2.0,
    "property-suites": 60.0,
}


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name):
    result = run_criterion(name, seed=0)
    print(result.line)
    assert result.ok, result.details
    assert result.seconds < RUNTIME_BOUNDS[name]


def test_suite_runs_everything_and_passes():
    results = run_suite(seed=0)
    assert [r.name for r in results] == [name for name, _ in CRITERIA]
    assert all(r.ok for r in results)
    assert sum(r.seconds for r in results) < 60.0


def test_verdicts_are_seed_independent():
    a = [r.ok for r in run_suite(seed=0)]
    b = [r.ok for r in run_suite(seed=12345)]
    assert a == b


@pytest.mark.parametrize(
    "name,helper",
    [
        ("poincare-duality", "_projectivized_via_definition"),
        ("point-count", "_fiber_class_via_strata"),
        ("point-count", "_fiber_count_via_census"),
        ("reflection-pair", "_stack_pair_via_sectors"),
        ("reflection-pair", "_stringy_from_resolution"),
    ],
)
def test_wrong_second_route_fails_the_criterion(monkeypatch, name, helper):
    checks = run_criterion(name).checks
    route = getattr(acceptance, helper)
    monkeypatch.setattr(acceptance, helper, lambda *args: route(*args) + 1)
    result = run_criterion(name)
    assert not result.ok
    assert result.checks == checks


def test_census_route_alone_catches_a_stratum_weight_mutation(monkeypatch):
    # raising the stratum exponent s - 1 - sht(s) by one scales every
    # twisted stratum's term by L, so each closed form becomes 1 + L (x - 1)
    # (1 + q (x - 1) at L = q); the closed forms and the stratum integral
    # then agree with one another, and only the census's own jump counts and
    # the known value q + 1 at dims (2, 2) disagree
    count, fiber_class = stringy.origin_fiber_point_count, stringy.origin_fiber_class
    strata = acceptance._fiber_class_via_strata
    monkeypatch.setattr(stringy, "origin_fiber_point_count", lambda rep, q: 1 + q * (count(rep, q) - 1))
    monkeypatch.setattr(stringy, "origin_fiber_class", lambda rep: 1 + L * (fiber_class(rep) - 1))
    monkeypatch.setattr(acceptance, "_fiber_class_via_strata", lambda rep: 1 + L * (strata(rep) - 1))
    assert not run_criterion("point-count").ok
    failures = acceptance.crit_point_count(random.Random(0)).failures
    census_qs = {q for _, q, _ in acceptance.CENSUS_CASES}
    named = {int(re.search(r" q=(\d+):", label).group(1)) for label in failures if label.startswith("point count")}
    assert named == census_qs == {2, 3, 4}
    assert [label for label in failures if not label.startswith("point count")] == [
        f"q+1 fiber count q={q}: got {q * q + 1}, want {q + 1}" for q in (2, 4, 8)
    ]


def _drop_witnesses(reduce_codes):
    return lambda F, f: reduce_codes(F, f)[:2] + ([],)


def _raise_jump(reduce_codes):
    def reduce(F, f):
        rep, const, witnesses = reduce_codes(F, f)
        if rep:
            e = min(rep) - 1
            rep[e - (e % F.p == 0)] = 1
        return rep, const, witnesses

    return reduce


@pytest.mark.parametrize("mutation", [_drop_witnesses, _raise_jump])
def test_wrong_reduction_fails_the_jump_oracle(monkeypatch, mutation):
    # the oracle reads the cover through norms, so it rejects a reduction
    # that drops its witnesses or reports too large a jump
    monkeypatch.setattr(covers, "_reduce_codes", mutation(covers._reduce_codes))
    result = run_criterion("jump-oracle")
    assert not result.ok
    assert result.checks == 110
