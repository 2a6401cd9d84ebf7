"""Acceptance gate: every criterion of the verification battery, exactly.

Each criterion runs at its stated tolerance (all exact equalities) and
prints one pass/fail line; run with -s to see them all.
"""

import pytest

from wildmckay import acceptance
from wildmckay.acceptance import CRITERIA, run_criterion, run_suite

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
