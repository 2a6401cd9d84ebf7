"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench

They check that every metric BENCHMARK.json names is printed with its unit,
that the output gate counts a tampered digest and a wrong exit code as
failures, and that the command refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# one cheap frozen call of each kind, plus the smallest census
TINY = [
    workloads.census_call(9, 4),
    workloads.reduce_pool()[1][0],
    workloads.invariant_call(3, (3, 3)),
    workloads.pointcount_call(5, (5,), 25),
    workloads.invariant_call(5, (2,)),  # below the threshold: exit 2
    ("verify", "reflection", "--p", "3", "--d", "2"),
]


@pytest.fixture(scope="module")
def program():
    return run.Program(ROOT)


def gate_for(program, expected=None):
    return run.Gate(expected or run.load_expected(), program.schema_validator())


def test_every_pooled_call_is_frozen():
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        assert all(run.key(argv) in expected for argv in workloads.pool(workload))
        assert set(workloads.generate(workload, 7)) <= set(workloads.pool(workload))


def test_end_to_end_metrics_printed_with_units(program):
    gate = gate_for(program)
    passes = run.run_passes(program, TINY, gate, seconds=0)
    metrics = run.end_to_end(passes, [program.setup_seconds()], program.rss_growth_mb(TINY))
    assert gate.failures == []
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == want
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_metrics_printed_with_units_and_digests_match(program):
    gate = gate_for(program)
    metrics = run.per_layer(program, TINY, gate, seconds=0, workload="smoke")
    assert gate.failures == []  # includes the traced-vs-untraced digest check
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == want
    assert metrics["covers.s_per_input.q9_J4"][0] > 0
    assert metrics["gf.field_builds"][0] > 0
    assert metrics["motivic.values_built"][0] > 0
    assert gate.attempted == 2 * len(TINY)


def test_tampered_digest_is_a_failure(program):
    expected = run.load_expected()
    k = run.key(TINY[2])
    expected[k] = (expected[k][0], "0" * 64)
    gate = gate_for(program, expected)
    run.run_pass(program, TINY, gate, validate=True)
    assert gate.attempted == len(TINY)
    assert len(gate.failures) == 1 and k in gate.failures[0]


def test_wrong_exit_code_is_a_failure(program):
    expected = run.load_expected()
    k = run.key(TINY[4])
    expected[k] = (0, expected[k][1])
    gate = gate_for(program, expected)
    run.run_pass(program, TINY, gate, validate=True)
    assert len(gate.failures) == 1 and k in gate.failures[0]


def test_command_fails_on_a_mismatch(program, monkeypatch, capsys):
    expected = run.load_expected()
    k = run.key(TINY[1])
    expected[k] = (2, expected[k][1])
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: TINY)
    code = run.main(["--workload", "census", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == len(TINY)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    outer, inner = tracer._intern("covers", "outer"), tracer._intern("gf", "inner")
    # outer [0, 10] with children [1, 3] and [4, 8]; the second child nests [5, 6]
    tracer.start = array("d", [0.0, 1.0, 4.0, 5.0])
    tracer.end = array("d", [10.0, 3.0, 8.0, 6.0])
    tracer.parent = array("i", [-1, 0, 0, 2])
    tracer.name_id = array("H", [outer, inner, inner, outer])
    calls, self_s, outermost = spans.summarize(tracer, {"covers.outer"})
    assert calls == [2, 2]
    assert self_s[outer] == (10 - 2 - 4) + 1
    assert self_s[inner] == 2 + (4 - 1)
    assert outermost[outer] == 10.0  # the nested [5, 6] is inside the first


def test_growth_exponent_recovers_a_power_law():
    points = [(p, 0.5 * p ** 3) for p in (3, 5, 7, 11, 13)]
    assert spans.growth_exponent(points) == pytest.approx(3.0)


def test_calls_are_scaled_by_nearby_reference_samples():
    out = run.Outcome(("covers",), 0, "", 1.0, started=10.0)
    # three samples within LOCAL_WINDOW_S of the call [10, 11], two far away
    p = run.Pass([out], ref_at=[0.0, 9.85, 9.9, 11.1, 30.0],
                 ref_s=[0.004, 0.002, 0.002, 0.002, 0.004])
    assert p.local_seconds() == pytest.approx([run.REFERENCE_S / 0.002])
    assert p.scale == pytest.approx(run.REFERENCE_S / 0.0028)
    assert run.wall(p) == pytest.approx(p.scale)
