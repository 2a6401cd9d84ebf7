"""wildmckay benchmark: one workload, closed loop, single process and thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each call drives `wildmckay.cli.main(argv)`
in-process with stdout captured, after emptying the package's memo caches
so that it costs what a fresh `wildmckay` process would.  Passes over the
seeded call list repeat while another fits in `--seconds`; times are scaled
to a reference speed of the machine (see REFERENCE_S).  Every call's
exit code and stdout SHA-256 must match the frozen table in expected.json,
and every JSON report must validate against the shipped schema; a mismatch
counts as a failed call and the command exits 1.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced passes, then one pass with spans.py's wrappers installed, and
prints the per-layer metrics.  Metric lines are `name value unit`; the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
SPANS_DIR = HERE / "out"
SETUP_SPAWNS_PER_PASS = 4  # spread over the run, like the passes
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import wildmckay.cli\n"
    "wildmckay.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
MEMORY_CODE = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; run.memory_child()"
# Times are reported in seconds of a machine on which `reference()` takes
# REFERENCE_S, because a shared machine slows down for minutes at a time, by
# up to 2x, and the reference loop slows with it.  Between calls the loop is
# timed once for every REFERENCE_EVERY seconds the calls took, so that its
# samples spread over the pass's time.  A pass's total is scaled by
# REFERENCE_S over the mean of all its samples; a single call's time by the
# samples taken within LOCAL_WINDOW_S of it, which follow the machine's state
# around that call.
REFERENCE_S = 0.001
REFERENCE_EVERY = 0.02
LOCAL_WINDOW_S = 0.2


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of the kind wildmckay runs:
    small-integer arithmetic, dict updates and Fraction objects."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 450):
        table[i % 97] = table.get(i % 97, 0) + i * i
        acc += Fraction(i % 7, i % 5 + 1)
    return time.perf_counter() - t0


def key(argv) -> str:
    return " ".join(argv)


def load_expected() -> dict[str, tuple[int, str]]:
    with open(EXPECTED_PATH) as fh:
        return {k: tuple(v) for k, v in json.load(fh).items()}


@dataclass
class Outcome:
    argv: tuple[str, ...]
    code: int
    stdout: str
    seconds: float
    started: float  # time.perf_counter() at the start of the call

    @functools.cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class Gate:
    """Checks outcomes against the frozen table and the schema."""

    expected: dict[str, tuple[int, str]]
    validator: object
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, out: Outcome, validate: bool) -> None:
        self.attempted += 1
        want = self.expected.get(key(out.argv))
        if want is None:
            self.failures.append(f"no frozen expectation: {key(out.argv)}")
        elif (out.code, out.digest) != want:
            self.failures.append(
                f"exit {out.code} sha256 {out.digest[:12]} != exit {want[0]} sha256 {want[1][:12]}: {key(out.argv)}")
        elif validate and out.stdout:
            errors = list(self.validator.iter_errors(json.loads(out.stdout)))
            if errors:
                self.failures.append(f"schema: {errors[0].message[:120]}: {key(out.argv)}")


class Program:
    """The wildmckay CLI, imported from `<root>/src`, driven in-process."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "wildmckay" / "cli.py").is_file():
            raise FileNotFoundError(f"no wildmckay sources under {src}")
        self.src = src
        sys.path.insert(0, str(src))
        import wildmckay.cli

        self.cli = wildmckay.cli
        # the package's memo caches (functools.cache, lru_cache), kept as the
        # original objects so clearing still works while tracing wraps them
        self.caches = list({
            id(obj): obj
            for name, mod in list(sys.modules.items())
            if name.startswith("wildmckay")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear")
        }.values())

    def call(self, argv) -> Outcome:
        for cache in self.caches:
            cache.cache_clear()
        # Start each call with the collector's counters at zero and the
        # benchmark's own live objects out of its reach, as in a fresh
        # process; otherwise a collection triggered by earlier calls lands
        # on whichever call happens to follow them.
        gc.collect()
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - t0
        return Outcome(tuple(argv), code, out.getvalue(), seconds, t0)

    def schema_validator(self):
        import jsonschema

        with open(self.cli.schema_path()) as fh:
            schema = json.load(fh)
        return jsonschema.Draft202012Validator(schema)

    def setup_seconds(self) -> float:
        """Time for a fresh interpreter to import the CLI and build its parser."""
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    def rss_growth_mb(self, calls) -> float:
        """Peak resident memory that importing wildmckay and running `calls`
        add to a fresh interpreter (see memory_child)."""
        done = subprocess.run(
            [sys.executable, "-c", MEMORY_CODE],
            input=json.dumps({"root": str(self.src.parent), "calls": calls}),
            capture_output=True, text=True, timeout=150, check=True,
        )
        return float(done.stdout)


def peak_rss_kb() -> int:
    """The process's peak resident set (VmHWM).  ru_maxrss will not do: in a
    child started by fork and exec it keeps the peak of the pre-exec copy of
    the parent."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def memory_child() -> None:
    """Import wildmckay and run the calls read from stdin, untimed, keeping
    no output; print in MB how far that raises the peak resident memory
    above the interpreter's own, with the benchmark's modules loaded."""
    job = json.load(sys.stdin)
    gc.collect()
    base = peak_rss_kb()
    program = Program(Path(job["root"]))
    for argv in job["calls"]:
        program.call(argv)
    print((peak_rss_kb() - base) / 1024)


@dataclass
class Pass:
    outcomes: list[Outcome]
    ref_at: list[float]  # start times of the reference samples
    ref_s: list[float]  # their durations

    @property
    def scale(self) -> float:
        """REFERENCE_S over the mean reference time during the pass.  The
        machine flips between a fast and a slow state many times a second,
        and a call slows by the share of its time spent in the slow state:
        the mean reference time follows that share, the median would not."""
        return REFERENCE_S / statistics.fmean(self.ref_s)

    def local_seconds(self) -> list[float]:
        """Each call's time, scaled by the reference samples taken within
        LOCAL_WINDOW_S of it, or by up to 3 on each side if that is fewer
        than 3."""
        scaled = []
        for out in self.outcomes:
            lo = bisect.bisect_left(self.ref_at, out.started - LOCAL_WINDOW_S)
            hi = bisect.bisect_right(self.ref_at, out.started + out.seconds + LOCAL_WINDOW_S)
            if hi - lo < 3:
                mid = bisect.bisect_left(self.ref_at, out.started)
                lo, hi = max(0, mid - 3), min(len(self.ref_at), mid + 3)
            scaled.append(out.seconds * REFERENCE_S / statistics.fmean(self.ref_s[lo:hi]))
        return scaled


def run_pass(program: Program, calls, gate: Gate, validate: bool, span=None) -> Pass:
    """One pass over `calls`, with reference samples between the calls;
    `span(name)` wraps each call when tracing."""
    outcomes, ref_at, ref_s = [], [], []
    owed = REFERENCE_EVERY
    for argv in calls:
        while owed >= REFERENCE_EVERY:
            ref_at.append(time.perf_counter())
            ref_s.append(reference())
            owed -= REFERENCE_EVERY
        with span("call") if span else contextlib.nullcontext():
            outcomes.append(program.call(argv))
        owed += outcomes[-1].seconds
    for out in outcomes:
        gate.check(out, validate)
    return Pass(outcomes, ref_at, ref_s)


def run_passes(program: Program, calls, gate: Gate, seconds: float, between=None) -> list[Pass]:
    """Repeat passes while another one fits in `seconds` (at least one pass),
    calling `between(pass)` after each pass."""
    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - t0 + longest <= seconds:
        start = time.perf_counter()
        passes.append(run_pass(program, calls, gate, validate=not passes))
        if between is not None:
            between(passes[-1])
        longest = max(longest, time.perf_counter() - start)
    return passes


def latencies(passes: list[Pass]) -> list[float]:
    """Each call's locally scaled time, the median over the passes."""
    return [statistics.median(column) for column in zip(*(p.local_seconds() for p in passes))]


def wall(p: Pass) -> float:
    return sum(o.seconds for o in p.outcomes) * p.scale


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _reports(outcomes):
    return [json.loads(o.stdout) if o.code == 0 and o.stdout else None for o in outcomes]


def end_to_end(passes: list[Pass], setup_times, rss_mb: float) -> dict[str, tuple[float, str]]:
    per_call = latencies(passes)
    wall_s = statistics.median(wall(p) for p in passes)
    first = passes[0].outcomes
    inputs = sum(workloads.inputs_of(o.argv, r) for o, r in zip(first, _reports(first)))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall_s, "s"),
        "call_p50_ms": (statistics.median(per_call) * 1e3, "ms"),
        "call_p90_ms": (_quantile(per_call, 0.9) * 1e3, "ms"),
        "inputs_per_s": (inputs / wall_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _family_latencies(passes: list[Pass]) -> list[tuple[int, float]]:
    """Latency of `stringy invariant --dims p,p` for each p in the pass."""
    per_call = latencies(passes)
    points = []
    for i, argv in enumerate(o.argv for o in passes[0].outcomes):
        if argv[:2] == ("stringy", "invariant"):
            p = int(argv[3])
            if argv[5] == f"{p},{p}":
                points.append((p, per_call[i]))
    return points


def per_layer(program: Program, calls, gate: Gate, seconds: float, workload: str):
    """Untraced passes for a third of the budget, then one traced pass."""
    plain = run_passes(program, calls, gate, seconds / 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(program, calls, gate, validate=False, span=tracer.span)
    finally:
        tracer.uninstall()
    for out, ref in zip(traced.outcomes, plain[0].outcomes):
        if out.digest != ref.digest:
            gate.failures.append(f"stdout differs with tracing on: {key(out.argv)}")
    criteria = [(name, fn.__name__) for name, fn in program.cli.acceptance.CRITERIA]
    cases = workloads.CENSUS_CASES
    metrics = spans.layer_metrics(tracer, cases, criteria)
    family = _family_latencies(plain)
    metrics["stringy.invariant_growth_exp"] = (
        spans.growth_exponent(family) if len(family) > 1 else 0.0, "1")
    metrics["cli.stdout_bytes"] = (sum(len(o.stdout.encode()) for o in traced.outcomes), "bytes")
    plain_wall = statistics.median(wall(p) for p in plain)
    metrics["trace.overhead_ratio"] = (wall(traced) / plain_wall, "ratio")
    tracer.write(SPANS_DIR / f"{workload}.spans")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = Program(Path.cwd())
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}; run from the root of a wildmckay checkout", file=sys.stderr)
        return 2
    calls = workloads.generate(args.workload, args.seed)
    gate = Gate(load_expected(), program.schema_validator())

    if args.trace:
        metrics = per_layer(program, calls, gate, args.seconds, args.workload)
    else:
        setup_times = []

        def spawn(after: Pass):
            setup_times.extend(program.setup_seconds() * after.scale for _ in range(SETUP_SPAWNS_PER_PASS))

        t0 = time.perf_counter()
        rss_mb = program.rss_growth_mb(calls)
        passes = run_passes(program, calls, gate, args.seconds - (time.perf_counter() - t0), between=spawn)
        metrics = end_to_end(passes, setup_times, rss_mb)
        print(f"reference_s {REFERENCE_S / statistics.median(p.scale for p in passes)} s")
        print(f"unscaled_wall_s {statistics.median(wall(p) / p.scale for p in passes)} s")

    failed = len(gate.failures)
    for line in gate.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} calls_per_pass {len(calls)} calls {gate.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {failed / gate.attempted} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
