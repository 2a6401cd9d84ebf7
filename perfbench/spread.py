"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workloads census,battery --seeds 1-10 \
        --seconds 30 [--trace 1] [--out perfbench/results/NAME.json]

For every workload and metric it prints the median, the quartiles and the
spread (Q3 - Q1) / median over the seeds, with Python's
statistics.quantiles(values, n=4).  Runs are sequential, seeds outermost
and workloads interleaved; each is a fresh `run.py` process.  With --out the per-run results and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # the machine's speed during the run, printed beside the metrics
    result["machine"] = {name: float(value) for name, value, *_ in map(str.split, lines[:-1])
                         if name in ("reference_s", "unscaled_wall_s")}
    return result


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    names = args.workloads.split(",")
    results: dict[str, list[dict]] = {workload: [] for workload in names}
    # seeds outermost, so that a slow spell of the machine hits every workload
    for seed in seeds_of(args.seeds):
        for workload in names:
            started = time.time()
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls")
            results[workload].append({"seed": seed, "started": started, **result})
            print(f"{workload} seed {seed} {time.time() - started:.1f} s {result['machine']}", flush=True)
    for workload in names:
        summary = summarize(results[workload])
        report["workloads"][workload] = {"summary": summary, "runs": results[workload]}
        for name, s in summary.items():
            print(f"{workload:14} {name:34} median {s['median']:.6g} {s['unit']:6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
