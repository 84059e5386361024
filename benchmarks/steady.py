"""Steadiness check: do two sets of runs of the same code agree?

    python3 benchmarks/steady.py

Runs `run.py --trace 0` RUNS times per set for every workload of
BENCHMARK.json, with a different seed each time (set 1 takes seeds 1..RUNS,
set 2 the next RUNS), and reports per workload and end-to-end metric:

* each set's median and its spread, the distance between the first and third
  quartile of `statistics.quantiles(values, n=4)` as a share of the median;
  the spread must stay within the metric's bound, and is flagged when above a
  third of it;
* whether the two sets' medians differ by more than the bound, in either
  direction.

Exits 1 if any check fails, or any run fails or reports a failed op.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    ok = True
    values = {}  # (set, workload) -> metric -> [values]
    for s in range(SETS):
        for workload in workloads:
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"]:
                    print(f"FAIL {workload} seed {seed}: {result['failed']} failed ops")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault((s, workload), {}).setdefault(name, []).append(metric["value"])
                summary = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                print(f"# set {s + 1} {workload} seed {seed}: {summary}", file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':12} {'median1':>11} {'spread1':>8} "
          f"{'median2':>11} {'spread2':>8} {'change':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = values[(0, workload)][name], values[(1, workload)][name]
            spreads = [spread(first), spread(second)]
            change = (statistics.median(second) - statistics.median(first)) / statistics.median(first)
            failures = []
            if max(spreads) > bound:
                failures.append("SPREAD>BOUND")
            if abs(change) > bound:
                failures.append("MEDIANS-DISAGREE")
            notes = failures or (["spread>bound/3"] if max(spreads) > bound / 3 else [])
            ok = ok and not failures
            print(f"{workload:14} {name:12} {statistics.median(first):11.5g} {spreads[0]:8.4f} "
                  f"{statistics.median(second):11.5g} {spreads[1]:8.4f} {change:7.4f} {bound:6.3f}  "
                  f"{' '.join(notes) or 'ok'}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
