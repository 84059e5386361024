"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 benchmarks/smoke.py

Checks in a few seconds that BENCHMARK.json is well formed, that the smallest
ops of every workload run and pass their output checks, that a wrong output
is caught, that the layer tracer reports every per-layer metric and restores
the library afterwards, and that run.py refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    expect(spec["paths"] == ["benchmarks"], "paths")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.POOL_BUILDERS), "workloads match workloads.py")
    for metric in spec["end_to_end"]:
        expect(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    every = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(every) == len(set(every)), "names are unique")
    expect(all(NAME.fullmatch(n) for n in every), "name syntax")
    return spec


def smallest_ops(workload: str, count: int = 2) -> list:
    return sorted(workloads.pool(workload, 0), key=lambda op: op.size)[:count]


def check_ops(out_path: Path) -> None:
    for workload in workloads.POOL_BUILDERS:
        for op in smallest_ops(workload):
            out_path.unlink(missing_ok=True)
            expect(op.check(op.run(out_path), out_path), f"{workload} op {op} passes")
    for workload in workloads.POOL_BUILDERS:
        ops = workloads.pool(workload, 5)
        expect(len(ops) >= 100 and len(set(ops)) == len(ops),
               f"{workload} has at least 100 distinct ops")
        expect(ops == workloads.pool(workload, 5)
               and workloads.round_order(ops, workload, 5, 2)
               == workloads.round_order(ops, workload, 5, 2),
               "a seed gives the same inputs")
    # A report whose counts differ from the reference must fail the check.
    op = smallest_ops("bijection", 1)[0]
    report = op.run(out_path)
    wrong = dataclasses.replace(report, labels=report.labels + 1)
    expect(not op.check(wrong, out_path), "a wrong bijection count is caught")
    # A CLI op whose output file is missing must fail the check.
    op = smallest_ops("oracle-sweep", 1)[0]
    out_path.unlink(missing_ok=True)
    try:
        caught = not op.check(0, out_path)
    except OSError:
        caught = True
    expect(caught, "a missing CLI output is caught")


def check_tracer(spec: dict, out_path: Path) -> None:
    tracer = layertrace.LayerTracer()
    originals = {name: getattr(tracer.modules["sheaves"], name)
                 for name in ("verify_bijection", "stratum_dim_ai")}
    tracer.install()
    try:
        for workload in workloads.POOL_BUILDERS:
            for op in smallest_ops(workload, 1):
                out_path.unlink(missing_ok=True)
                op.run(out_path)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        expect(getattr(tracer.modules["sheaves"], name) is fn, f"sheaves.{name} restored")
    metrics = tracer.metrics()
    reported = set(metrics) | {"trace.overhead_frac", "fail_frac"}
    expect(reported == {m["name"] for m in spec["per_layer"]}, "per-layer metric names")
    expect(metrics["sheaves.calls"] >= 1 and metrics["cli.calls"] >= 2, "spans recorded")
    expect(len(tracer.stack) == 1, "span stack unwound")


def check_refuses_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(BENCH_DIR, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "bijection", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           "run.py fails without the sources")


def main() -> int:
    spec = check_spec()
    scratch = ROOT / ".bench_tmp" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_ops(scratch / "op.out")
        check_tracer(spec, scratch / "op.out")
        check_refuses_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
