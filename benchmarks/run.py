"""Benchmark of the gradedorbits library and CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` next to this
directory, never from an installed copy, and the run fails with exit code 2
when those sources are missing.

One single-threaded closed loop issues each op after the previous one
returns.  A round runs every op of the workload's pool once (see
workloads.py).  A run repeats rounds until `--seconds` have passed and at
least MIN_ROUNDS rounds are done, so every op is timed several times.

Every time is scaled by the speed probe of probe.py, taken between every two
ops: an op's time is multiplied by NOMINAL_S over the mean of the probes just
before and just after it.  On a shared machine the
same op slows by up to 2x for minutes while other tenants run; unscaled,
the medians of a 30 s run moved by 20-45% from run to run.  The latency
metrics take each op's median over the rounds, so the first (cold) call of
an input never sets them: `op_p50_ms` and `op_p90_ms` are percentiles over
the distinct ops of those medians (at least 100 per pool, so p90 has ten
samples beyond it).  `ops_per_s` is the number of ops timed over the whole
run, cold first round included, divided by their summed time.  Every round
repeats the same inputs, so a cache that outlives a call speeds up every
round after the first; the first round's throughput is printed in a `#` line
to show that.  `setup_s` is the median over SETUP_RUNS fresh interpreters,
started one before each round and the rest after the last one, each timed
from the parent while it starts Python, imports `gradedorbits.cli` and
builds its parser, and scaled by the median of every probe of the run.
Scaling each start by the probes just around it doubled the variation
between samples, since the child may run on the other CPU; unscaled, the
medians followed the machine's slow spells.  `peak_rss_mb` is this process's `ru_maxrss`.  The unscaled throughput
and median are printed in a `#` line.

`--trace 1` runs each round twice, untraced and then with the layer wrappers
of layertrace.py, and prints the per-layer metrics: counts of the first
traced round, median (probe-scaled) self times over the traced rounds, the
tracing overhead and the failed share of ops.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are `#` comments
carrying the run metadata, a summary and (traced) the span tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "gradedorbits"
SCRATCH = ROOT / ".bench_tmp"

WORKLOADS = ("bijection", "count-tables", "oracle-sweep")
MIN_ROUNDS = 3
HARD_STOP_S = 140.0  # no new op starts after this, whatever --seconds says
SETUP_RUNS = 21
SETUP_SNIPPET = "import gradedorbits.cli as c; c.build_parser()"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_setup_import() -> None:
    """Fail unless a fresh interpreter imports the package from SRC; this
    also writes the bytecode cache before any timed start-up."""
    probe = "import gradedorbits.cli; print(gradedorbits.cli.__file__)"
    found = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(found).resolve().parent != PACKAGE_DIR.resolve():
        raise RuntimeError(f"child imported gradedorbits from {found}")


def time_setup() -> float:
    """Wall time of one fresh interpreter importing the CLI and building
    its parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - start


def run_op(op, out_path: Path) -> tuple[float, bool]:
    """Time one op, then check its output; any exception is a failed op."""
    if op.writes_output:
        out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        result = op.run(out_path)
    except (Exception, SystemExit):  # cli.main exits on an argv it rejects
        elapsed = time.perf_counter() - start
        print(f"# op raised: {op}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok = op.check(result, out_path)
    except Exception:
        print(f"# output check raised: {op}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"# wrong output: {op}", file=sys.stderr)
    return elapsed, ok


class Tally:
    """Every op's latency in each round, scaled by the speed probe."""

    def __init__(self):
        self.times = defaultdict(list)  # op -> scaled latency of each round
        self.raw: list[float] = []  # unscaled latencies, for the summary
        self.probes: list[float] = []  # probe times of the latest round
        self.attempted = 0
        self.failed = 0

    def run_round(self, ops, out_path: Path, deadline: float, on_op=None) -> float | None:
        """Run ops in order with a probe before the first and after each one;
        return the scaled time spent inside them, or None when the deadline
        cut the round short."""
        self.probes = [probe.measure()]
        busy = 0.0
        for op in ops:
            if time.perf_counter() >= deadline:
                return None
            elapsed, ok = run_op(op, out_path)
            self.probes.append(probe.measure())
            scaled = elapsed * probe.NOMINAL_S / ((self.probes[-2] + self.probes[-1]) / 2)
            self.times[op].append(scaled)
            self.raw.append(elapsed)
            busy += scaled
            self.attempted += 1
            self.failed += not ok
            if on_op is not None:
                on_op(op)
        return busy

    def round_scale(self) -> float:
        return probe.NOMINAL_S / statistics.median(self.probes)


def untraced_run(workloads, args, out_path: Path) -> tuple[Tally, dict]:
    check_setup_import()
    ops = workloads.pool(args.workload, args.seed)
    tally = Tally()
    setup = []
    started = time.perf_counter()
    deadline = started + HARD_STOP_S
    index = 0
    first_round_s = None
    probes = []
    while True:
        if len(setup) < SETUP_RUNS:
            setup.append(time_setup())
        busy = tally.run_round(workloads.round_order(ops, args.workload, args.seed, index),
                               out_path, deadline)
        probes += tally.probes
        if index == 0:
            first_round_s = busy
        index += 1
        elapsed = time.perf_counter() - started
        if busy is None or elapsed >= HARD_STOP_S or (
            elapsed >= args.seconds and index >= MIN_ROUNDS
        ):
            break
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup())
    typical = [statistics.median(times) for times in tally.times.values()]
    every = [t for times in tally.times.values() for t in times]
    metrics = {
        "ops_per_s": (len(every) / sum(every), "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup) * probe.NOMINAL_S / statistics.median(probes), "s"),
    }
    print(f"# rounds={index} distinct_ops={len(typical)} timed_ops={len(every)} "
          f"rounds_per_op>={min(map(len, tally.times.values()))}")
    if first_round_s:
        print(f"# first (cold) round: ops_per_s={len(ops) / first_round_s:.4g}")
    print(f"# unscaled: ops_per_s={len(tally.raw) / sum(tally.raw):.4g} "
          f"op_p50_ms={statistics.median(tally.raw) * 1e3:.4g}; "
          f"last round's probe median={statistics.median(tally.probes) * 1e3:.4g} ms "
          f"(nominal {probe.NOMINAL_S * 1e3:g} ms)")
    return tally, metrics


def traced_run(workloads, layertrace, args, out_path: Path) -> tuple[Tally, dict]:
    ops = workloads.pool(args.workload, args.seed)
    tracer = layertrace.LayerTracer()
    tally = Tally()
    first = spans = None
    self_times = []
    overheads = []
    started = time.perf_counter()
    deadline = started + HARD_STOP_S
    index = 0

    def count_bytes(op):
        if op.writes_output and out_path.exists():
            tracer.counts["cli.bytes_out"] += out_path.stat().st_size

    while True:
        ordered = workloads.round_order(ops, args.workload, args.seed, index)
        plain = tally.run_round(ordered, out_path, deadline)
        tracer.reset()
        tracer.install()
        try:
            traced = tally.run_round(ordered, out_path, deadline, on_op=count_bytes)
        finally:
            tracer.uninstall()
        index += 1
        if traced is None:
            break
        snapshot = tracer.metrics()
        if first is None:
            first, spans = snapshot, tracer.span_tree()
        scale = tally.round_scale()
        self_times.append({k: v * scale for k, v in snapshot.items() if k.endswith(".self_s")})
        overheads.append(traced / plain - 1)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    if first is None:
        raise RuntimeError("no traced round finished before the hard stop")
    units = {"calls": "count", "self_s": "s", "keep_ratio": "ratio",
             "distinct_ratio": "ratio", "bytes_out": "bytes"}
    metrics = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            value = statistics.median(t[name] for t in self_times)
        metrics[name] = (value, units.get(name.split(".", 1)[1], "count"))
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    print(f"# traced rounds={index} distinct_ops={len(ops)}")
    print("# span tree (first traced round) " + json.dumps(spans))
    return tally, metrics


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    lines = {
        path.stem: len(path.read_text().splitlines())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: gradedorbits sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gradedorbits

    if Path(gradedorbits.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"error: imported gradedorbits from {gradedorbits.__file__}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    print("# meta " + json.dumps(metadata(args)))
    out_dir = SCRATCH / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics = traced_run(workloads, layertrace, args, out_dir / "op.out")
        else:
            tally, metrics = untraced_run(workloads, args, out_dir / "op.out")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it, or it holds other files
            pass
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# {args.workload} seed={args.seed}: attempted={tally.attempted} "
          f"failed={tally.failed} fail_frac={fail_frac:.4f}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
