"""The gotzmann benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload cli_cold|query_warm|count_sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (bench/worker.py), so caches and memory of one cannot leak into
another.  With --trace 0 it prints every end-to-end metric, its times
normalized by the host speed probe (bench/probe.py) and the raw times on a
line of their own; with --trace 1 the per-layer metrics of the outside tracer.
The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_cold", "query_warm", "count_sweep")

# Fresh interpreters set up per run; setup_s is their median.  count_sweep's
# set-up holds a whole warm sweep, so it is timed only twice, to keep all runs
# of the benchmark within its time limit.
SETUP_REPEATS = {"cli_cold": 5, "query_warm": 5, "count_sweep": 2}

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "sweep_s": "s", "peak_rss_mb": "MB"}


def spawn(args, extra=()):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def set_up(args, extra=()):
    """Start a worker and wait until it reports set-up done.

    Returns the process, the set-up time normalized by the worker's probe
    samples, and the raw set-up time (probe time taken out)."""
    start = time.perf_counter()
    proc = spawn(args, extra)
    line = proc.stdout.readline().split(maxsplit=1)
    wall = time.perf_counter() - start
    if not line or line[0] != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: worker failed during set-up (exit {proc.returncode})")
    speed = json.loads(line[1])
    raw = wall - speed["spent_s"]
    return proc, raw * probe.NOMINAL_S / speed["near_s"], raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gotzmann" / "__init__.py").is_file():
        print(f"error: no gotzmann package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            proc, seconds, raw = set_up(args, ["--setup-only"])
            proc.wait(timeout=60)
            setups.append(seconds)
            raw_setups.append(raw)
    proc, seconds, raw = set_up(args)
    setups.append(seconds)
    raw_setups.append(raw)
    try:
        out = proc.stdout.read()
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not out.strip():
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **metrics}
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print(f"workload {args.workload} seed {args.seed}: {result['samples']}")
    if args.trace:
        for group, row in result["top_self_times"].items():
            top = ", ".join(f"{name} {share:.0%}" for name, share in row["top_self"])
            total = ", ".join(f"{name} {share:.0%}" for name, share in row["top_total"])
            print(f"  {group}: {row['ops']} ops, {row['op_s']:.3f} s; "
                  f"self: {top}; total: {total}")
        print(f"  spans written to {result['spans_file']}")
    else:
        print(f"  manifest: {json.dumps(result['manifest'])}")
        raw = {"setup_s": statistics.median(raw_setups), **result["raw"]}
        print(f"  probe median {result['probe_median_s'] * 1e3:.4f} ms (nominal "
              f"{probe.NOMINAL_S * 1e3:g} ms); raw: "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    error_rate = result["failed"] / result["attempted"]
    print(f"  error_rate: {error_rate:.4f} ({result['failed']} of {result['attempted']})")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {UNITS.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace_overhead" else "count"


if __name__ == "__main__":
    sys.exit(main())
