"""Run one workload on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload NAME [--seeds 10] [--first-seed 1] [--trace 0]

The spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  Raw results go to
.bench_out/spread-<workload>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [*config["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound {bound}: {'within' if spread <= bound else 'OVER'},"
            f" {'below' if spread < bound / 3 else 'above'} a third of it")
        print(f"{name}: median {median:.6g}, spread {spread:.2%}{verdict}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}-{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
