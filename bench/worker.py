"""Run one benchmark workload in a fresh interpreter and print its result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The worker prints READY once set-up (import, input generation, warm-up) is
done, so the parent can time set-up from spawn to that line; the line carries
the host speed probe's figures for set-up (see probe.py).  It then runs whole
passes over the workload's operation cycle, one operation at a time, until
--seconds have passed, checks every answer right after its operation (outside
the operation's time), and prints one JSON line with the results.  End-to-end
times are normalized by the probe; the raw ones come along.

With --trace 1 every pass runs under the outside tracer, and the early passes
also run untraced just before, to measure the tracing overhead; the per-layer
numbers are per traced pass.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

SAMPLER = probe.Sampler()
if __name__ == "__main__":
    # probe the host from the start of set-up, before the package is imported
    STARTED = time.perf_counter()
    SAMPLER.start()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import gotzmann  # noqa: E402  (its __init__ imports the mathematical modules)
import gotzmann.cli  # noqa: E402,F401
import gotzmann.textio  # noqa: E402,F401

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

core = sys.modules["gotzmann.core"]
lex = sys.modules["gotzmann.lex"]
classify = sys.modules["gotzmann.classify"]
decompose = sys.modules["gotzmann.decompose"]
counting = sys.modules["gotzmann.counting"]
series = sys.modules["gotzmann.series"]


def to_mask(exps) -> int:
    return sum(1 << i for i, e in enumerate(exps) if e)


def gen_masks(ideal) -> list[int]:
    return sorted(to_mask(e) for e in ideal.gens)


class Op:
    """One operation: `run()` does the work that is timed, `check(result)` judges it."""

    __slots__ = ("kind", "n", "run", "check", "meta")

    def __init__(self, kind, n, run, check, meta):
        self.kind, self.n, self.run, self.check, self.meta = kind, n, run, check, meta

    @property
    def group(self) -> str:
        return self.kind if self.n is None else f"{self.kind} n={self.n}"


# ---------------------------------------------------------------------------
# cli_cold

class CliCold:
    """A cycle of gotz invocations, each in a fresh `python -m gotzmann` process."""

    name = "cli_cold"
    # the children do the work, so the probe runs between them, not on a timer
    probe_between = True

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def setup(self):
        """Nothing to warm: every operation starts a fresh process."""

    def pass_ops(self, cycle: int) -> list[Op]:
        return [Op(spec["kind"], spec["n"], self._runner(spec), self._checker(spec), spec)
                for spec in gen.cli_script(self.seed, cycle)]

    def _runner(self, spec):
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "gotzmann", *spec["argv"]]
                done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=150)
                return done.returncode, done.stdout
            return self._run_traced(spec["argv"])
        return run

    def _run_traced(self, argv):
        tr = self.tracer
        path = OUT / f"child-{os.getpid()}-{tr.op_id}.json"
        nid = tr.intern("proc")
        idx = tr.open(nid)
        try:
            done = subprocess.run([sys.executable, str(BENCH / "cli_child.py"), str(path), *argv],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=150)
        finally:
            tr.close(idx, nid)
        if path.exists():
            tr.merge(json.loads(path.read_text()), tr.op_id, idx)
            path.unlink()
        return done.returncode, done.stdout

    def _checker(self, spec):
        command, n = spec["argv"][0], spec["n"]

        def check(result):
            code, out = result
            if command == "check":
                if spec["argv"][2] == "S":
                    # structure theorem: Gotzmann in S exactly when supernova
                    ideal = core.minimalize([core.mask_to_exps(m, n) for m in spec["gens"]],
                                            core.poly_ring(n))
                    if (classify.recognize_supernova(ideal) is not None) != spec["gotzmann_in_S"]:
                        return False
                    want = spec["gotzmann_in_S"]
                else:
                    want = oracle.is_gotzmann_R(spec["gens"], n)
                return code == 0 and out == f"Gotzmann: {'true' if want else 'false'}\n"
            if command == "classify":
                if not spec["gotzmann_in_S"]:
                    return code == 1 and out.startswith("not a supernova")
                stages = oracle.parse_supernova(out)
                return code == 0 and stages is not None and \
                    oracle.supernova_gens(stages) == spec["gens"]
            if command == "lexify":
                gens = oracle.parse_ideal(out)
                return code == 0 and oracle.is_lex_ideal(gens, n) and \
                    oracle.hilbert(gens, n) == oracle.hilbert(spec["gens"], n)
            if command == "dual":
                # the Alexander dual is an involution
                dual = oracle.parse_ideal(out)
                return code == 0 and oracle.alexander_dual(dual, n) == spec["gens"]
            report = json.loads(out)
            want = oracle.compress(spec["basis"], n, spec["d"], spec["var"], spec["qperm"])
            shadow_in = len(oracle.shadow(spec["basis"], n))
            shadow_out = len(oracle.shadow(want, n))
            got = {oracle.parse_monomial(m) for m in report["result"]}
            diag = report["diagnostics"]
            return code == 0 and got == want and diag["shadow_of_input"] == shadow_in and \
                diag["shadow_of_compression"] == shadow_out and \
                diag["growth_equality_holds"] == (shadow_in == shadow_out)
        return check

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# query_warm

def _ideal(item, flavor):
    n = item["n"]
    ring = core.poly_ring(n) if flavor == "S" else core.sqf_ring(n)
    return core.minimalize([core.mask_to_exps(m, n) for m in item["gens"]], ring)


def _space(item):
    return core.space(core.sqf_ring(gen.space_vars(item)), item["d"], item["basis"])


# kind -> (build the library input, the timed call)
WARM_CALLS = {
    "check_S": (lambda it: _ideal(it, "S"), lambda x, it: lex.is_gotzmann_ideal(x)),
    "check_R": (lambda it: _ideal(it, "R"), lambda x, it: lex.is_gotzmann_ideal(x)),
    "classify": (lambda it: _ideal(it, "S"), lambda x, it: classify.recognize_supernova(x)),
    "lexify_R": (lambda it: _ideal(it, "R"), lambda x, it: lex.lexify_in_R(x)),
    "lexify_S": (lambda it: _ideal(it, "S"), lambda x, it: lex.sqf_lexify_in_S(x)),
    "dual": (lambda it: _ideal(it, "R"), lambda x, it: decompose.alexander_dual_ideal(x)),
    "gdual": (lambda it: _ideal(it, "R"), lambda x, it: decompose.is_gdual_ideal(x)),
    "compress": (_space, lambda x, it: decompose.compress(x, it["var"])),
    "growth_equality": (_space, lambda x, it: decompose.growth_equality(x, it["var"])),
    "colon": (_space, lambda x, it: decompose.colon_with_n1(x)),
    "reconstruct": (_space, lambda x, it: decompose.reconstruct(x, it["var"])),
    "lex_some_order": (_space, lambda x, it: lex.is_lex_some_order(x)),
}


class QueryWarm:
    """Library queries in one process: relabelings of a pool warmed up in set-up."""

    name = "query_warm"
    probe_between = False

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.seen: set = set()
        self.base_ok: dict[int, bool] = {}

    def setup(self):
        self.pool = gen.warm_pool(self.seed)
        self.base_result = []
        for item in self.pool:
            build, call = WARM_CALLS[item["kind"]]
            self.base_result.append(call(build(item), item))

    def pass_ops(self, cycle: int) -> list[Op]:
        ops = []
        for query in gen.warm_pass(self.pool, self.seed, cycle, self.seen):
            build, call = WARM_CALLS[query["kind"]]
            x = build(query)
            ops.append(Op(query["kind"], query["n"], (lambda x=x, q=query, c=call: c(x, q)),
                          (lambda r, q=query, x=x: self._check(q, x, r)), query))
        return ops

    def _base_verified(self, index: int) -> bool:
        """Whether the warm-up answer for a pool item passes its independent check."""
        if index not in self.base_ok:
            item, result = self.pool[index], self.base_result[index]
            kind, n = item["kind"], item["n"]
            if kind in ("lexify_R", "lexify_S"):
                gens = gen_masks(result)
                ok = oracle.is_lex_ideal(gens, n) and \
                    oracle.hilbert(gens, n) == oracle.hilbert(item["gens"], n)
            elif kind == "dual":
                ok = oracle.alexander_dual(gen_masks(result), n) == item["gens"]
            elif kind == "check_R":
                ok = result == oracle.is_gotzmann_R(item["gens"], n)
            elif kind == "gdual":
                ok = result == oracle.is_gdual(item["gens"], n)
            else:
                ok = True
            self.base_ok[index] = ok
        return self.base_ok[index]

    def _check(self, query, x, result) -> bool:
        kind, n, base = query["kind"], query["n"], query["base"]
        expect = self.base_result[base]
        if kind == "check_S":
            return result is query["gotzmann_in_S"] and \
                (classify.recognize_supernova(x) is not None) == query["gotzmann_in_S"]
        if kind in ("check_R", "gdual"):
            return result == expect and self._base_verified(base)
        if kind == "classify":
            if not query["gotzmann_in_S"]:
                return result is None
            return result is not None and oracle.supernova_gens(result.stages) == query["gens"]
        if kind in ("lexify_R", "lexify_S"):
            # relabeling keeps the squarefree Hilbert function, hence the lex ideal
            return result.ctx.flavor == kind[-1] and result.gens == expect.gens and \
                self._base_verified(base)
        if kind == "dual":
            want = sorted(gen.relabel(m, query["perm"]) for m in gen_masks(expect))
            return gen_masks(result) == want and self._base_verified(base)
        basis, d = query["basis"], query["d"]
        if kind == "compress":
            return set(result.basis) == oracle.compress(basis, n, d, query["var"])
        if kind == "growth_equality":
            return result.lhs == len(oracle.shadow(basis, n)) and \
                result.rhs == len(oracle.shadow(oracle.compress(basis, n, d, query["var"]), n))
        if kind == "colon":
            return set(result.basis) == oracle.colon(basis, n, d)
        if kind == "reconstruct":
            return result.ctx.n == n and \
                set(result.basis) == oracle.reconstruct(basis, n - 1, query["var"])
        # lex_some_order: non-Gotzmann spaces are lex in no order
        if not query["lex_in_some_order"]:
            return result is None
        return result is not None and oracle.is_lex_segment(basis, n, d, result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# count_sweep

def _osp_images():
    images = []
    for osp in counting.enumerate_osp(7):
        if osp.last_block_big:
            images.append(counting.osp_to_ideal(osp, counting.WITH_LINEAR))
            images.append(counting.osp_to_ideal(osp, counting.WITHOUT_LINEAR))
    return images


def _count_series():
    s = counting.gotzmann_count_series(60)
    return [series.egf_coefficient(s, k) for k in range(61)]


SWEEP_CALLS = {
    "count_table": lambda: counting.count_table(5),
    "enumerate_gotzmann": lambda: counting.enumerate_gotzmann(6),
    "count_up_to_symmetry": lambda: counting.count_up_to_symmetry(6),
    "osp_images": _osp_images,
    "count_series": _count_series,
}


def _all_supernova(ideals) -> bool:
    return all(classify.recognize_supernova(I) is not None for I in ideals)


def _check_step(step: str, result) -> bool:
    if step == "count_table":
        return len(result) == 6 and all(
            row["enumerated"] == row["egf"] == row["brute"] == oracle.GOTZMANN_COUNTS[n]
            and row["full_support"] == row["full_support_egf"] == oracle.full_support_count(n)
            for n, row in enumerate(result))
    if step == "enumerate_gotzmann":
        return len(result) == oracle.GOTZMANN_COUNTS[6] and \
            len({I.gens for I in result}) == len(result) and \
            _all_supernova(result)
    if step == "count_up_to_symmetry":
        # four orbit buckets of 2^(n-2) each
        buckets = dict(result)
        return buckets.pop("total_nonunit") == 64 and list(buckets.values()) == [16] * 4
    if step == "osp_images":
        return len(result) == oracle.full_support_count(7) and \
            len({I.gens for I in result}) == len(result) and _all_supernova(result)
    return result == [oracle.gotzmann_count(k) for k in range(61)]


class CountSweep:
    """The paper's counting reproduction, sweep after sweep in one process."""

    name = "count_sweep"
    probe_between = False

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None

    def setup(self):
        for step in gen.SWEEP_STEPS:
            SWEEP_CALLS[step]()

    def pass_ops(self, cycle: int) -> list[Op]:
        return [Op(step, None, SWEEP_CALLS[step], (lambda r, s=step: _check_step(s, r)),
                   {"step": step}) for step in gen.sweep_order(self.seed, cycle)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (CliCold, QueryWarm, CountSweep)}


# ---------------------------------------------------------------------------
# measurement

class Run:
    """Operation latencies, pass times and failures of one measured stretch."""

    def __init__(self, workload, tracer=None, sampler=None):
        self.workload = workload
        self.tracer = tracer
        self.sampler = sampler
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.pass_times: list[float] = []
        self.pass_ops: list[int] = []
        self.groups: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.traffic: collections.Counter = collections.Counter()

    def run_op(self, op) -> float:
        """Run, time and check one operation; its latency in seconds."""
        op_id = self.attempted
        if self.tracer is not None:
            self.tracer.op_id = op_id
            self.tracer.enabled = True
        if self.sampler is not None and self.workload.probe_between:
            self.sampler.sample()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.enabled = False
        self.starts.append(t0)
        self.latencies.append(dt)
        if self.tracer is not None:
            self.groups[op_id] = op.group
        self.traffic[op.kind, op.n, op.meta.get("gotzmann_in_S"), "perm" in op.meta] += 1
        self.attempted += 1
        try:
            ok = not isinstance(result, Exception) and bool(op.check(result))
        except Exception as exc:  # a check that cannot read the answer fails it
            ok = False
            result = exc
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.group}: {str(result)[:200]}")
        return dt

    def run_pass(self, ops) -> float:
        total = sum(self.run_op(op) for op in ops)
        self.pass_times.append(total)
        self.pass_ops.append(len(ops))
        return total

    def run_for(self, seconds: float):
        start = time.perf_counter()
        cycle = 0
        while True:
            self.run_pass(self.workload.pass_ops(cycle))
            cycle += 1
            if time.perf_counter() - start >= seconds:
                return


def timing(lat: list[float], pass_ops: list[int]) -> dict:
    ends = list(itertools.accumulate(pass_ops))
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "sweep_s": statistics.median(sum(lat[a:b]) for a, b in zip([0] + ends, ends)),
    }


def end_to_end(run: Run, workload) -> tuple[dict, dict]:
    """The end-to-end metrics from probe-normalized times, and the same from raw
    times (probe time taken out)."""
    sampler = run.sampler
    norm = [sampler.normalize(t0, dt) for t0, dt in zip(run.starts, run.latencies)]
    raw = [dt - sampler.spent(t0, t0 + dt) for t0, dt in zip(run.starts, run.latencies)]
    return ({**timing(norm, run.pass_ops), "peak_rss_mb": workload.peak_rss_mb()},
            timing(raw, run.pass_ops))


def per_layer(run: Run, tr: tracing.Tracer, overhead: float) -> tuple[dict, dict]:
    passes = len(run.pass_times)
    agg = tr.aggregate()
    metrics = {}
    for target in tracing.TARGETS:
        row = agg.get(target, {"self_s": 0.0, "total_s": 0.0})
        calls = tr.calls[tr.name_id[target]] if target in tr.name_id else 0
        metrics[f"{target}.calls"] = calls / passes
        metrics[f"{target}.self_s"] = row["self_s"] / passes
        metrics[f"{target}.total_s"] = row["total_s"] / passes
    for key, value in tr.counters.items():
        metrics[key] = value / passes
    metrics["proc.startup_s"] = agg.get("proc", {"self_s": 0.0})["self_s"] / passes
    metrics["trace_overhead"] = overhead
    return metrics, top_self_times(run, tr)


def top_self_times(run: Run, tr: tracing.Tracer) -> dict:
    """Per operation group: the three largest self and total times, as shares of op time."""
    wall: dict[str, float] = {}
    ops: dict[str, int] = {}
    for op_id, group in run.groups.items():
        wall[group] = wall.get(group, 0.0) + run.latencies[op_id]
        ops[group] = ops.get(group, 0) + 1
    report = {}
    for group, agg in sorted(tr.aggregate(run.groups).items()):
        rank = {key: sorted(((row[key] / wall[group], name) for name, row in agg.items()
                             if name not in ("proc", "cli.main")), reverse=True)[:3]
                for key in ("self_s", "total_s")}
        report[group] = {"op_s": wall[group], "ops": ops[group],
                         "top_self": [[name, round(share, 4)] for share, name in rank["self_s"]],
                         "top_total": [[name, round(share, 4)] for share, name in rank["total_s"]]}
    return report


def measure(workload, seconds: float, sampler: probe.Sampler) -> dict:
    if tracing.installed():
        raise RuntimeError(f"untraced run found wrappers: {tracing.installed()}")
    if workload.probe_between:
        sampler.stop()
    else:
        sampler.start()
    run = Run(workload, sampler=sampler)
    sampler.sample()
    run.run_for(seconds)
    sampler.sample()
    sampler.stop()
    metrics, raw = end_to_end(run, workload)
    return {"attempted": run.attempted, "failed": run.failed, "failures": run.failures,
            "metrics": metrics, "raw": raw,
            "probe_median_s": statistics.median(sampler.took),
            "samples": {"ops": len(run.latencies), "passes": len(run.pass_times)},
            "manifest": gen.manifest(workload.name, run.traffic)}


def measure_traced(workload, seconds: float, seed: int) -> dict:
    """Traced passes for --seconds.  Until a fifth of that is spent, every operation
    also runs untraced right next to its traced run, in alternating order, and
    trace_overhead is the traced over the untraced time of those operations."""
    OUT.mkdir(exist_ok=True)
    tr = tracing.Tracer()
    tr.enabled = False
    reference = Run(workload)
    run = Run(workload, tr)

    def traced_op(op) -> float:
        tr.install()
        workload.tracer = tr
        try:
            return run.run_op(op)
        finally:
            tr.uninstall()
            workload.tracer = None

    untraced = traced = 0.0
    start = time.perf_counter()
    cycle = 0
    while True:
        ops = workload.pass_ops(cycle)
        cycle += 1
        total = 0.0
        for index, op in enumerate(ops):
            if untraced < seconds / 5:
                if index % 2:
                    dt = traced_op(op)
                    untraced += reference.run_op(op)
                else:
                    untraced += reference.run_op(op)
                    dt = traced_op(op)
                traced += dt
            else:
                dt = traced_op(op)
            total += dt
        run.pass_times.append(total)
        if time.perf_counter() - start >= seconds:
            break
    metrics, shares = per_layer(run, tr, traced / untraced)
    stem = OUT / f"trace-{workload.name}-{seed}"
    tr.dump(stem.with_suffix(".tsv"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"metrics": metrics, "top_self_times": shares,
         "passes": len(run.pass_times)}, indent=1))
    return {"attempted": run.attempted + reference.attempted,
            "failed": run.failed + reference.failed,
            "failures": reference.failures + run.failures,
            "metrics": metrics, "top_self_times": shares,
            "samples": {"ops": len(run.latencies), "passes": len(run.pass_times),
                        "spans": len(tr.start)},
            "spans_file": str(stem.with_suffix(".tsv").relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(gotzmann.__file__).resolve().is_relative_to(SRC):
        print(f"gotzmann imported from {gotzmann.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    SAMPLER.sample()
    print("READY", json.dumps(SAMPLER.summary(STARTED, time.perf_counter())), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        SAMPLER.stop()
        result = measure_traced(workload, args.seconds, args.seed)
    else:
        result = measure(workload, args.seconds, SAMPLER)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
