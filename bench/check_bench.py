"""Tests of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

Kept out of the package's test discovery (the file name does not start with
test_) so the package suite is unchanged; run it after editing bench/.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

lex = sys.modules["gotzmann.lex"]
core = sys.modules["gotzmann.core"]
ORIGINAL_MINIMAL_GROWTH = lex.minimal_growth


def test_inputs_are_deterministic_per_seed():
    assert gen.cli_script(7, 0) == gen.cli_script(7, 0)
    assert gen.cli_script(7, 0) != gen.cli_script(8, 0)
    assert gen.cli_script(7, 0) != gen.cli_script(7, 1)
    assert gen.warm_pool(7) == gen.warm_pool(7)
    assert gen.warm_pool(7) != gen.warm_pool(8)
    pool = gen.warm_pool(7)
    assert gen.warm_pass(pool, 7, 1, set()) == gen.warm_pass(pool, 7, 1, set())
    assert gen.sweep_order(7, 2) == gen.sweep_order(7, 2)


def test_warm_queries_are_distinct_relabelings():
    pool = gen.warm_pool(3)
    seen = set()
    queries = gen.warm_pass(pool, 3, 1, seen) + gen.warm_pass(pool, 3, 2, seen)
    keys = {(q["base"], tuple(q.get("gens", q.get("basis"))), q.get("var")) for q in queries}
    assert len(keys) == len(queries)
    for q in queries:
        base = pool[q["base"]]
        assert q != base
        if "gens" in q:
            n = q["n"]
            assert oracle.hilbert(q["gens"], n) == oracle.hilbert(base["gens"], n)


def test_generated_answers_hold():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(8, 14)
        top = rng.randint(3, 6)
        classify = sys.modules["gotzmann.classify"]
        for gens, want in ((gen.supernova(rng, n, top), True),
                           (gen.non_gotzmann(rng, n, top), False)):
            ideal = core.minimalize([core.mask_to_exps(m, n) for m in gens], core.poly_ring(n))
            assert len(ideal.gens) == len(gens)
            assert (classify.recognize_supernova(ideal) is not None) is want


def test_oracle_bound_matches_construction():
    for n in range(1, 8):
        for d in range(n + 1):
            for dim in range(0, core.binom(n, d) + 1):
                assert oracle.min_shadow(dim, d, n) == \
                    ORIGINAL_MINIMAL_GROWTH(dim, d, core.sqf_ring(n))


def test_corrupted_answers_count_as_failures():
    warm = worker.QueryWarm(5)
    warm.setup()
    ops = warm.pass_ops(1)
    corrupt = {"check_S": lambda r: not r,
               "lexify_R": lambda r: core.unit_ideal(r.ctx),
               "dual": lambda r: core.zero_ideal(r.ctx),
               "compress": lambda r: core.space(r.ctx, r.degree, list(r.basis)[1:])}
    picked = []
    for op in ops:
        if op.kind in corrupt and op.kind not in {p.kind for p in picked}:
            run, bad = op.run, corrupt[op.kind]
            op.run = lambda run=run, bad=bad: bad(run())
            picked.append(op)
    run = worker.Run(warm)
    run.run_pass(ops)
    assert run.failed == len(corrupt) and run.attempted == len(ops)

    cli = worker.CliCold(5)
    spec = next(s for s in gen.cli_script(5, 0) if s["kind"] == "check S")
    check = cli._checker(spec)
    right = f"Gotzmann: {'true' if spec['gotzmann_in_S'] else 'false'}\n"
    wrong = f"Gotzmann: {'false' if spec['gotzmann_in_S'] else 'true'}\n"
    assert check((0, right)) and not check((0, wrong)) and not check((2, right))

    rows = worker.SWEEP_CALLS["count_table"]()
    assert worker._check_step("count_table", rows)
    rows[4]["brute"] += 1
    assert not worker._check_step("count_table", rows)


def test_untraced_run_installs_no_wrapper():
    warm = worker.QueryWarm(2)
    warm.setup()
    result = worker.measure(warm, 0.1, probe.Sampler())
    assert result["failed"] == 0 and result["attempted"] > 0
    assert tracing.installed() == []
    assert sys.modules["gotzmann.lex"].minimal_growth is ORIGINAL_MINIMAL_GROWTH


def test_tracer_reaches_every_namespace_and_uninstalls():
    ideal = core.minimalize([(1, 1, 0), (0, 1, 1)], core.sqf_ring(3))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tracing.is_wrapped(sys.modules["gotzmann.lex"].shadow_up)
        assert tracing.is_wrapped(sys.modules["gotzmann.core"].shadow_up)
        assert tracing.is_wrapped(sys.modules["gotzmann"].compress)
        assert tracing.is_wrapped(sys.modules["gotzmann.cli"].is_gotzmann_ideal)
        assert tracing.is_wrapped(core.MonomialIdeal.__post_init__)
        lex.lexify_in_R(ideal)
    finally:
        tr.uninstall()
    assert tracing.installed() == []
    agg = tr.aggregate()
    assert agg["lex.lexify_in_R"]["spans"] == 1 and agg["core.minimalize"]["spans"] >= 1
    all_self = sum(row["self_s"] for row in agg.values())
    assert abs(all_self - agg["lex.lexify_in_R"]["total_s"]) < 1e-9


def test_probe_normalization():
    sampler = probe.Sampler()
    for at, took in ((0.0, 0.002), (1.0, 0.004), (1.5, 0.001), (3.0, 0.002)):
        sampler.at.append(at)
        sampler.took.append(took)
    # two probes inside: their time is left out, their mean sets the speed
    assert sampler.spent(0.9, 1.6) == 0.005
    assert abs(sampler.normalize(0.9, 0.7) - (0.7 - 0.005) * probe.NOMINAL_S / 0.0025) < 1e-12
    # none inside: the mean of the nearest probes before and after
    assert abs(sampler.normalize(2.0, 0.5) - 0.5 * probe.NOMINAL_S / 0.0015) < 1e-12
    sampler.sample()
    assert len(sampler.took) == 5 and sampler.took[-1] > 0


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    outer = tr.add_span("outer", 0.0, 10.0, -1, 0)
    tr.add_span("inner", 1.0, 3.0, outer, 0)
    agg = tr.aggregate()
    assert agg["outer"]["self_s"] == 8.0 and agg["outer"]["total_s"] == 10.0
    assert agg["inner"]["self_s"] == 2.0


def test_refuses_to_run_without_the_package():
    root = BENCH.parent / ".bench_out" / "bare-checkout"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    try:
        config = json.loads((root / "BENCHMARK.json").read_text())
        done = subprocess.run([*config["command"], "--workload", "query_warm", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=root, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(root, ignore_errors=True)
