"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every expected value is pinned exactly; the runtime bounds are part of the
criteria and asserted alongside the results.
"""

import random
import time
from itertools import permutations

import pytest

from gotzmann.core import (
    MonomialSpace,
    all_monomials,
    binom,
    component_space,
    gen_masks,
    shadow_up,
    space,
    sqf_ring,
    up_set,
)
from gotzmann.lex import (
    _grows_minimally,
    is_gotzmann_ideal,
    is_gotzmann_space,
    is_lex_segment,
    is_lex_some_order,
    lex_segment,
    minimal_growth,
)
from gotzmann.classify import recognize_supernova
from gotzmann.decompose import (
    alexander_dual_ideal,
    compress,
    decompose,
    is_gdual,
    is_gdual_ideal,
    pick_variable,
    reconstruct,
)
from gotzmann.counting import (
    count_table,
    count_up_to_symmetry,
    enumerate_antichains,
    enumerate_gotzmann,
    fubini,
    big_last_block_series,
    full_support_series,
    gotzmann_count_series,
)
from gotzmann.series import egf_coefficient
from gotzmann.textio import parse_ideal_inline, parse_monomial

from support import direct_poly_dim, osp_counts, random_space, random_sqf_ideal


def report(number: int, name: str, ok: bool, elapsed: float, bound: float | None = None):
    in_time = bound is None or elapsed < bound
    verdict = "PASS" if ok and in_time else "FAIL"
    limit = f", bound {bound:.0f}s" if bound is not None else ""
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s{limit})")
    assert ok, f"criterion {number} ({name}) failed"
    assert in_time, f"criterion {number} exceeded {bound}s: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def antichain_sweep():
    """For n <= 5: (gotzmann-in-S flag, supernova-recognized flag) per antichain.

    The Gotzmann flag comes from the growth route on the up-set, not from
    is_gotzmann_ideal, which decides squarefree ideals of S by the recognizer.

    Returns the flags together with the wall time the sweep took, so the
    criteria sharing it can count that time against their own bounds.
    """
    t0 = time.perf_counter()
    sweep = {}
    for n in range(6):
        flags = []
        for I in enumerate_antichains(n):
            grows = _grows_minimally(up_set(gen_masks(I), n), I.ctx)
            flags.append((grows, recognize_supernova(I) is not None))
        sweep[n] = flags
    return sweep, time.perf_counter() - t0


def sp(ctx, d, *texts):
    return space(ctx, d, [parse_monomial(t, ctx) for t in texts])


def test_criterion_1_count_reproduction(antichain_sweep):
    import io
    from contextlib import redirect_stdout

    from gotzmann.cli import main

    flags, sweep_time = antichain_sweep
    t0 = time.perf_counter()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["count", "--max-n", "5"])
    table = [int(line.split()[1]) for line in buffer.getvalue().splitlines()[1:]]
    ok = code == 0 and table == [2, 3, 6, 19, 96, 669]

    rows = count_table(5)
    enumerated = [r["enumerated"] for r in rows]
    egf = [r["egf"] for r in rows]
    brute = [sum(1 for g, _ in flags[n] if g) for n in range(6)]
    ok = ok and enumerated == egf == brute == [2, 3, 6, 19, 96, 669]
    report(1, "count-reproduction", ok, time.perf_counter() - t0 + sweep_time, 60)


def test_criterion_2_classification_equivalence(antichain_sweep):
    flags, sweep_time = antichain_sweep
    t0 = time.perf_counter()
    ok = len(flags[4]) == 168 and len(flags[5]) == 7581
    mismatches = sum(1 for n in (4, 5) for g, s in flags[n] if g != s)
    ok = ok and mismatches == 0
    report(2, "classification-equivalence", ok, time.perf_counter() - t0 + sweep_time, 60)


def test_criterion_3_symmetry_counts():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        counts = count_up_to_symmetry(n)
        for name in ("no_linear_full_support", "linear_full_support",
                     "no_linear_sub_support", "linear_sub_support"):
            ok = ok and counts[name] == 2 ** (n - 2)
        ok = ok and counts["total_nonunit"] == 2 ** n
    report(3, "symmetry-counts", ok, time.perf_counter() - t0)


def test_criterion_4_worked_example_regressions():
    t0 = time.perf_counter()
    ok = True

    R4, R5 = sqf_ring(4), sqf_ring(5)
    four_cycle = parse_ideal_inline("ab,ac,bd,cd", R4)
    seven = parse_ideal_inline("abc,abd,abe,acd,ace,bcd,bce", R5)
    for I, d in ((four_cycle, 2), (seven, 3)):
        ok = ok and is_gotzmann_ideal(I)
        ok = ok and is_lex_some_order(component_space(I, d)) is None
        ok = ok and not is_gotzmann_ideal(alexander_dual_ideal(I))

    q = sqf_ring(4)
    rebuilt = reconstruct(sp(q, 2, "ab", "bc", "cd", "ad"), 4, "e")
    ok = ok and is_gotzmann_space(rebuilt) and is_lex_some_order(rebuilt) is None

    mixed = parse_ideal_inline("bc,abd,abe,acd,ace,ade", R5)
    ok = ok and is_gotzmann_ideal(mixed) and is_gdual_ideal(mixed)
    comp2, comp3 = component_space(mixed, 2), component_space(mixed, 3)
    ok = ok and is_lex_segment(comp2, (1, 2, 0, 3, 4))   # b > c > a > d > e
    ok = ok and is_lex_segment(comp3, (0, 1, 2, 3, 4))   # a > b > c > d > e
    shared = [p for p in permutations(range(5))
              if is_lex_segment(comp2, p) and is_lex_segment(comp3, p)]
    ok = ok and not shared

    report(4, "worked-example-regressions", ok, time.perf_counter() - t0, 10)


def test_criterion_5_dual_surprise_exhaustive():
    t0 = time.perf_counter()
    swept = 0
    counterexamples = 0
    for n in range(1, 6):
        ctx = sqf_ring(n)
        for d in range(n + 1):
            mons = all_monomials(ctx, d)
            for bits in range(1 << len(mons)):
                basis = frozenset(m for k, m in enumerate(mons) if bits >> k & 1)
                V = MonomialSpace(ctx, d, basis)
                swept += 1
                if is_gotzmann_space(V) and is_gdual(V):
                    if is_lex_some_order(V) is None:
                        counterexamples += 1
    ok = counterexamples == 0 and swept == 2248
    report(5, "dual-surprise-exhaustive", ok, time.perf_counter() - t0, 60)


def test_criterion_6_randomized_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    ok = True

    for _ in range(1000):  # Kruskal-Katona lower bound
        n = rng.randint(1, 7)
        ctx = sqf_ring(n)
        d = rng.randint(0, n)
        V = random_space(rng, ctx, d)
        ok = ok and shadow_up(V).dim >= minimal_growth(V.dim, d, ctx)

    for _ in range(1000):  # compression never increases the shadow
        n = rng.randint(2, 7)
        ctx = sqf_ring(n)
        d = rng.randint(1, n)
        V = random_space(rng, ctx, d)
        i = rng.randrange(n)
        order = tuple(rng.sample(range(n - 1), n - 1))
        ok = ok and shadow_up(compress(V, i, order)).dim <= shadow_up(V).dim

    for _ in range(1000):  # decomposition identity for the shadow
        n = rng.randint(2, 7)
        ctx = sqf_ring(n)
        d = rng.randint(1, n)
        V = random_space(rng, ctx, d)
        i = rng.randrange(n)
        dec = decompose(V, i)
        shade = decompose(shadow_up(V), i)
        ok = ok and shade.vhat.basis == shadow_up(dec.vhat).basis
        ok = ok and shade.vxi.basis == dec.vhat.basis | shadow_up(dec.vxi).basis

    for _ in range(1000):  # persistence of the Gotzmann property
        n = rng.randint(1, 7)
        ctx = sqf_ring(n)
        d = rng.randint(0, n)
        perm = tuple(rng.sample(range(n), n))
        V = lex_segment(rng.randint(0, binom(n, d)), d, ctx, perm)
        ok = ok and is_gotzmann_space(V) and is_gotzmann_space(shadow_up(V))

    for _ in range(1000):  # Hilbert series substitution equals direct counting
        n = rng.randint(1, 7)
        I = random_sqf_ideal(rng, n)
        d = rng.randint(0, 8)
        from gotzmann.core import poly_hilbert_from_sqf, sqf_hilbert

        ok = ok and poly_hilbert_from_sqf(sqf_hilbert(I), d) == direct_poly_dim(I, d)

    report(6, "randomized-property-suites", ok, time.perf_counter() - t0)


def test_criterion_7_structure_theory_sweeps():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        ctx = sqf_ring(n)
        for d in range(1, n + 1):
            mons = all_monomials(ctx, d)
            for bits in range(1 << len(mons)):
                basis = frozenset(m for k, m in enumerate(mons) if bits >> k & 1)
                V = MonomialSpace(ctx, d, basis)
                if not is_gotzmann_space(V):
                    continue
                for i in range(n):
                    dec = decompose(V, i)
                    ok = ok and is_gotzmann_space(dec.vhat)
                    if not is_gotzmann_space(dec.vxi):
                        q = dec.vhat.ctx
                        lxi = lex_segment(dec.vxi.dim, dec.vxi.degree, q)
                        lhat = lex_segment(dec.vhat.dim, dec.vhat.degree, q)
                        ok = ok and shadow_up(lxi).basis <= lhat.basis
                if V.basis:
                    dec = decompose(V, pick_variable(V))
                    ok = ok and is_gotzmann_space(dec.vhat) and is_gotzmann_space(dec.vxi)
                    ok = ok and dec.vhat.basis <= shadow_up(dec.vxi).basis

    # the two pinned counterexamples
    R4, R5 = sqf_ring(4), sqf_ring(5)
    triangle = sp(R4, 2, "ab", "ac", "bc")
    dec = decompose(triangle, 0)
    ok = ok and not is_gotzmann_space(triangle)
    ok = ok and is_gotzmann_space(dec.vhat) and is_gotzmann_space(dec.vxi)

    seven = sp(R5, 3, "abc", "abd", "acd", "bcd", "bce", "bde", "cde")
    dec = decompose(seven, 0)
    ok = ok and is_gotzmann_space(seven) and not is_gotzmann_space(dec.vxi)
    ok = ok and dec.vxi.basis == sp(dec.vxi.ctx, 2, "bc", "bd", "cd").basis

    report(7, "structure-theory-sweeps", ok, time.perf_counter() - t0)


def test_criterion_8_generating_function_units():
    t0 = time.perf_counter()
    ok = True

    big_series = big_last_block_series(12)
    for n in range(9):
        total, big_count = osp_counts(n)
        ok = ok and total == fubini(n)
        ok = ok and big_count == egf_coefficient(big_series, n)
        expect = 1 if n == 0 else fubini(n) - n * fubini(n - 1)
        ok = ok and big_count == expect

    h = full_support_series(12)
    ok = ok and [egf_coefficient(h, n) for n in range(6)] == [2, 1, 2, 8, 46, 332]
    for n in range(6):
        full = (1 << n) - 1
        direct = sum(1 for I in enumerate_gotzmann(n) if I.support_mask == full)
        ok = ok and direct == egf_coefficient(h, n)

    g = gotzmann_count_series(12)
    ok = ok and [egf_coefficient(g, n) for n in range(6)] == [2, 3, 6, 19, 96, 669]

    report(8, "generating-function-units", ok, time.perf_counter() - t0)
