"""Seeded inputs for the three benchmark workloads, and their manifest.

Every input is a squarefree monomial ideal or space given by bit masks over
variable indices 0..n-1 (bit i is x_i, printed as the i-th letter).  Each slot
of a workload's cycle has a fixed structure drawn from one fixed stream; the
seed and the pass number pick random relabelings of the variables.  So the
same seed gives the same inputs, and every seed draws from the same
distribution and costs the same.
"""

from __future__ import annotations

import random
from itertools import combinations

from oracle import hilbert, is_gotzmann_space, min_shadow, shadow

ALPHABET = "abcdefghijklmnop"


# ---------------------------------------------------------------------------
# squarefree ideals with a known answer

def popcount(m: int) -> int:
    return bin(m).count("1")


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _take(rng, pool: list[int], k: int) -> int:
    mask = 0
    for v in rng.sample(pool, k):
        mask |= 1 << v
        pool.remove(v)
    return mask


def _stage_sizes(rng, n: int, top: int, stages: int) -> list[tuple[int, int]]:
    """(|m_j|, |B_j|) per stage: sum |m_j| = top - 1, m_j nonempty after the first."""
    if stages == 1:
        parts = [top - 1]
    else:
        first = rng.randint(0, top - stages)
        rest = top - 1 - first
        cuts = sorted(rng.sample(range(1, rest), stages - 2))
        parts = [first] + [b - a for a, b in zip([0] + cuts, cuts + [rest])]
    blocks = [1] * stages
    for _ in range(rng.randint(0, n - (top - 1) - stages)):
        blocks[rng.randrange(stages)] += 1
    return list(zip(parts, blocks))


def supernova(rng, n: int, top: int) -> list[int]:
    """Generators of a random supernova form on n variables with top degree `top`.

    By the structure theorem these ideals of S are Gotzmann.
    """
    stages = rng.randint(1, min(4, top, n - top + 1))
    pool = list(range(n))
    gens, acc = [], 0
    for m_size, b_size in _stage_sizes(rng, n, top, stages):
        acc |= _take(rng, pool, m_size)
        block = _take(rng, pool, b_size)
        gens.extend(acc | (1 << b) for b in bits(block))
    return sorted(gens)


def non_gotzmann(rng, n: int, top: int) -> list[int]:
    """Generators of a random antichain that is not a supernova ideal.

    A supernova prefix is followed by a tail whose generators share the prefix
    monomial but, after it is divided out, have no linear member and no common
    variable, so the recognizer must fail there.  Top degree is `top`.
    """
    while True:
        pool = list(range(n))
        gens, acc = [], 0
        if top >= 4 and rng.random() < 0.6:
            acc |= _take(rng, pool, rng.randint(0, min(2, top - 4)))
            block = _take(rng, pool, rng.randint(1, 2))
            gens.extend(acc | (1 << b) for b in bits(block))
            acc |= _take(rng, pool, 1)
        room = top - popcount(acc)
        if room < 2 or len(pool) < 3:
            continue
        tail = []
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(2, min(room, len(pool)))
            tail.append(sum(1 << v for v in rng.sample(pool, k)))
        big = sum(1 << v for v in rng.sample(pool, min(room, len(pool))))
        tail.append(big)
        tail = [t for t in set(tail) if not any(u != t and u & t == u for u in tail)]
        common = ~0
        for t in tail:
            common &= t
        if len(tail) < 2 or common:
            continue
        out = sorted(gens + [acc | t for t in tail])
        if max(popcount(g) for g in out) == top:
            return out


def shaped_supernova(rng, n: int, shape) -> list[int]:
    """A supernova form with the given (|m_j|, |B_j|) stage sizes on random variables."""
    pool = list(range(n))
    rng.shuffle(pool)
    gens, acc = [], 0
    for m_size, b_size in shape:
        for _ in range(m_size):
            acc |= 1 << pool.pop()
        gens.extend(acc | 1 << pool.pop() for _ in range(b_size))
    return sorted(gens)


def lex_gens_count(gens, n: int) -> int:
    """Minimal generators of the lex ideal with the same squarefree Hilbert function."""
    h = hilbert(gens, n)
    return h[0] + sum(h[d] - min_shadow(h[d - 1], d - 1, n) for d in range(1, n + 1))


def random_ideal(rng, n: int, lex_gens: int) -> list[int]:
    """Six random generators of degree 3..6 whose lexification has about lex_gens generators.

    The lexification's quadratic generator filter sets its cost, so the slot
    states its size that way.
    """
    while True:
        masks = {sum(1 << v for v in rng.sample(range(n), rng.randint(3, 6))) for _ in range(6)}
        gens = sorted(m for m in masks if not any(g != m and g & m == g for g in masks))
        if abs(lex_gens_count(gens, n) - lex_gens) <= lex_gens // 20:
            return gens


def random_space(rng, n: int, d: int, dim: int) -> list[int]:
    """dim random squarefree monomials of degree d."""
    return sorted(rng.sample(all_masks(n, d), dim))


def all_masks(n: int, d: int) -> list[int]:
    """Degree-d squarefree monomials in descending lex order (x_0 greatest)."""
    return [sum(1 << i for i in c) for c in combinations(range(n), d)]


def lex_space(rng, n: int, d: int, dim: int) -> list[int]:
    """A lex segment of dimension dim under a random variable order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(sum(1 << perm[i] for i in c)
                  for c in list(combinations(range(n), d))[:dim])


def relabel(mask: int, perm) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << perm[i]
    return out


def mask_text(mask: int) -> str:
    return "".join(ALPHABET[i] for i in bits(mask)) or "1"


def ideal_text(masks) -> str:
    return ",".join(mask_text(m) for m in masks) if masks else "0"


# ---------------------------------------------------------------------------
# cli_cold: a cycle of gotz invocations, one fresh process each

# The heaviest S-checks get an exact stage shape; a shape of the ROADMAP kind
# sits at n = 16.
SHAPE_12 = ((1, 1), (2, 1), (2, 2), (1, 2))          # degrees 2, 4, 6, 7
SHAPE_14 = ((1, 1), (2, 2), (3, 2), (1, 2))          # degrees 2, 4, 7, 8
SHAPE_16 = ((1, 1), (2, 2), (1, 3), (2, 4))          # degrees 2, 4, 5, 7

# (command, ring, n, top degree or shape, Gotzmann in S: True, False or either).
# Slot order spreads the heavy checks so that any stretch has about the same mix.
# Past the three shaped checks come about ten slots of similar cost, so that
# op_p90_ms falls inside that group rather than on a step between costs.
CLI_SLOTS = (
    ("check", "S", 10, 5, True), ("classify", None, 9, 4, True),
    ("check", "R", 10, 4, False), ("lexify", "R", 10, 4, None),
    ("check", "S", 12, SHAPE_12, True), ("dual", None, 9, 4, None),
    ("check", "S", 11, 5, False), ("compress", None, 10, 4, None),
    ("check", "R", 12, 5, True), ("classify", None, 12, 5, False),
    ("check", "S", 14, SHAPE_14, True), ("lexify", "S", 9, 4, None),
    ("check", "S", 9, 4, False), ("check", "R", 9, 4, True),
    ("dual", None, 11, 5, None), ("check", "S", 12, 5, False),
    ("classify", None, 14, 6, True), ("compress", None, 12, 4, None),
    ("check", "R", 11, 5, False), ("check", "S", 8, 4, True),
    ("check", "S", 16, SHAPE_16, True), ("lexify", "R", 12, 5, None),
    ("check", "S", 13, 6, False), ("classify", None, 10, 4, False),
    ("check", "R", 8, 3, True), ("dual", None, 10, 4, None),
    ("check", "S", 11, 5, True), ("compress", None, 8, 3, None),
    ("check", "S", 10, 5, False), ("lexify", "S", 11, 5, None),
    ("check", "R", 10, 4, False), ("classify", None, 11, 5, True),
    ("check", "S", 14, 6, False), ("dual", None, 12, 5, None),
    ("check", "S", 9, 4, True), ("check", "R", 12, 4, True),
    ("compress", None, 9, 4, None), ("check", "S", 12, 5, True),
    ("lexify", "R", 8, 4, None), ("check", "S", 10, 4, False),
)


def ideal_for(rng, n: int, top, gotz) -> tuple[list[int], bool]:
    """Generators and whether the ideal is Gotzmann in S (known by construction)."""
    if isinstance(top, tuple):
        return shaped_supernova(rng, n, top), True
    if gotz is None:
        gotz = rng.random() < 0.5
    return (supernova if gotz else non_gotzmann)(rng, n, top), gotz


def _cli_structures() -> list[dict]:
    """The input behind each CLI slot, from one fixed stream so every seed costs the same."""
    rng = random.Random("cli_cold:structure")
    out = []
    for command, ring, n, top, gotz in CLI_SLOTS:
        item = {"command": command, "ring": ring, "n": n,
                "kind": command if ring is None else f"{command} {ring}"}
        if command == "compress":
            size = len(all_masks(n, top))
            item.update(basis=random_space(rng, n, top, rng.randint(size // 8, size // 3)),
                        d=top, var=rng.randrange(n), order=rng.sample(range(n), n))
        else:
            gens, known = ideal_for(rng, n, top, gotz)
            item.update(gens=gens, gotzmann_in_S=known)
        out.append(item)
    return out


def cli_script(seed: int, cycle: int) -> list[dict]:
    """The cycle-th pass of CLI operations: every slot's input under a fresh seeded
    relabeling, with the argv that encodes it."""
    rng = random.Random(f"cli_cold:{seed}:{cycle}")
    ops = []
    for item in _cli_structures():
        n = item["n"]
        perm = list(range(n))
        rng.shuffle(perm)
        op = {"kind": item["kind"], "n": n}
        if item["command"] == "compress":
            basis = sorted(relabel(m, perm) for m in item["basis"])
            var = perm[item["var"]]
            order = [perm[i] for i in item["order"] if perm[i] != var]
            op.update(basis=basis, d=item["d"], var=var,
                      qperm=[i - (i > var) for i in order])
            argv = ["compress", "--var", ALPHABET[var],
                    "--order", "".join(ALPHABET[i] for i in order),
                    "--n", str(n), ideal_text(basis)]
        else:
            gens = sorted(relabel(m, perm) for m in item["gens"])
            op.update(gens=gens, gotzmann_in_S=item["gotzmann_in_S"])
            ring = ["--ring", item["ring"]] if item["ring"] else []
            argv = [item["command"], *ring, "--n", str(n), ideal_text(gens)]
        op["argv"] = argv
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# query_warm: a pool of base inputs, queried through relabelings

# (kind, n, top degree of an ideal, degree of a space, or for lexify the number
# of lex generators; known answer or None).  Slot sizes put several slots of
# about the same cost around the median and around the 90th percentile of
# latency, so that op_p50_ms and op_p90_ms do not sit on a step between costs.
WARM_SLOTS = (
    ("check_S", 10, 5, True), ("check_S", 12, 5, True), ("check_S", 11, 4, False),
    ("check_S", 12, 6, False), ("check_S", 9, 4, True), ("check_S", 9, 4, True),
    ("check_R", 10, 4, None), ("check_R", 12, 5, None), ("check_R", 9, 4, None),
    ("check_R", 12, 5, None),
    ("classify", 12, 5, True), ("classify", 10, 4, False), ("classify", 14, 6, True),
    ("lexify_R", 12, 110, None), ("lexify_R", 11, 70, None), ("lexify_R", 10, 50, None),
    ("lexify_S", 12, 60, None), ("lexify_S", 11, 50, None),
    ("dual", 10, 4, None), ("dual", 11, 5, None), ("dual", 12, 4, None),
    ("gdual", 9, 4, None), ("gdual", 10, 5, None), ("gdual", 9, 4, None),
    ("compress", 10, 4, None), ("compress", 12, 5, None),
    ("growth_equality", 10, 4, None),
    ("colon", 10, 4, None), ("colon", 12, 5, None),
    ("reconstruct", 10, 4, None), ("reconstruct", 12, 5, None),
    ("lex_some_order", 7, 3, True), ("lex_some_order", 6, 3, False),
)

IDEAL_KINDS = {"check_S", "check_R", "classify", "lexify_R", "lexify_S", "dual", "gdual"}


def warm_pool(seed: int) -> list[dict]:
    """One base input per slot.  Ideals carry `gens`, spaces `basis` and degree `d`.

    The structure of each base comes from one fixed stream and the seed picks
    its variable names, so every seed issues queries from the same distribution
    (uniform relabelings of the same structures) and costs the same.
    """
    names = random.Random(f"query_warm:{seed}")
    pool = []
    for item in _warm_structures():
        perm = list(range(space_vars(item)))
        names.shuffle(perm)
        pool.append(relabeled(item, perm))
    return pool


def _warm_structures() -> list[dict]:
    pool = []
    for index, (kind, n, deg, known) in enumerate(WARM_SLOTS):
        rng = random.Random(f"query_warm:structure:{index}")
        item = {"kind": kind, "n": n}
        if kind.startswith("lexify"):
            item.update(gens=random_ideal(rng, n, deg), gotzmann_in_S=None)
        elif kind in IDEAL_KINDS:
            gens, gotz = ideal_for(rng, n, deg, known)
            item.update(gens=gens, gotzmann_in_S=gotz)
        elif kind in ("compress", "growth_equality"):
            size = len(all_masks(n, deg))
            item.update(basis=random_space(rng, n, deg, rng.randint(size // 8, size // 3)),
                        d=deg, var=rng.randrange(n))
        elif kind == "colon":
            seed_space = random_space(rng, n, deg - 1, len(all_masks(n, deg - 1)) // 10)
            item.update(basis=sorted(shadow(seed_space, n)), d=deg)
        elif kind == "reconstruct":
            size = len(all_masks(n - 1, deg - 1))
            item.update(basis=lex_space(rng, n - 1, deg - 1, rng.randint(1, size // 2)),
                        d=deg - 1, var=rng.randrange(n))
        else:
            size = len(all_masks(n, deg))
            while True:
                basis = (lex_space if known else random_space)(rng, n, deg,
                                                               rng.randint(size // 4, size // 2))
                if known or not is_gotzmann_space(basis, n, deg):
                    break
            item.update(basis=basis, d=deg, lex_in_some_order=known)
        pool.append(item)
    return pool


def space_vars(item: dict) -> int:
    """Variables of the ring the item's monomials live in."""
    return item["n"] - 1 if item["kind"] == "reconstruct" else item["n"]


def relabeled(item: dict, perm) -> dict:
    """The item with variable i renamed perm[i]; the split variable follows its variable."""
    out = dict(item)
    for key in ("gens", "basis"):
        if key in item:
            out[key] = sorted(relabel(m, perm) for m in item[key])
    if "var" in item and item["kind"] != "reconstruct":
        out["var"] = perm[item["var"]]
    return out


# Relabelings of each pool item per pass: a pass then lasts about a second, so
# its median time averages over the costly but rare order searches.
WARM_ROUNDS = 5


def warm_pass(pool: list[dict], seed: int, cycle: int, seen: set) -> list[dict]:
    """WARM_ROUNDS fresh relabelings of every pool item, none equal to the base or
    to an earlier one."""
    rng = random.Random(f"query_warm:{seed}:{cycle}")
    out = []
    for index, item in [*enumerate(pool)] * WARM_ROUNDS:
        perm = list(range(space_vars(item)))
        base = relabeled(item, perm)
        for _ in range(100):
            rng.shuffle(perm)
            query = relabeled(item, perm)
            key = hash((index, tuple(query.get("gens", query.get("basis"))), query.get("var")))
            if key not in seen and query != base:
                break
        seen.add(key)
        query.update(base=index, perm=tuple(perm))
        out.append(query)
    return out


# ---------------------------------------------------------------------------
# count_sweep: the counting reproduction; its inputs are the paper's, so the
# seed only orders the steps of each sweep

SWEEP_STEPS = ("count_table", "enumerate_gotzmann", "count_up_to_symmetry",
               "osp_images", "count_series")


def sweep_order(seed: int, cycle: int) -> list[str]:
    steps = list(SWEEP_STEPS)
    random.Random(f"count_sweep:{seed}:{cycle}").shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# manifest

WHY = {
    "cli_cold": "every gotz command starts with empty caches, so first-touch growth-bound "
                "construction, S_d materialization and import cost show; a terminal or "
                "script user pays this on every call",
    "query_warm": "steady-state library use in one long-lived process: kernels "
                  "(minimalize, shadow loops, squarefree counts) set the time and cached "
                  "growth bounds cost nothing; a change that removes a cache must not slow it",
    "count_sweep": "the paper's counting reproduction: many tiny ideals (n <= 7), so "
                   "per-ideal construction, validation and canonicalize set the time; a "
                   "kernel change for n = 16 must not slow it",
}


def manifest(workload: str, traffic: dict) -> dict:
    """Traffic properties of the operations a run issued, given as counts of
    (kind, n, Gotzmann in S or None, relabels a warm-up item)."""
    total = sum(traffic.values())
    out = {"why": WHY[workload], "loop": "closed, one client", "operations": total}
    if workload == "count_sweep":
        out["steps"] = list(SWEEP_STEPS)
        return out
    ns: dict[int, int] = {}
    checks = gotzmann = relabeled_ops = 0
    for (kind, n, gotz, relabels), count in traffic.items():
        ns[n] = ns.get(n, 0) + count
        if kind.startswith("check"):
            checks += count
            gotzmann += count * bool(gotz)
        relabeled_ops += count * relabels
    out["n_distribution"] = {str(n): ns[n] for n in sorted(ns)}
    out["gotzmann_share_of_checks"] = round(gotzmann / checks, 4)
    if workload == "query_warm":
        out["shares_hilbert_data_with_warmup"] = relabeled_ops / total
    return out
