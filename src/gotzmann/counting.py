"""Enumeration and exact counting of Gotzmann squarefree ideals of S.

Three independent routes are kept side by side: direct generation of all
supernova forms, coefficient extraction from exponential generating functions
over exact rationals, and at small n a brute-force walk over every antichain,
cut by Gotzmann persistence.  Counts include the zero and unit ideals.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .classify import stage_generators
from .core import (
    MAX_VARS,
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    RingContext,
    _Record,
    _all_monomials,
    _ideal_from_antichain,
    _setattr,
    binom,
    mask_bitset,
    poly_ring,
    sqf_ring,
    unit_ideal,
    upper_shadow,
    zero_ideal,
)
from .lex import _grows_at
from .series import (
    DEFAULT_TRUNCATION,
    RationalSeries,
    egf_coefficient,
    series_const,
    series_exp,
    series_t,
)

ENUMERATE_MAX_VARS = 6
ANTICHAIN_MAX_VARS = 5
OSP_MAX_VARS = 10

WITH_LINEAR = "with_linear"
WITHOUT_LINEAR = "without_linear"


# ---------------------------------------------------------------------------
# ordered set partitions

@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    if n == 0:
        return 1
    return sum(binom(n, k) * fubini(n - k) for k in range(1, n + 1))


class OrderedSetPartition(_Record):
    """Disjoint nonempty blocks, in order, covering {1..n}; each block is a
    variable mask, element v at bit v - 1."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        seen = 0
        for block in blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            if block & seen:
                raise ValueError("blocks must be disjoint")
            seen |= block
        if seen < 0 or seen & (seen + 1):
            raise ValueError("blocks must cover an initial segment of the positive integers")
        _setattr(self, "blocks", blocks)

    @property
    def nu(self) -> int:
        return sum(map(int.bit_count, self.blocks))

    @property
    def last_block_big(self) -> bool:
        """Whether the last block has more than one element (vacuous if empty)."""
        return not self.blocks or self.blocks[-1].bit_count() > 1


def enumerate_osp(n: int):
    """All ordered set partitions of {1..n}, deterministically: each first block
    is a submask of the elements left, in ascending order.

    One explicit stack of (remaining, block) pairs, the next first block to
    try for each level of the partition being built, and the list of the
    blocks chosen above the top level: O(n) state.  A level's last choice is
    all that remains, which ends a partition.
    """
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    if n > OSP_MAX_VARS:
        raise ValueError(f"ordered set partition enumeration is limited to {OSP_MAX_VARS}")
    full = (1 << n) - 1
    if not full:
        yield OrderedSetPartition(())
        return
    stack = [(full, full & -full)]
    head: list[int] = []
    while stack:
        remaining, block = stack.pop()
        if block == remaining:
            yield OrderedSetPartition((*head, block))
            if head:
                head.pop()
            continue
        stack.append((remaining, (block - remaining) & remaining))
        head.append(block)
        rest = remaining ^ block
        stack.append((rest, rest & -rest))


def osp_to_ideal(osp: OrderedSetPartition, family: str) -> MonomialIdeal:
    """Image of a big-last-block partition in one of the two counting families.

    Blocks alternate between stage-monomial supports and variable blocks, and
    consecutive entries pair into supernova stages (m_j, B_j); the with-linear
    family puts an empty monomial in front, so its first block holds the
    linear generators.  An odd tail t becomes the stage (t without its lowest
    variable, that variable), a lone principal generator.  The image always
    has full support and the same weight as the partition.

    The stage generators are an antichain in canonical order by construction,
    so they go to the builder unfiltered and unsorted.  The partition's blocks
    are nonempty and pairwise disjoint, so every stage monomial after the
    first is nonempty and no block meets any stage monomial or another block.
    With A_j = m_1...m_j, a stage-j generator A_j*x (x in B_j) cannot divide
    a later A_k*y: x is not in A_k or {y}.  The later one cannot divide it
    either: y is not in A_j or {x}.  Two generators of one stage are distinct
    masks of one degree.  Since only the first stage monomial may be empty,
    the degree |A_j| + 1 rises strictly from stage to stage; within a stage
    stage_generators takes the block's bits in ascending order, and A_j*x
    before A_j*y for x < y is descending exponent tuple.
    """
    if not osp.last_block_big:
        raise ValueError("the partition's last block must have more than one element")
    ctx = poly_ring(osp.nu)
    if family == WITH_LINEAR:
        if not osp.blocks:
            return unit_ideal(ctx)
        entries = (0,) + osp.blocks
    elif family == WITHOUT_LINEAR:
        if not osp.blocks:
            return zero_ideal(ctx)
        entries = osp.blocks
    else:
        raise ValueError(f"unknown family {family!r}")
    stages = list(zip(entries[::2], entries[1::2]))
    if len(entries) % 2:
        t = entries[-1]
        stages.append((t & (t - 1), t & -t))
    ideal = _ideal_from_antichain(stage_generators(stages), ctx)
    if ideal.support_mask != ctx.full_mask:
        raise InvariantViolation("partition image lost full support")
    return ideal


# ---------------------------------------------------------------------------
# generating functions

def osp_series(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    """E.g.f. of ordered set partitions, 1/(2 - e^t)."""
    return (series_const(2, T) - series_exp(T)).inverse()


def big_last_block_series(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    """E.g.f. of ordered set partitions whose last block is not a singleton."""
    return (series_const(1, T) - series_t(T)) * osp_series(T)


def full_support_series(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    """E.g.f. of full-support Gotzmann squarefree ideals, 2(1-t)/(2-e^t) + t."""
    return 2 * big_last_block_series(T) + series_t(T)


def gotzmann_count_series(T: int = DEFAULT_TRUNCATION) -> RationalSeries:
    """E.g.f. of all Gotzmann squarefree ideals: e^t times the full-support series."""
    return series_exp(T) * full_support_series(T)


# ---------------------------------------------------------------------------
# enumeration

def submasks(mask: int):
    """All submasks of a mask, the mask itself first and zero last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _antichain_walk(n: int, cut: RingContext | None = None):
    """Every antichain of subsets of the variables, once, as a list of generator masks.

    Walks the up-sets of the subset lattice level by level: beyond the forced
    shadow of earlier levels every choice of new monomials is free, and those
    choices are exactly the minimal generators.  They are an antichain by
    construction: each level's choices lie outside the shadow of the earlier
    levels, so no earlier choice divides them, and distinct masks of one
    degree cannot divide each other.  Each list is in canonical order: the
    levels rise in degree, and each level's choices keep the order of
    _all_monomials, which is descending exponent tuple.

    With cut a ring context on n variables, only the generator sets of the
    Gotzmann ideals of that ring are yielded.  A branch ends right after
    level d is chosen when it takes new generators in degree d and
    lex._grows_at fails at d; the level's shadow, which it tests against, is
    the next level's forced set.  This yields exactly the Gotzmann ideals:

    - The test at d reads only levels <= d, which are fixed in the branch,
      and every leaf below it has a generator of degree d.  So d lies between
      the leaf's smallest and largest generator degrees, where
      is_gotzmann_ideal tests it, and the leaf is not Gotzmann.
    - A level that takes no new generators is not tested.  Its piece is the
      shadow of the level below, so the ideal up to it is generated in lower
      degrees; by persistence (Gotzmann in S, Aramova-Herzog-Hibi in R) it
      grows minimally if the level below did.  By induction from the
      smallest generator degree, a leaf that passes every test grows
      minimally in every degree from there on, so it is Gotzmann.
    - A Gotzmann leaf passes every test, since each tested degree lies
      between its smallest and largest generator degrees.
    """
    levels = [_all_monomials(n, SQF, d) for d in range(n + 1)]

    def rec(d, forced, counts, gens):
        if d > n:
            yield gens
            return
        free = [m for m in levels[d] if not forced >> m & 1]
        base = forced.bit_count()
        for r in range(len(free) + 1):
            for chosen in combinations(free, r):
                shadow = upper_shadow(forced | mask_bitset(chosen), n)
                here = counts + [base + r]
                if cut is not None and chosen and \
                        not _grows_at(here, shadow.bit_count(), d, cut):
                    continue
                yield from rec(d + 1, shadow, here, gens + list(chosen))

    yield from rec(0, 0, [], [])


def enumerate_antichains(n: int, flavor: str = POLY):
    """Every antichain of subsets of the variables, once, as squarefree ideals.

    The generator lists of _antichain_walk, uncut, in its order; each is an
    antichain in canonical order by construction and goes to the builder
    unfiltered and unsorted.

    The flavor must be POLY or SQF; anything else raises ValueError.
    """
    if flavor not in (POLY, SQF):
        raise ValueError(f"flavor must be {POLY!r} or {SQF!r}, got {flavor!r}")
    if n > ANTICHAIN_MAX_VARS:
        raise ValueError(f"antichain enumeration is limited to {ANTICHAIN_MAX_VARS} variables")
    ctx = poly_ring(n) if flavor == POLY else sqf_ring(n)
    for gens in _antichain_walk(n):
        yield _ideal_from_antichain(gens, ctx)


def _supernova_generator_sets(n: int) -> set:
    """Generator sets (as mask tuples in canonical order) of every supernova
    form on <= n variables.

    Each form is its parent form plus one stage, so its generators are the
    parent's list extended by that stage's.  Only the first stage monomial may
    be empty, so by the argument in osp_to_ideal each list is already in
    canonical order; that order is a function of the set, so keying on the
    list as it stands deduplicates the sets.
    """
    out: set = set()

    def rec(pool, first, acc, gens):
        for m in submasks(pool):
            if m == 0 and not first:
                continue
            left = pool & ~m
            for block in submasks(left):
                if block == 0:
                    continue
                new_gens = gens + stage_generators(((m, block),), acc)
                out.add(tuple(new_gens))
                rec(left & ~block, False, acc | m, new_gens)

    rec((1 << n) - 1, True, 0, [])
    return out


def enumerate_gotzmann(n: int) -> list[MonomialIdeal]:
    """All Gotzmann squarefree ideals of S on n variables, zero and unit included.

    Generated structurally from supernova forms over every variable subset and
    deduplicated by minimal generator set.  Each set is the stage generators
    of a form, an antichain in canonical order by the argument in
    osp_to_ideal (disjoint stage monomials and nonempty blocks, only the first
    monomial empty), so it goes to the builder unfiltered and unsorted.
    """
    if n > ENUMERATE_MAX_VARS:
        raise ValueError(f"enumeration is limited to {ENUMERATE_MAX_VARS} variables")
    ctx = poly_ring(n)
    keys = _supernova_generator_sets(n)
    ideals = [zero_ideal(ctx), unit_ideal(ctx)]
    ideals.extend(_ideal_from_antichain(masks, ctx) for masks in keys)
    ideals.sort(key=lambda I: (len(I.gens), I.gens))
    return ideals


# ---------------------------------------------------------------------------
# counting

def _supernova_signatures(room: int, first: bool = True):
    """Every stage-size sequence ((|m_1|, |B_1|), ...) of a form on <= room variables.

    Only the first stage monomial may be empty; every block is nonempty.
    """
    yield ()
    for m in range(0 if first else 1, room):
        for b in range(1, room - m + 1):
            for tail in _supernova_signatures(room - m - b, False):
                yield ((m, b),) + tail


def count_up_to_symmetry(n: int) -> dict:
    """Orbit counts of nonunit Gotzmann squarefree ideals under variable relabeling.

    Such an ideal has a supernova form whose signature, the stage sizes
    ((|m_1|, |B_1|), ...), is read off its generator degrees; forms with equal
    signatures are relabelings of each other, so signatures correspond
    one-to-one with orbits (the empty one is the zero ideal).  Buckets are
    linear (|m_1| = 0) x full support (all n variables used); each holds
    2^(n-2) orbits and the nonunit total is 2^n.
    """
    if not 2 <= n <= MAX_VARS:
        raise ValueError(f"symmetry counts need 2 <= n <= {MAX_VARS}")
    counts = dict.fromkeys(("no_linear_full_support", "linear_full_support",
                            "no_linear_sub_support", "linear_sub_support"), 0)
    for signature in _supernova_signatures(n):
        linear = bool(signature) and signature[0][0] == 0
        support = "full" if sum(m + b for m, b in signature) == n else "sub"
        counts[f"{'linear' if linear else 'no_linear'}_{support}_support"] += 1
    counts["total_nonunit"] = sum(counts.values())
    return counts


def count_table(n_max: int, include_brute: bool = True) -> list[dict]:
    """Per-n counts from enumeration, series coefficients, and brute force.

    The brute-force column counts the leaves of the persistence-cut antichain
    walk, _antichain_walk(n, poly_ring(n)): no ideal is built, and a branch
    is dropped at its first degree that fails to grow minimally.  It is only
    available for n <= 5; the three routes must agree.
    """
    if n_max < 0:
        raise ValueError(f"variable count must be nonnegative, got {n_max}")
    if n_max > ENUMERATE_MAX_VARS:
        raise ValueError(f"counting is limited to {ENUMERATE_MAX_VARS} variables")
    T = max(DEFAULT_TRUNCATION, n_max)
    g = gotzmann_count_series(T)
    h = full_support_series(T)
    rows = []
    for n in range(n_max + 1):
        ideals = enumerate_gotzmann(n)
        full = (1 << n) - 1
        brute = None
        if include_brute and n <= ANTICHAIN_MAX_VARS:
            brute = sum(1 for _ in _antichain_walk(n, poly_ring(n)))
        rows.append({
            "n": n,
            "enumerated": len(ideals),
            "egf": egf_coefficient(g, n),
            "brute": brute,
            "full_support": sum(1 for I in ideals if I.support_mask == full),
            "full_support_egf": egf_coefficient(h, n),
        })
    return rows
