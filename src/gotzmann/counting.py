"""Enumeration and exact counting of Gotzmann squarefree ideals of S.

Three independent routes are kept side by side: direct generation of all
supernova forms, the coefficients of exponential generating functions, and at
small n a brute-force walk over every antichain, cut by Gotzmann persistence.
Counts include the zero and unit ideals.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .classify import stage_generators
from .core import (
    MAX_VARS,
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    RingContext,
    _Record,
    _ideal_from_antichain,
    _setattr,
    all_monomials,
    poly_ring,
    sqf_ring,
    unit_ideal,
    upper_shadow,
    zero_ideal,
)
from .lex import _grows_at

ENUMERATE_MAX_VARS = 6
ANTICHAIN_MAX_VARS = 5
OSP_MAX_VARS = 10

WITH_LINEAR = "with_linear"
WITHOUT_LINEAR = "without_linear"
_FAMILIES = frozenset((WITH_LINEAR, WITHOUT_LINEAR))


# ---------------------------------------------------------------------------
# ordered set partitions

class OrderedSetPartition(_Record):
    """Disjoint nonempty blocks, in order, covering {1..n}; each block is a
    variable mask of type int, element v at bit v - 1."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        try:
            blocks = tuple(blocks)
        except TypeError:
            raise ValueError(f"blocks {blocks!r} is not a sequence of int masks") from None
        seen = 0
        for block in blocks:
            if type(block) is not int:
                raise ValueError(f"block {block!r} is not an int mask")
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
        blocks = self.blocks
        return not blocks or blocks[-1].bit_count() > 1


_set_blocks = OrderedSetPartition.blocks.__set__


def enumerate_osp(n: int):
    """All ordered set partitions of {1..n}, deterministically: each first block
    is a submask of the elements left, in ascending order.

    One explicit stack of (remaining, block) pairs, the next first block to
    try for each level of the partition being built, and the list of the
    blocks chosen above the top level: O(n) state.  A level's last choice is
    all that remains, which ends a partition.  After a pop, one inner loop
    descends to the next partition: at each level it pushes the level's next
    choice and takes its lowest element as the first block of what is left,
    so each partition costs one pop and one push per level it opens.

    Each partition is built without the constructor's checks, which it
    passes by construction: every block is a nonempty submask of the
    elements still remaining, so it is disjoint from the blocks before it,
    and the last block is all that remains, so together they cover {1..n}.
    """
    if type(n) is not int:
        raise ValueError(f"set size must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    if n > OSP_MAX_VARS:
        raise ValueError(f"ordered set partition enumeration is limited to {OSP_MAX_VARS}")
    full = (1 << n) - 1
    if not full:
        yield OrderedSetPartition(())
        return
    new = object.__new__
    stack = [(full, full & -full)]
    head: list[int] = []
    while stack:
        remaining, block = stack.pop()
        while block != remaining:
            stack.append((remaining, (block - remaining) & remaining))
            head.append(block)
            remaining ^= block
            block = remaining & -remaining
        osp = new(OrderedSetPartition)
        _set_blocks(osp, (*head, block))
        yield osp
        if head:
            head.pop()


def osp_to_ideal(osp: OrderedSetPartition, family: str) -> MonomialIdeal:
    """Image of a big-last-block partition in one of the two counting families.

    Consecutive entries pair into supernova stages (m_j, B_j); the
    with-linear family puts an empty monomial in front, so its first block
    holds the linear generators.  An odd tail t is split into t without its
    lowest variable and that variable, a lone principal generator.  The
    blocks are disjoint and cover {1..n}, so their sum is the full mask,
    which the generator masks must cover: the image has full support.

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
    blocks = osp.blocks
    if blocks and blocks[-1].bit_count() < 2:
        raise ValueError("the partition's last block must have more than one element")
    full = sum(blocks)
    ctx = poly_ring(full.bit_length())
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not blocks:
        return unit_ideal(ctx) if family == WITH_LINEAR else zero_ideal(ctx)
    entries = (0, *blocks) if family == WITH_LINEAR else blocks
    if len(entries) % 2:
        t = entries[-1]
        entries = (*entries[:-1], t & (t - 1), t & -t)
    pairs = iter(entries)
    masks = stage_generators(zip(pairs, pairs))
    if reduce(or_, masks, 0) != full:
        raise InvariantViolation("partition image lost full support")
    return _ideal_from_antichain(masks, ctx)


# ---------------------------------------------------------------------------
# generating functions, each as its egf coefficients n! [t^n], n = 0..T

def osp_series(T: int) -> tuple[int, ...]:
    """E.g.f. of ordered set partitions, 1/(2 - e^t).

    From (2 - e^t) A = 1: a_0 = 1 and a_n = sum_{k=1..n} C(n, k) a_{n-k},
    a first block of k elements followed by a partition of the rest.  The
    other three series are built on this one, so a truncation T below zero
    raises ValueError here for all four, as does a T not of type int.
    """
    if type(T) is not int:
        raise ValueError(f"truncation must be an int, got {T!r}")
    if T < 0:
        raise ValueError(f"truncation must be nonnegative, got {T}")
    a = [1]
    for n in range(1, T + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return tuple(a)


def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set."""
    if type(n) is not int:
        raise ValueError(f"set size must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"set size must be nonnegative, got {n}")
    return osp_series(n)[n]


def big_last_block_series(T: int) -> tuple[int, ...]:
    """E.g.f. of ordered set partitions whose last block is not a singleton,
    (1 - t)/(2 - e^t): a_n - n a_{n-1}, all partitions less those ending in
    one of n singletons."""
    a = osp_series(T)
    return (a[0],) + tuple(a[n] - n * a[n - 1] for n in range(1, T + 1))


def full_support_series(T: int) -> tuple[int, ...]:
    """E.g.f. of full-support Gotzmann squarefree ideals, 2(1-t)/(2-e^t) + t."""
    return tuple(2 * b + (n == 1) for n, b in enumerate(big_last_block_series(T)))


def gotzmann_count_series(T: int) -> tuple[int, ...]:
    """E.g.f. of all Gotzmann squarefree ideals: e^t times the full-support
    series, the binomial transform sum_k C(n, k) h_k (the support is any
    k-subset of the variables)."""
    h = full_support_series(T)
    return tuple(sum(comb(n, k) * h[k] for k in range(n + 1)) for n in range(T + 1))


# ---------------------------------------------------------------------------
# enumeration

def _antichain_walk(n: int, cut: RingContext | None = None):
    """Every antichain of subsets of the variables, once, as a list of generator masks.

    Walks the up-sets of the subset lattice level by level: beyond the forced
    shadow of earlier levels every choice of new monomials is free, and those
    choices are exactly the minimal generators.  They are an antichain by
    construction: each level's choices lie outside the shadow of the earlier
    levels, so no earlier choice divides them, and distinct masks of one
    degree cannot divide each other.  Each list is in canonical order: the
    levels rise in degree, and each level's choices keep the order of
    all_monomials, which is descending exponent tuple.

    The shadow of a union is the union of the shadows, so each level takes
    the shadow of its forced set once, and each choice ORs onto it the
    shadows of its masks, read from a table of the shadow of every single
    mask built once per walk.  The tests, and their order, are those of a
    walk that takes the shadow of each whole level anew.

    With cut a ring context on n variables, only the generator sets of the
    Gotzmann ideals of that ring are yielded.  A branch ends right after
    level d is chosen when it takes new generators in degree d and
    lex._grows_at fails at d; the level's shadow, which it tests against, is
    the next level's forced set.  This yields exactly the Gotzmann ideals:

    - The test at d reads only levels <= d, which are fixed in the branch,
      and every leaf below it has a generator of degree d.  So d lies between
      the leaf's smallest and largest generator degrees, where the growth
      route lex._grows_minimally tests it, and the leaf is not Gotzmann.
    - A level that takes no new generators is not tested.  Its piece is the
      shadow of the level below, so the ideal up to it is generated in lower
      degrees; by persistence (Gotzmann in S, Aramova-Herzog-Hibi in R) it
      grows minimally if the level below did.  By induction from the
      smallest generator degree, a leaf that passes every test grows
      minimally in every degree from there on, so it is Gotzmann.
    - A Gotzmann leaf passes every test, since each tested degree lies
      between its smallest and largest generator degrees.
    """
    levels = [all_monomials(sqf_ring(n), d) for d in range(n + 1)]
    shadows = [upper_shadow(1 << m, n) for m in range(1 << n)]

    def rec(d, forced, counts, gens):
        if d > n:
            yield gens
            return
        free = [m for m in levels[d] if not forced >> m & 1]
        base = forced.bit_count()
        below = upper_shadow(forced, n)
        for r in range(len(free) + 1):
            here = counts + [base + r]
            for chosen in combinations(free, r):
                shadow = reduce(or_, map(shadows.__getitem__, chosen), below)
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

    The flavor must be POLY or SQF and n a ring size up to
    ANTICHAIN_MAX_VARS; anything else raises ValueError at the call, before
    the returned generator is first advanced.
    """
    if flavor not in (POLY, SQF):
        raise ValueError(f"flavor must be {POLY!r} or {SQF!r}, got {flavor!r}")
    if n > ANTICHAIN_MAX_VARS:
        raise ValueError(f"antichain enumeration is limited to {ANTICHAIN_MAX_VARS} variables")
    ctx = poly_ring(n) if flavor == POLY else sqf_ring(n)
    return (_ideal_from_antichain(gens, ctx) for gens in _antichain_walk(n))


def _supernova_generator_sets(n: int) -> list:
    """Generator sets (mask tuples in canonical order) of the supernova forms
    on <= n variables, each once.

    Each form is its parent form plus one stage, whose generators extend the
    parent's; by the argument in osp_to_ideal each list is in canonical order.
    Two inline loops walk submasks in descending order: a stage monomial of
    the pool (0 in the first stage only), then a nonempty block of what it
    leaves.  A set is kept from the normal form of classify._supernova_stages
    alone, whose one-variable last block is the top bit of its stage (block
    > m); swapping any other such block with the top bit of m gives the same
    set.  Every form is still recursed from: a stage that is not last may
    have any block.
    """
    out = []

    def rec(pool, first, acc, gens):
        m = pool
        while True:
            left = pool ^ m
            block = left if m or first else 0
            while block:
                new_gens = gens + stage_generators(((acc | m, block),))
                if block & (block - 1) or block > m:
                    out.append(tuple(new_gens))
                rec(left ^ block, False, acc | m, new_gens)
                block = (block - 1) & left
            if not m:
                break
            m = (m - 1) & pool

    rec((1 << n) - 1, True, 0, [])
    return out


def enumerate_gotzmann(n: int) -> list[MonomialIdeal]:
    """All Gotzmann squarefree ideals of S on n variables, zero and unit included.

    One ideal per set of _supernova_generator_sets, an antichain in
    canonical order by the argument in osp_to_ideal, so it goes to the
    builder unfiltered and unsorted.

    The ideals come by generator count, then by their generators' exponent
    tuples.  One integer per set sorts them so: its length, then its masks
    with their n bits reversed, packed n bits each.  A reversed mask holds
    bit 0 in its top place, so reversed masks ascend as exponent tuples do;
    sets of one length pack to one width, and a longer set packs to a larger
    integer.  The zero ideal (no generators) and the unit ideal (the one
    mask 0) come first, as no supernova set is empty or holds 0.
    """
    if n > ENUMERATE_MAX_VARS:
        raise ValueError(f"enumeration is limited to {ENUMERATE_MAX_VARS} variables")
    ctx = poly_ring(n)
    reverse = [int(format(m, f"0{n}b")[::-1], 2) for m in range(1 << n)]

    def order(masks):
        key = len(masks)
        for m in masks:
            key = key << n | reverse[m]
        return key

    ideals = [zero_ideal(ctx), unit_ideal(ctx)]
    ideals.extend(_ideal_from_antichain(masks, ctx)
                  for masks in sorted(_supernova_generator_sets(n), key=order))
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
    if type(n) is not int:
        raise ValueError(f"variable count must be an int, got {n!r}")
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


def count_table(n_max: int) -> list[dict]:
    """Per-n counts from enumeration, series coefficients, and brute force.

    The brute-force column counts the leaves of the persistence-cut antichain
    walk, _antichain_walk(n, poly_ring(n)): no ideal is built, and a branch
    is dropped at its first degree that fails to grow minimally.  It is
    filled for n <= ANTICHAIN_MAX_VARS and None above.  The routes must
    agree: a row whose enumerated, egf and brute counts differ, or whose
    full-support counts differ, raises InvariantViolation.
    """
    if type(n_max) is not int:
        raise ValueError(f"variable count must be an int, got {n_max!r}")
    if n_max < 0:
        raise ValueError(f"variable count must be nonnegative, got {n_max}")
    if n_max > ENUMERATE_MAX_VARS:
        raise ValueError(f"counting is limited to {ENUMERATE_MAX_VARS} variables")
    g = gotzmann_count_series(n_max)
    h = full_support_series(n_max)
    rows = []
    for n in range(n_max + 1):
        ideals = enumerate_gotzmann(n)
        full = (1 << n) - 1
        brute = (sum(1 for _ in _antichain_walk(n, poly_ring(n)))
                 if n <= ANTICHAIN_MAX_VARS else None)
        row = {
            "n": n,
            "enumerated": len(ideals),
            "egf": g[n],
            "brute": brute,
            "full_support": sum(1 for I in ideals if I.support_mask == full),
            "full_support_egf": h[n],
        }
        if len({row["enumerated"], row["egf"], brute} - {None}) != 1 \
                or row["full_support"] != row["full_support_egf"]:
            raise InvariantViolation(f"count mismatch at n={n}: {row}")
        rows.append(row)
    return rows
