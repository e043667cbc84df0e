"""Shared helpers and brute-force oracles for the test suite."""

import functools
from itertools import combinations, permutations

from gotzmann.core import (
    SQF,
    MonomialIdeal,
    MonomialSpace,
    all_monomials,
    as_exps,
    component_space,
    divides,
    exps_to_mask,
    is_squarefree_exps,
    minimalize,
    poly_ring,
    shadow_up,
    sqf_ring,
)
from gotzmann.counting import OrderedSetPartition, enumerate_osp


def random_sqf_ideal(rng, n, flavor="S", max_gens=None):
    """A random squarefree ideal from random subset generators."""
    ctx = poly_ring(n) if flavor == "S" else sqf_ring(n)
    count = rng.randint(0, max_gens if max_gens is not None else n + 2)
    masks = [rng.randrange(0, 1 << n) for _ in range(count)]
    return minimalize(masks, ctx)


def minimalize_by_tuples(monomials, ctx):
    """Minimal generators by pairwise divisibility on exponent tuples."""
    items = {as_exps(m, ctx.n) for m in monomials}
    if ctx.flavor == SQF:
        for e in items:
            if not is_squarefree_exps(e):
                raise ValueError(f"monomial {e} is not squarefree")
    minimal = [m for m in items
               if not any(g != m and divides(g, m) for g in items)]
    return MonomialIdeal(ctx, tuple(sorted(
        minimal, key=lambda e: (sum(e), tuple(-x for x in e)))))


@functools.cache
def osp_counts(n):
    """(all, big-last-block) ordered set partitions of [n], enumerated once per n."""
    total = big = 0
    for osp in enumerate_osp(n):
        total += 1
        big += osp.last_block_big
    return total, big


def osp_by_frozensets(n):
    """Ordered set partitions of {1..n}: every first block of the remaining
    elements, chosen by a position mask in ascending order, then the rest.
    Blocks are frozensets until each partition is yielded with mask blocks."""
    def rec(remaining: tuple):
        if not remaining:
            yield ()
            return
        k = len(remaining)
        for mask in range(1, 1 << k):
            block = frozenset(remaining[j] for j in range(k) if mask >> j & 1)
            rest = tuple(x for j, x in enumerate(remaining) if not mask >> j & 1)
            for tail in rec(rest):
                yield (block,) + tail

    for blocks in rec(tuple(range(1, n + 1))):
        yield OrderedSetPartition(tuple(sum(1 << (v - 1) for v in b) for b in blocks))


def random_space(rng, ctx, d):
    mons = all_monomials(ctx, d)
    k = rng.randint(0, len(mons))
    return MonomialSpace(ctx, d, frozenset(rng.sample(mons, k)))


def all_subspaces(ctx, d):
    """Every subset of the full degree-d component, smallest first."""
    mons = all_monomials(ctx, d)
    for r in range(len(mons) + 1):
        for combo in combinations(mons, r):
            yield MonomialSpace(ctx, d, frozenset(combo))


def brute_min_shadow(ctx, d, dim):
    """True minimum shadow size over all dimension-dim subsets, by exhaustion."""
    mons = all_monomials(ctx, d)
    best = None
    for combo in combinations(mons, dim):
        size = shadow_up(MonomialSpace(ctx, d, frozenset(combo))).dim
        if best is None or size < best:
            best = size
    return best


def growth_by_construction(dim, d, ctx):
    """Minimal shadow growth by definition: the shadow size of the lex segment."""
    from gotzmann.lex import lex_segment

    return shadow_up(lex_segment(dim, d, ctx)).dim


def direct_sqf_counts(I: MonomialIdeal):
    """Squarefree monomials of I per degree 0..n, testing every mask of R."""
    ctx = sqf_ring(I.ctx.n)
    gens = [exps_to_mask(e) for e in I.gens]
    return tuple(sum(1 for m in all_monomials(ctx, d) if any(g & m == g for g in gens))
                 for d in range(ctx.n + 1))


def direct_poly_dim(I: MonomialIdeal, d: int) -> int:
    """|I_d| in S by materializing every degree-d monomial."""
    return sum(1 for m in all_monomials(I.ctx, d)
               if any(divides(g, m) for g in I.gens))


def gotzmann_by_components(I: MonomialIdeal) -> bool:
    """The Gotzmann test on materialized components, between the generator degrees."""
    from gotzmann.lex import is_gotzmann_space

    if I.is_zero:
        return True
    degs = I.degrees()
    return all(is_gotzmann_space(component_space(I, d)) for d in range(degs[0], degs[-1] + 1))


def dual_by_components(I: MonomialIdeal) -> MonomialIdeal:
    """Alexander dual of a squarefree ideal: the ideal generated by the duals of
    its materialized components, one at a time."""
    from gotzmann.decompose import alexander_dual_space

    n = I.ctx.n
    return minimalize([m for e in range(n + 1)
                       for m in alexander_dual_space(component_space(I, n - e)).basis], I.ctx)


def gdual_by_components(I: MonomialIdeal) -> bool:
    """Whether every materialized component has a Gotzmann Alexander dual."""
    from gotzmann.decompose import is_gdual

    return all(is_gdual(component_space(I, d)) for d in range(I.ctx.n + 1))


def gotzmann_spaces(n, degrees=None):
    """All Gotzmann subspaces of every component of R on n variables."""
    from gotzmann.lex import is_gotzmann_space

    ctx = sqf_ring(n)
    for d in degrees if degrees is not None else range(n + 1):
        for V in all_subspaces(ctx, d):
            if is_gotzmann_space(V):
                yield V


def lex_order_by_permutations(V: MonomialSpace):
    """Search all variable orders for one making V a lex segment.

    Returns the lexicographically smallest witness permutation, or None.
    Zero-dimensional and full spaces are lex in the identity order.
    """
    from gotzmann.lex import identity_order, is_lex_segment

    n = V.ctx.n
    total = V.ctx.dim_component(V.degree)
    if V.dim in (0, total):
        return identity_order(n)
    for perm in permutations(range(n)):
        if is_lex_segment(V, perm):
            return perm
    return None


def contained_in_variable(I: MonomialIdeal, i: int) -> bool:
    return all(e[i] > 0 for e in I.gens)
