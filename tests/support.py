"""Shared helpers and brute-force oracles for the test suite."""

from itertools import combinations

from gotzmann.core import (
    MonomialIdeal,
    MonomialSpace,
    all_monomials,
    component_space,
    divides,
    exps_to_mask,
    mask_to_exps,
    minimalize,
    poly_ring,
    shadow_up,
    sqf_ring,
)


def random_sqf_ideal(rng, n, flavor="S", max_gens=None):
    """A random squarefree ideal from random subset generators."""
    ctx = poly_ring(n) if flavor == "S" else sqf_ring(n)
    count = rng.randint(0, max_gens if max_gens is not None else n + 2)
    masks = [rng.randrange(0, 1 << n) for _ in range(count)]
    return minimalize([mask_to_exps(m, n) for m in masks], ctx)


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


def gotzmann_spaces(n, degrees=None):
    """All Gotzmann subspaces of every component of R on n variables."""
    from gotzmann.lex import is_gotzmann_space

    ctx = sqf_ring(n)
    for d in degrees if degrees is not None else range(n + 1):
        for V in all_subspaces(ctx, d):
            if is_gotzmann_space(V):
                yield V


def contained_in_variable(I: MonomialIdeal, i: int) -> bool:
    return all(e[i] > 0 for e in I.gens)
