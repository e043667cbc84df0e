"""Shared helpers and brute-force oracles for the test suite."""

import functools
from dataclasses import dataclass
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
    gen_masks,
    is_squarefree_exps,
    minimalize,
    poly_ring,
    q_context,
    shadow_up,
    sqf_ring,
)
from gotzmann.counting import OrderedSetPartition, enumerate_osp
from gotzmann.textio import parse_monomial


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


def ideal_gens_error(ctx, gens):
    """The first rule of a MonomialIdeal generating set that gens break, as
    the constructor words it, or None when gens are valid.

    The rules, checked in this order: each generator lies in the ring (n
    nonnegative exponents) and, in R, is squarefree; the generators are
    distinct; no generator divides another; they are sorted by rising degree,
    then descending exponent tuple.
    """
    n = ctx.n
    for e in gens:
        if len(e) != n or any(x < 0 for x in e):
            return f"bad generator {e} for {n} variables"
        if ctx.flavor == SQF and not is_squarefree_exps(e):
            return f"generator {e} is not squarefree"
    if len(set(gens)) != len(gens):
        return "generators must be distinct"
    if any(g != h and divides(g, h) for g in gens for h in gens):
        return "generators must form a divisibility antichain"
    if list(gens) != sorted(gens, key=lambda e: (sum(e), tuple(-x for x in e))):
        return "generators must be sorted canonically"
    return None


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


def full_support_class(I: MonomialIdeal):
    """Which of the five full-support families an ideal falls in, else None.

    The split is by having a linear generator and by whether the top degree
    carries one generator or several; the one-variable ideal stands alone.
    """
    n = I.ctx.n
    if I.is_zero or I.is_unit or I.support_mask != (1 << n) - 1:
        return None
    top = max(I.degrees())
    top_count = sum(1 for e in I.gens if sum(e) == top)
    linear = I.has_linear_gen
    if n == 1:
        return "single_variable"
    if linear and top_count == 1 and top != 1:
        return "linear_principal_top"
    if linear and top_count > 1:
        return "linear_wide_top"
    if not linear and top_count == 1:
        return "no_linear_principal_top"
    if not linear and top_count > 1:
        return "no_linear_wide_top"
    return None


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


def divide_by_variable(I: MonomialIdeal, i: int) -> MonomialIdeal:
    """Divide every generator by x_i; all generators must be divisible by it."""
    if not 0 <= i < I.ctx.n:
        raise ValueError(f"variable index {i} out of range")
    out = []
    for e in I.gens:
        if e[i] == 0:
            raise ValueError(f"generator {e} is not divisible by variable {i}")
        out.append(e[:i] + (e[i] - 1,) + e[i + 1:])
    return minimalize(out, I.ctx)


def quotient_by_variable(I: MonomialIdeal, i: int) -> MonomialIdeal:
    """Image of the ideal in the ring with x_i set to zero.

    The result lives over q_context(I.ctx, i); generators involving x_i map
    to zero and are dropped.
    """
    small = q_context(I.ctx, i)
    kept = [e[:i] + e[i + 1:] for e in I.gens if e[i] == 0]
    return minimalize(kept, small)


@dataclass(frozen=True)
class FacetComplex:
    """A simplicial complex given by its facets (a hypergraph edge set).

    With facet_complex_of, is_star_shaped and is_supernova_complex this is the
    paper's theorem in facet-complex form, an oracle for recognize_supernova.
    """

    n: int
    facets: tuple[int, ...]

    def __post_init__(self):
        for f in self.facets:
            if f <= 0 or f >> self.n:
                raise ValueError(f"facet {f} is not a nonempty subset of the vertices")
        if len(set(self.facets)) != len(self.facets):
            raise ValueError("facets must be distinct")
        for f in self.facets:
            for g in self.facets:
                if f != g and f & g == f:
                    raise ValueError("facets must form an antichain")

    @property
    def dimension(self) -> int:
        return max((f.bit_count() for f in self.facets), default=-1) - 1


def facet_complex_of(I: MonomialIdeal) -> FacetComplex:
    """Facets = minimal generators of a squarefree ideal (no unit generator)."""
    if I.is_unit:
        raise ValueError("the unit ideal has no facet complex")
    return FacetComplex(I.ctx.n, gen_masks(I))


def is_star_shaped(h: FacetComplex) -> bool:
    """Whether some common face one vertex smaller sits inside every facet.

    Requires a pure complex (all facets the same size).
    """
    if not h.facets:
        return True
    sizes = {f.bit_count() for f in h.facets}
    if len(sizes) > 1:
        raise ValueError("star-shaped test requires a pure complex")
    k = sizes.pop()
    common = ~0
    for f in h.facets:
        common &= f
    return common.bit_count() >= k - 1


def is_supernova_complex(h: FacetComplex) -> bool:
    """Whether a nested chain of faces F_0 < F_1 < ... pins every facet.

    Every facet on i+1 vertices must contain the i-vertex face of the chain;
    sizes with no facets impose no constraint.  Processing constrained sizes
    from the top down, intersecting as we go, decides existence.
    """
    by_size: dict[int, int] = {}
    for f in h.facets:
        s = f.bit_count()
        by_size[s] = by_size.get(s, ~0) & f
    acc = ~0
    for s in sorted(by_size, reverse=True):
        if s < 2:
            continue  # one-vertex facets only need the empty face
        acc &= by_size[s]
        if acc.bit_count() < s - 1:
            return False
    return True


def parse_ideal_lines(lines, ctx):
    """One monomial per line; comments and blank lines are skipped.

    A line "0" stands for the zero ideal; lines with no monomial and no "0"
    are an error, as an empty inline list is.
    """
    monomials = []
    zero = False
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line == "0":
            zero = True
        elif line:
            monomials.append(parse_monomial(line, ctx))
    if not (monomials or zero):
        raise ValueError("empty ideal: write 0 for the zero ideal")
    return minimalize(monomials, ctx)


def read_ideal_stanzas(text, ctx):
    """The ideals of a file of blank-line-separated stanzas, one monomial per
    line: the round-trip oracle for `gotz enumerate --output`."""
    ideals = []
    stanza = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if stanza:
                ideals.append(parse_ideal_lines(stanza, ctx))
                stanza = []
            continue
        stanza.append(line)
    if stanza:
        ideals.append(parse_ideal_lines(stanza, ctx))
    return ideals
